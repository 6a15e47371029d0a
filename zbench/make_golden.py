#!/usr/bin/env python3
"""Record `golden.json`: the input pools and one digest per op input.

Run from the root of a checkout at the commit whose outputs are the
reference:

    python3 zbench/make_golden.py

Every pool member of every workload runs once (so any seed is covered),
must pass its self-check, and the CLI list runs both in process and as
fresh interpreters, which must agree.
"""

import json
import shutil
import sys

from harness import GOLDEN_PATH, SRC, WORK_ROOT, cli_subprocess_ops, digest

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from run import baseline_ops  # noqa: E402


def record(ops, digests: dict) -> None:
    for op in ops:
        result = op.run()
        if op.selfcheck is not None:
            error = op.selfcheck(result)
            if error is not None:
                raise SystemExit(f"{op.key}: self-check failed: {error}")
        value = digest(op.text(result))
        if digests.setdefault(op.key, value) != value:
            raise SystemExit(f"{op.key}: two runs disagree")


def main() -> int:
    pools = {"survey": workloads.survey_pools(),
             "replay": workloads.replay_pools()}
    digests: dict = {}
    workdir = WORK_ROOT / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("survey", "replay", "roundtrip", "cli"):
            record(workloads.build(name, 0, pools, workdir, full=True), digests)
            print(f"{name}: {len(digests)} digests so far", flush=True)
        record(cli_subprocess_ops(0, workdir, [], full=True), digests)
        record(baseline_ops(workloads), digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    # one pool list or digest per line keeps diffs of this file readable
    lines = ['{"pools": {']
    lines.append(",\n".join(f"  {json.dumps(name)}: {json.dumps(pool)}"
                             for name, pool in pools.items()))
    lines.append('}, "digests": {')
    lines.append(",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                             for key, value in sorted(digests.items())))
    lines.append("}}")
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
