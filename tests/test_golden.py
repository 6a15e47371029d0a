"""Byte-identical output: every in-process benchmark op of the `survey`,
`replay`, `roundtrip` and `cli` workloads, over every pool member and every
large roundtrip block, reproduces the digest `zbench/golden.json` records
for it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "zbench"))

import workloads  # noqa: E402
from harness import digest, load_golden  # noqa: E402

GOLDEN = load_golden()


@pytest.mark.parametrize("workload", ["survey", "replay", "roundtrip", "cli"])
def test_ops_match_golden_digests(tmp_path, workload):
    ops = workloads.build(workload, 0, GOLDEN["pools"], tmp_path, full=True)
    assert ops
    differing = [op.key for op in ops
                 if digest(op.text(op.run())) != GOLDEN["digests"][op.key]]
    assert differing == []
