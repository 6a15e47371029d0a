"""Parts of the benchmark that never import zeckmix: paths, golden digests,
the closed-loop pass runner, latency statistics and the CLI call list.

The orchestrator (`run.py`) imports only this module until it needs the
library, so the `cli` workload's parent process stays free of zeckmix and
numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_ROOT = ROOT / ".zbench_work"
OUT_ROOT = ROOT / ".zbench_out"

WORKLOADS = ("survey", "replay", "roundtrip", "cli")

# Percentiles the tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 120.0

# The reference kernel: a fixed pure-Python loop, independent of zeckmix,
# timed about every REFERENCE_EVERY_S between ops.  On a shared machine the
# speed of plain bytecode drifts by tens of percent over minutes; op
# latencies are reported at the speed where the kernel takes
# REFERENCE_NOMINAL_S, which removes most of that drift from run-to-run
# comparisons.  Raw latencies are reported alongside.
REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.010
REFERENCE_EVERY_S = 0.5


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per workload, seed and purpose."""
    return random.Random(f"zbench:{workload}:{stream}:{seed}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# ops and the closed-loop pass


@dataclass
class Op:
    """One operation of a workload.

    `run` performs the timed work and returns its raw result; `text` renders
    the result canonically for the golden digest; `selfcheck` returns an
    error message or None and holds for any seed.  `drawn` marks inputs
    chosen by the seed (the rest are the same for every seed).
    """

    key: str
    run: Callable[[], object]
    text: Callable[[object], str]
    selfcheck: Callable[[object], str | None] | None = None
    drawn: bool = False


@dataclass
class PassLog:
    latencies: list
    failures: list
    attempted: int = 0

    def merge(self, other: "PassLog") -> None:
        self.latencies.extend(other.latencies)
        self.failures.extend(other.failures)
        self.attempted += other.attempted


def reference_kernel_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Reference:
    """Scales op latencies to the reference speed.  The ops between two
    kernel timings are divided by the mean of those two timings over
    REFERENCE_NOMINAL_S."""

    def __init__(self):
        self.kernel_s = [reference_kernel_s()]
        self.scaled: list = []
        self._pending: list = []
        self._next = time.perf_counter() + REFERENCE_EVERY_S

    def add(self, latency: float) -> None:
        self._pending.append(latency)
        if time.perf_counter() >= self._next:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.kernel_s.append(reference_kernel_s())
        speed = (self.kernel_s[-2] + self.kernel_s[-1]) / 2 / REFERENCE_NOMINAL_S
        self.scaled.extend(x / speed for x in self._pending)
        self._pending = []
        self._next = time.perf_counter() + REFERENCE_EVERY_S


class Checker:
    """Compares every op output with its golden digest and runs each op's
    self-check once per distinct key; either mismatch fails the op."""

    def __init__(self, golden_digests: dict, quiet=contextlib.nullcontext):
        self.golden = golden_digests
        self.quiet = quiet
        self.selfchecked: set[str] = set()

    def check(self, op: Op, result) -> str | None:
        with self.quiet():
            return self._check(op, result)

    def _check(self, op: Op, result) -> str | None:
        text = op.text(result)
        expected = self.golden.get(op.key)
        if expected is None:
            return "no golden digest for this input"
        if digest(text) != expected:
            return "output differs from the golden digest"
        if op.selfcheck is not None and op.key not in self.selfchecked:
            error = op.selfcheck(result)
            if error is not None:
                return f"self-check failed: {error}"
            self.selfchecked.add(op.key)
        return None


def run_pass(ops, checker: Checker, reference: Reference | None = None) -> PassLog:
    """Start each op only after the previous one returned (one client)."""
    log = PassLog([], [])
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an unexpected raise is a failed op
            elapsed = time.perf_counter() - start
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            error = checker.check(op, result)
        log.attempted += 1
        log.latencies.append(elapsed)
        if reference is not None:
            reference.add(elapsed)
        if error is not None:
            log.failures.append((op.key, error))
    return log


def run_for(ops, checker: Checker, seconds: float):
    """Whole passes until `seconds` of wall time have gone (at least one);
    returns the log, the pass count and the reference-speed latencies."""
    log = PassLog([], [])
    reference = Reference()
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        log.merge(run_pass(ops, checker, reference))
        passes += 1
        if time.perf_counter() >= deadline:
            reference.flush()
            return log, passes, reference


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(count: int) -> float:
    """Highest ladder percentile that leaves at least ten ops beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count - math.ceil(pct / 100.0 * count) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_metrics(log: PassLog, lat: list) -> dict:
    """End-to-end metrics of one closed-loop client, except set-up and RSS,
    from the latencies `lat` of the ops in `log`.

    `ops_per_s` is completed (not failed) ops over the time spent inside
    ops, so the benchmark's own output checks between ops are not charged
    to the program.
    """
    tail = tail_percentile(len(lat))
    return {
        "ops_per_s": (len(lat) - len(log.failures)) / sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": percentile(lat, tail) * 1e3,
        "tail_percentile": tail,
        "ops": len(lat),
    }


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """Environment for child interpreters: the library from `src`, nothing
    installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    peak_rss_kib: int
    wall_s: float


def run_child(argv, stderr_path: Path) -> ChildResult:
    """Run one child to completion and reap it with wait4, so its own peak
    RSS is known (RUSAGE_CHILDREN would mix in every earlier child)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err_fh:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_fh,
                                env=child_env())
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return ChildResult(proc.returncode, out, stderr_path.read_bytes(),
                       usage.ru_maxrss, wall)


# ---------------------------------------------------------------------------
# independent numeration oracle


def reference_recurrence(spec):
    """(coefficients, initial terms, base index) of a built-in scheme,
    written out here independently of the library."""
    name, params = spec
    if name == "fibonacci":
        return (1, 1), (1, 1), 1
    if name == "tribonacci":
        return (1, 1, 1), (0, 1, 1), 2
    if name == "metallic":
        (m,) = params
        return (m, 1), (1, 1), 1
    if name == "kbonacci":
        (k,) = params
        return (1,) * k, (0,) * (k - 2) + (1, 1), k - 1
    raise ValueError(f"no reference recurrence for {name}")


def reference_digits(spec, n: int) -> list[int]:
    """Greedy expansion of n, most significant digit first."""
    coeffs, init, base = reference_recurrence(spec)
    terms = list(init)
    while terms[-1] <= n or len(terms) <= base + 1:
        terms.append(sum(c * terms[-1 - j] for j, c in enumerate(coeffs)))
    if n == 0:
        return []
    top = max(i for i in range(base, len(terms)) if terms[i] <= n)
    digits = []
    rem = n
    for i in range(top, base - 1, -1):
        q, rem = divmod(rem, terms[i])
        digits.append(q)
    return digits


# ---------------------------------------------------------------------------
# the cli workload: one fresh interpreter per call

# Every README example; `{tmp}` is the run's own work directory, holding the
# README rule file and a certificate the benchmark writes during set-up.
CLI_FIXED = (
    ("zeck", "encode", "--family", "metallic", "--m", "3", "1404"),
    ("zeck", "decode", "--family", "fibonacci", "10010"),
    ("zeck", "validate", "--family", "tribonacci", "110"),
    ("seq", "term", "--family", "metallic", "--m", "3", "6"),
    ("seq", "complete", "--coeffs", "3", "--init", "1", "--horizon", "10"),
    ("subst", "show", "--family", "tribonacci"),
    ("subst", "apply", "--family", "fibonacci", "ab"),
    ("subst", "inflate", "--family", "fibonacci", "--letter", "a", "--level", "2"),
    ("subst", "matrix", "--family", "tribonacci"),
    ("subst", "pisot", "--family", "metallic", "--m", "2"),
    ("lang", "legal", "--family", "fibonacci", "bb"),
    ("lang", "enum", "--family", "fibonacci", "--n", "3"),
    ("semimix", "check", "--family", "fibonacci", "--word", "a", "--horizon", "20"),
    ("semimix", "certify", "--family", "fibonacci", "--word", "a",
     "--verify-range", "30", "--out", "{tmp}/cert-out.txt"),
    ("semimix", "verify", "--cert", "{tmp}/cert.txt", "--span", "20"),
    ("subst", "show", "--rules", "{tmp}/rules.txt"),
    ("lang", "legal", "--rules", "{tmp}/rules.txt", "ab"),
    ("semimix", "check", "--rules", "{tmp}/rules.txt", "--seeds", "ab,ba",
     "--word", "a", "--horizon", "20"),
)
# large values for `zeck encode`, one drawn per family and seed
CLI_ENCODE_POOL = {
    "fibonacci": tuple(10**15 + 7_777_777_777 * j for j in range(16)),
    "tribonacci": tuple(10**15 + 3_333_333_331 * j for j in range(16)),
}


def cli_calls(seed: int, full: bool = False):
    """(golden key, argv template, drawn) for one pass of the cli list."""
    calls = [(t, False) for t in CLI_FIXED]
    rng = rng_for("cli", seed, "encode-values")
    for fam, pool in CLI_ENCODE_POOL.items():
        values = pool if full else (rng.choice(pool),)
        calls += [(("zeck", "encode", "--family", fam, str(n)), True)
                  for n in values]
    return [("cli " + " ".join(t), t, drawn) for t, drawn in calls]


def cli_text(code: int, stdout: str, workdir) -> str:
    return f"exit={code}\n" + stdout.replace(str(workdir), "{tmp}")


def cli_selfcheck(template, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if not stdout.startswith("# zeckmix"):
        return "stdout is not a zeckmix report"
    if template[:2] == ("zeck", "encode") and template[3] in CLI_ENCODE_POOL:
        n = int(template[-1])
        digits = "".join(map(str, reference_digits((template[3], ()), n)))
        for line in (f"digits: {digits}", f"decode_check: {n}", "valid: true"):
            if line not in stdout.splitlines():
                return f"missing {line!r}"
    return None


def cli_subprocess_ops(seed: int, workdir: Path, peaks: list, full=False):
    """The cli list as fresh `python -m zeckmix.cli` calls; each call's own
    peak RSS (KiB) is appended to `peaks`."""
    ops = []
    for key, template, drawn in cli_calls(seed, full):
        argv = [sys.executable, "-m", "zeckmix.cli",
                *(part.replace("{tmp}", str(workdir)) for part in template)]

        def run(argv=argv):
            result = run_child(argv, workdir / "cli-stderr.txt")
            peaks.append(result.peak_rss_kib)
            return result

        ops.append(Op(
            key, run,
            lambda r: cli_text(r.code, r.stdout.decode("utf-8"), workdir),
            lambda r, t=template: cli_selfcheck(t, r.code,
                                                r.stdout.decode("utf-8")),
            drawn,
        ))
    return ops
