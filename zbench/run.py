#!/usr/bin/env python3
"""The zeckmix benchmark: one closed-loop client, one workload per run.

    python3 zbench/run.py --workload survey --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it uses the library in `src/` and
installs nothing.  Workloads (see BENCHMARK.json for why each exists):

  survey     language_of_length and check_empirical (criterion 5 shape)
  replay     verify_certificate deep, shallow and on corruptions (criterion 6)
  roundtrip  encode_greedy -> is_valid -> decode blocks, uniqueness sweeps
             (criterion 1 shape)
  cli        fresh `python -m zeckmix.cli` calls, every README example

`--trace 0` measures the unmodified program and reports the end-to-end
metrics.  ops_per_s, op_p50_ms and op_tail_ms are given at reference speed:
a fixed pure-Python kernel (`harness.Reference`) is timed between ops every
half second and each op's latency is scaled by how much slower or faster
than nominal the kernel ran around it, so that the machine's own speed
drift does not read as a change of the program; the raw values are printed
beside them and kept in the details file.  setup_s and peak_rss_mb are raw.
`--trace 1` installs wrappers from `tracer.py`, runs the same
passes traced after an equal untraced stretch, and reports per-layer
metrics, the tracing overhead, the ROADMAP baseline rows and the CLI start
costs.  Every op output is compared with `golden.json` and self-checked; a
mismatch counts as a failed op.  Human-readable lines come first; the last
line of stdout is the JSON result.  Details and raw spans go to
`.zbench_out/`.  Never more than two processes run at once: this one and
one child.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from harness import (
    BENCH_DIR,
    OUT_ROOT,
    ROOT,
    SRC,
    WORK_ROOT,
    WORKLOADS,
    Checker,
    Op,
    PassLog,
    cli_subprocess_ops,
    digest,
    latency_metrics,
    load_golden,
    reference_kernel_s,
    run_child,
    run_for,
    run_pass,
)

SETUP_SAMPLES = 5
CLI_START_SAMPLES = 5
FAILURES_SHOWN = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

COUNT_METRICS = (
    "language.pattern_witness.calls", "language.pattern_witness.levels",
    "language.is_legal.calls", "language.is_legal.levels",
    "language.is_legal.chars",
    "language.language_of_length.calls", "language.language_of_length.words",
    "substitution.contains.calls", "substitution.contains.chars",
    "substitution.build_dag.calls",
    "numeration.encode_greedy.calls", "numeration.encode_greedy.digits",
    "numeration.decode.calls", "numeration.enumerate_valid.strings",
    "semimixing.check_empirical.calls", "semimixing.check_empirical.gaps",
    "semimixing.verify_certificate.calls",
    "semimixing.verify_certificate.checked",
    "semimixing.derive_witness.calls",
)
SELF_TIME_LAYERS = (
    "language.pattern_witness", "language.is_legal",
    "language.language_of_length", "substitution.contains",
    "substitution.build_dag", "substitution.spectral",
    "numeration.encode_greedy", "numeration.decode", "numeration.is_valid",
    "numeration.enumerate_valid", "numeration.scheme_build",
    "semimixing.check_empirical", "semimixing.verify_certificate",
    "semimixing.derive_witness", "semimixing.certify", "semimixing.seed_sets",
    "cli.main",
)
SHARE_LAYERS = ("language.pattern_witness", "language.is_legal",
                "substitution.contains", "numeration")
# the in-process rows first, in the order baseline_ops() runs them
BASELINE_CLI_CALL = "cli zeck encode --family metallic --m 3 1404"
BASELINE_ROWS = (
    ("baseline.check_empirical_h20_s", "s"),
    ("baseline.check_empirical_h40_s", "s"),
    ("baseline.check_empirical_h80_s", "s"),
    ("baseline.language_of_length_n20_s", "s"),
    ("baseline.verify_span200_deep_s", "s"),
    ("baseline.verify_span200_shallow_s", "s"),
    ("baseline.import_zeckmix_ms", "ms"),
    ("baseline.cli_call_ms", "ms"),
)


def per_layer_units() -> dict:
    """Name -> unit of every metric a traced run reports."""
    units = {name: "count" for name in COUNT_METRICS}
    units.update({f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS})
    units["language.pattern_witness.hit_ratio"] = "ratio"
    units["semimixing.check_empirical.witnessed_ratio"] = "ratio"
    units.update({f"share.{layer}": "ratio" for layer in SHARE_LAYERS})
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms",
                  "cli.main_ms": "ms", "trace.overhead_frac": "ratio",
                  "trace.coverage": "ratio"})
    units.update(dict(BASELINE_ROWS))
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment_stamp() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sources = sorted((SRC / "zeckmix").glob("*.py"))
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_digest": digest("".join(p.read_text(encoding="utf-8")
                                     for p in sources)),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "reference_kernel_ms": 1e3 * statistics.median(
            reference_kernel_s() for _ in range(5)),
    }


# ---------------------------------------------------------------------------
# fresh-interpreter samples


def setup_sample(workload: str, seed: int, workdir) -> float:
    """Seconds from starting a fresh interpreter until it has built the
    workload's inputs (CLOCK_MONOTONIC is shared by both processes)."""
    argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), workload,
            str(seed), str(workdir)]
    start = time.monotonic()
    result = run_child(argv, workdir / "setup-stderr.txt")
    if result.code != 0:
        raise BenchError("set-up child failed:\n"
                         + result.stderr.decode("utf-8", "replace")[-2000:])
    return float(result.stdout.split()[-1]) - start


def child_wall_ms(code: str, workdir) -> float:
    result = run_child([sys.executable, "-c", code], workdir / "probe-stderr.txt")
    if result.code != 0:
        raise BenchError(f"probe {code!r} failed")
    return result.wall_s * 1e3


def import_ms(workdir) -> float:
    """In-interpreter time of `import zeckmix` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import zeckmix; "
            "print(repr(time.perf_counter() - t))")
    result = run_child([sys.executable, "-c", code], workdir / "probe-stderr.txt")
    if result.code != 0:
        raise BenchError("import zeckmix failed in a fresh interpreter")
    return float(result.stdout.split()[-1]) * 1e3


# ---------------------------------------------------------------------------
# the two kinds of run


def import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def timed_run(args, golden: dict, workdir) -> tuple[dict, PassLog, dict]:
    """Untraced end-to-end run."""
    setups = [setup_sample(args.workload, args.seed, workdir)
              for _ in range(SETUP_SAMPLES)]
    checker = Checker(golden["digests"])
    warm = PassLog([], [])
    if args.workload == "cli":
        # each call is already a fresh interpreter; set-up wrote its files
        peaks: list = []
        ops = cli_subprocess_ops(args.seed, workdir, peaks)
        log, passes, reference = run_for(ops, checker, args.seconds)
        peak_kib = max(peaks)
    else:
        workloads = import_workloads()
        ops = workloads.build(args.workload, args.seed, golden["pools"], workdir)
        warm = run_pass(ops, checker)  # fills caches, runs the self-checks
        log, passes, reference = run_for(ops, checker, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = latency_metrics(log, reference.scaled)
    raw = latency_metrics(log, log.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "peak_rss_mb": peak_kib / 1024.0,
    }
    warm.merge(log)
    info = {"passes": passes, "ops_per_pass": len(ops), "setup_samples": setups,
            "tail_percentile": stats["tail_percentile"], "timed_ops": stats["ops"],
            "raw": {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
            "reference_kernel_s": reference.kernel_s,
            "op_keys": [op.key for op in ops], "latencies": log.latencies,
            "scaled_latencies": reference.scaled}
    return metrics, warm, info


def baseline_ops(workloads) -> list:
    """The ROADMAP baseline rows that run in process, as checked ops."""
    zs, zl = workloads.zs, workloads.zl
    fam = zs.Family("fibonacci")
    sub = fam.substitution()
    seeds = zs.seed_sets(fam, sub)
    cert = zs.certify(sub, fam, "a")
    span = range(cert.threshold, cert.threshold + 201)
    ops = [Op(f"baseline check_empirical fibonacci w=a H={h}",
              lambda h=h: zs.check_empirical(sub, seeds, "a", h),
              lambda table: table.to_report())
           for h in (20, 40, 80)]
    ops.append(Op("baseline language_of_length fibonacci n=20",
                  lambda: zl.language_of_length(sub, 20),
                  lambda words: "\n".join(words)))
    for deep in (True, False):
        ops.append(Op(f"baseline verify fibonacci w=a span=200 deep={deep}",
                      lambda deep=deep: zs.verify_certificate(cert, span, deep=deep),
                      lambda outcome: workloads.outcome_text(cert, outcome)))
    return ops


def traced_run(args, golden: dict, workdir) -> tuple[dict, PassLog, dict]:
    """Per-layer run: untraced passes, then as many passes traced."""
    interpreter, cli_import = (
        statistics.median([child_wall_ms(code, workdir)
                           for _ in range(CLI_START_SAMPLES)])
        for code in ("pass", "import zeckmix.cli"))
    workloads = import_workloads()
    import tracer as tracing

    tracer = tracing.Tracer()
    checker = Checker(golden["digests"], quiet=tracer.paused)
    log = PassLog([], [])
    cli_ops = workloads.build("cli", args.seed, golden["pools"], workdir)
    ops = (cli_ops if args.workload == "cli" else
           workloads.build(args.workload, args.seed, golden["pools"], workdir))
    fib = ("fibonacci", ())
    probe = ([] if args.workload == "cli" else cli_ops) + [
        workloads.sweep_op(fib, workloads.make_scheme(fib))]

    # untraced: warm-up (runs the self-checks), the CLI in process, then
    # the workload for half the run
    log.merge(run_pass(probe, checker))
    log.merge(run_pass(ops, checker))
    cli_log = run_pass(cli_ops, checker)
    log.merge(cli_log)
    untraced, passes, _ = run_for(ops, checker, args.seconds / 2)
    log.merge(untraced)

    traced = PassLog([], [])
    with tracer.installed():
        tracer.active = True
        for _ in range(passes):
            traced.merge(run_pass(ops, checker))
        tracer.set_section("probe")
        log.merge(run_pass(probe, checker))
        tracer.active = False
    log.merge(traced)

    cli_call = [op for op in cli_subprocess_ops(args.seed, workdir, [])
                if op.key == BASELINE_CLI_CALL]
    row_log = run_pass(baseline_ops(workloads) + cli_call, checker)
    log.merge(row_log)

    sections = ("workload", "probe")
    layers = tracer.layer_metrics(sections)
    shares_all = tracer.self_shares(sections)
    shares_workload = tracer.self_shares(("workload",))
    metrics = {name: layers[name] for name in COUNT_METRICS}
    metrics.update({f"{layer}.self_s": layers[f"{layer}.self_s"]
                    for layer in SELF_TIME_LAYERS})
    for name in ("language.pattern_witness.hit_ratio",
                 "semimixing.check_empirical.witnessed_ratio"):
        metrics[name] = layers[name]
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = sum(
            v for k, v in shares_all.items() if k == layer or k.startswith(layer + "."))
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = cli_import - interpreter
    metrics["cli.main_ms"] = statistics.median(cli_log.latencies) * 1e3
    traced_s, untraced_s = sum(traced.latencies), sum(untraced.latencies)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.coverage"] = tracer.top_level_s("workload") / traced_s
    *row_s, cli_call_s = row_log.latencies
    for (name, _), seconds in zip(BASELINE_ROWS, row_s):
        metrics[name] = seconds
    metrics["baseline.import_zeckmix_ms"] = import_ms(workdir)
    metrics["baseline.cli_call_ms"] = cli_call_s * 1e3

    info = {
        "passes": passes, "ops_per_pass": len(ops),
        "workload_self_shares": shares_workload,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        "spans": tracer.spans,
    }
    return metrics, log, info


# ---------------------------------------------------------------------------
# output


def report(args, env, metrics, units, log, info) -> dict:
    failed = len(log.failures)
    print(f"zbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={info['passes']} "
          f"ops_per_pass={info['ops_per_pass']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = ""
        if name in info.get("raw", {}):
            note = f"  (at reference speed; raw {info['raw'][name]:.6g})"
        if name == "op_tail_ms":
            note += (f"  (p{info['tail_percentile']:g} of {info['timed_ops']} "
                     f"timed ops)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"  {name:44s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_frac':44s} {failed / log.attempted:14.6g} ratio"
          f"  ({failed} of {log.attempted} ops failed)")
    if "workload_self_shares" in info:
        top = sorted(info["workload_self_shares"].items(), key=lambda kv: -kv[1])
        print("workload self-time shares: " + ", ".join(
            f"{layer}={share:.3f}" for layer, share in top if share >= 0.005))
    for key, error in log.failures[:FAILURES_SHOWN]:
        print(f"FAILED {key}: {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zeckmix" / "__init__.py").is_file():
        print(f"error: no zeckmix sources under {SRC}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    golden = load_golden()
    env = environment_stamp()
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, log, info = run(args, golden, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    units = per_layer_units() if args.trace else dict(END_TO_END)
    result = report(args, env, metrics, units, log, info)
    OUT_ROOT.mkdir(exist_ok=True)
    out_path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "info": info,
                   "failures": log.failures}, fh)
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
