"""Self-tests of the benchmark's own machinery.

    python3 -m pytest zbench -q
"""

import itertools
import json
import math
import sys

import pytest

from harness import (
    ROOT,
    SRC,
    TAIL_LADDER,
    TAIL_MIN_BEYOND,
    WORKLOADS,
    Checker,
    Op,
    cli_calls,
    digest,
    load_golden,
    percentile,
    run_pass,
    tail_percentile,
)

sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = load_golden()


# --- statistics -------------------------------------------------------------

def test_tail_percentile_leaves_ten_ops_beyond():
    for count in [*range(20, 400), 997, 1000, 1009, 1999, 2000, 9999, 10000]:
        pct = tail_percentile(count)
        latencies = list(range(count))
        beyond = sum(1 for x in latencies if x > percentile(latencies, pct))
        assert beyond >= TAIL_MIN_BEYOND, count
        higher = [p for p in TAIL_LADDER if p > pct]
        if higher:
            # the next rung up would leave fewer than ten
            assert count - math.ceil(higher[0] / 100 * count) < TAIL_MIN_BEYOND


def test_reference_scales_latencies_by_kernel_slowdown(monkeypatch):
    import harness

    kernel_s = iter([0.02, 0.04])  # 2x then 4x slower than nominal 0.01
    monkeypatch.setattr(harness, "REFERENCE_NOMINAL_S", 0.01)
    monkeypatch.setattr(harness, "reference_kernel_s", lambda: next(kernel_s))
    reference = harness.Reference()
    for latency in (0.3, 0.6):
        reference.add(latency)
    reference.flush()
    assert reference.scaled == pytest.approx([0.1, 0.2])  # divided by 3
    assert reference.kernel_s == [0.02, 0.04]


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0


# --- tracing ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.active = True

    def inner():
        clock.now += 30

    inner = tracer._wrap("numeration.scheme_build", inner)

    def outer():
        clock.now += 10
        inner()
        inner()
        clock.now += 5

    tracer._wrap("semimixing.certify", outer)()
    layers = tracer.layer_metrics(("workload",))
    assert layers["semimixing.certify.self_s"] * 1e9 == pytest.approx(15)
    assert layers["numeration.scheme_build.self_s"] * 1e9 == pytest.approx(60)
    assert layers["numeration.scheme_build.calls"] == 2
    assert tracer.top_level_s("workload") * 1e9 == pytest.approx(75)
    spans = {span[0]: span for span in tracer.spans}
    outer_span = [s for s in tracer.spans if s[2] == "semimixing.certify"][0]
    inner_spans = [s for s in tracer.spans if s[2] == "numeration.scheme_build"]
    assert outer_span[1] == -1
    assert all(s[1] == outer_span[0] for s in inner_spans)
    assert len(spans) == 3


def test_wrappers_sit_where_callers_look_and_are_removed():
    from zeckmix import semimixing as zs

    original = zs.pattern_witness
    tracer = tracing.Tracer()
    fam = zs.Family("fibonacci")
    sub = fam.substitution()
    seeds = zs.seed_sets(fam, sub)
    with tracer.installed():
        assert zs.pattern_witness is not original
        tracer.active = True
        table = zs.check_empirical(sub, seeds, "a", 5)
        tracer.active = False
    assert zs.pattern_witness is original
    layers = tracer.layer_metrics(("workload",))
    # one top-level call; the library's own calls are nested under it
    assert layers["semimixing.check_empirical.calls"] == 1
    assert layers["language.pattern_witness.calls"] >= 6
    assert layers["semimixing.check_empirical.gaps"] == len(table.entries)
    assert tracer.top_level_s("workload") > 0


# --- correctness gate -------------------------------------------------------

def test_corrupted_golden_entry_counts_as_failed_op():
    ops = [op for op in workloads.build("survey", 0, GOLDEN["pools"], None)
           if "language_of_length fibonacci" in op.key]
    assert ops
    assert run_pass(ops, Checker(GOLDEN["digests"])).failures == []
    corrupted = dict(GOLDEN["digests"])
    corrupted[ops[0].key] = digest("not the output")
    log = run_pass(ops, Checker(corrupted))
    assert log.attempted == len(ops)
    assert [key for key, _ in log.failures] == [ops[0].key]


def test_missing_digest_and_raising_op_fail():
    def boom():
        raise RuntimeError("boom")

    ops = [Op("unknown", lambda: "x", str), Op("raises", boom, str)]
    log = run_pass(ops, Checker({"raises": digest("x")}))
    assert log.attempted == 2
    assert [key for key, _ in log.failures] == ["unknown", "raises"]


def test_failed_selfcheck_fails_op():
    op = Op("k", lambda: "x", str, selfcheck=lambda result: "wrong")
    log = run_pass([op], Checker({"k": digest("x")}))
    assert log.failures and "self-check" in log.failures[0][1]


# --- seeds ------------------------------------------------------------------

def _keys(workload, seed, workdir, full=False):
    ops = workloads.build(workload, seed, GOLDEN["pools"], workdir, full=full)
    return ([op.key for op in ops if not op.drawn],
            [op.key for op in ops if op.drawn])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_only_drawn_inputs(workload, tmp_path):
    fixed_1, drawn_1 = _keys(workload, 1, tmp_path)
    assert (fixed_1, drawn_1) == _keys(workload, 1, tmp_path)
    pool = set(_keys(workload, 1, tmp_path, full=True)[1])
    assert drawn_1 and set(drawn_1) <= pool
    draws = {tuple(drawn_1)}
    for seed in range(2, 7):
        fixed, drawn = _keys(workload, seed, tmp_path)
        assert fixed == fixed_1
        assert set(drawn) <= pool
        draws.add(tuple(drawn))
    assert len(draws) > 1


def test_golden_covers_every_pool_member(tmp_path):
    keys = set(GOLDEN["digests"])
    for workload in WORKLOADS:
        fixed, drawn = _keys(workload, 0, tmp_path, full=True)
        assert set(fixed) | set(drawn) <= keys, workload
    assert {key for key, _, _ in cli_calls(0, full=True)} <= keys


# --- the contract -----------------------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in itertools.chain(spec["end_to_end"], spec["per_layer"])]
    assert len(names) == len(set(names))
