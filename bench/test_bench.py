"""Tests of the benchmark's own checkers and tracer on tiny cases.

    python3 -m pytest bench -q
"""

import itertools
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles as orc  # noqa: E402
import pytest  # noqa: E402
import sumprod  # noqa: E402
import sumprod.chains  # noqa: E402
import sumprod.lemmas  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_burnside_matches_orbit_enumeration(p):
    for n in range(1, p + 1):
        assert orc.burnside_classes(p, n) == orc.orbit_classes_brute(p, n)


def test_oracles_on_hand_worked_values():
    assert orc.sum_set({1, 2}, {3, 5}, 7) == {0, 4, 5, 6}
    assert orc.sum_set({1, 2}, {3, 5}, 7, -1) == {3, 4, 5, 6}
    assert orc.product_set({1, 2}, {3, 4}, 13) == {3, 4, 6, 8}
    assert orc.ratio_set({0, 1}, 7) == {0, 1, 6}
    assert orc.rep_list({1, 2}, {1, 2}, 5, -1) == [2, 1, 0, 0, 1]
    # r_{Y-Y} = {0: 2, 1: 1, 4: 1}, so E+ = 4 + 1 + 1
    assert orc.additive_energy({0, 1}, {0, 1}, 5) == 6
    # {1, 2, 4} is a subgroup of F_7*: each of its 3 ratios arises 3 times
    assert orc.multiplicative_energy({1, 2, 4}, {1, 2, 4}, 7) == 27
    # 0*Z = {0}: only the pair (0, 0) meets, in the single element 0
    assert orc.multiplicative_energy({0}, {0, 1}, 5) == 1
    pivot, s_sum, energy, buckets, lhs = orc.chang({1, 2, 4}, {1, 2, 4}, 7)
    assert (pivot, s_sum, energy, buckets, lhs) == (1, 9, 27, {2: {1, 2, 4}}, 16**2 * 27)
    # every 2-set of F_7 has |A+A| = 3 >= |AA|; 4 dilation classes
    assert orc.extremal_brute(7, 2) == (3, 21)
    assert orc.burnside_classes(7, 2) == 4
    assert orc.ratio_threshold_brute(7) == 2
    assert orc.ratio_threshold_brute(11) == 3
    # 5/3 = 4, so the dilates of {3, 5} are the sets {a, 4a}; {1, 2} is least
    assert orc.canonical_mask({3, 5}, 7) == 0b110


def test_self_times_of_nested_spans():
    spans = [
        (0, "root", 0, 100, None),
        (1, "child", 10, 40, 0),
        (2, "grandchild", 15, 25, 1),
        (3, "child", 50, 90, 0),
    ]
    st = self_times(spans)
    assert st == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(st.values()) == 100  # self times partition the root span


def test_tracer_wraps_every_binding_and_accounts_for_wall_time():
    original = sumprod.lemmas.chang_decompose
    tracer = Tracer()
    tracer.install()
    try:
        assert sumprod.chains.chang_decompose is sumprod.lemmas.chang_decompose
        assert sumprod.chains.chang_decompose.__wrapped__ is original
        assert sumprod.search.dilate.__wrapped__ is sumprod.core.dilate.__wrapped__
        A = sumprod.make_field(7).fset([1, 2, 3])
        tracer.begin_op()
        t0 = time.perf_counter_ns()
        sumprod.chain_small(A, sumprod.PLUS)
        sumprod.chain_small(A, sumprod.PLUS)
        tracer.end_op(time.perf_counter_ns() - t0)
    finally:
        tracer.uninstall()
    assert sumprod.chains.chang_decompose is original
    assert sumprod.search.dilate is sumprod.core.dilate
    m = tracer.metrics(0.0, 0.0)
    # (a comparison with the overhead would depend on the machine's load;
    # see test_uncovered_time_is_the_time_outside_every_span)
    assert m["trace.uncovered_s"][0] >= 0 and m["trace.overhead_s"][0] > 0
    assert m["chains.calls"][0] == 2
    assert m["lemmas.chang_decompose.calls"][0] == 2
    # the second, identical chain repeats every core call of the first
    assert 0 < m["core.unique_call_ratio"][0] <= 0.5
    assert m["lemmas.katz_shen_subset.submasks"][0] > 0
    assert m["chains.steps"][0] == 2 * 9


def test_uncovered_time_is_the_time_outside_every_span():
    """With a clock that ticks once per reading, every tick is accounted for."""
    ticks = itertools.count()
    clock = lambda: next(ticks)  # noqa: E731
    tracer = Tracer(clock)
    tracer.install()
    try:
        A = sumprod.make_field(7).fset([3, 5])
        tracer.begin_op()
        t0 = clock()  # 0
        sumprod.sumset(A, A)  # entered 1, start 2, end 3, bookkeeping done 4
        for _ in range(5):  # the caller's own code: ticks 5 to 9
            clock()
        sumprod.canonical_form(A)  # 10 to 13
        tracer.end_op(clock() - t0)  # 14
    finally:
        tracer.uninstall()
    assert tracer.self_ns["core.sumset"] == 1
    assert tracer.self_ns["search.canonical_form"] == 1
    assert tracer.self_ns["trace.overhead"] == 2 * 2
    # 0 -> 1, 4 -> 10 and 13 -> 14
    assert tracer.self_ns["trace.uncovered"] == 1 + 6 + 1
    # canonical_form compared the dilates by 2, ..., p - 1
    assert tracer.counts["search.canonical_form.dilates"] == 7 - 2


def test_katz_shen_submasks_are_counted_from_its_sumset_calls():
    F = sumprod.make_field(11)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        sumprod.katz_shen_subset(F.fset([1, 2, 3]), [F.fset([0, 4])], 0.5)
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    # one sumset for the denominator, one per submask of at least 1.5 elements
    assert tracer.counts["lemmas.katz_shen_subset.submasks"] == 1 + 4
    assert tracer.calls["core.sumset"] == 5


def test_reference_covers_the_workloads():
    ref = json.loads((BENCH / "reference.json").read_text())
    for p, n in workloads.GRID:
        assert f"{p},{n}" in ref["extremal"]
    for p in workloads.RATIO_SCAN_PRIMES:
        assert str(p) in ref["ratio_threshold"]
    assert ref["extremal"]["13,4"] == list(orc.extremal_brute(13, 4))
    assert ref["ratio_threshold"]["13"] == orc.ratio_threshold_brute(13)


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = Tracer().metrics(0.0, 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}


def test_calibration_samples_inside_operations_and_accounts_for_its_loops():
    import signal

    import run

    cal = run.Calibration()
    cal.start_in_op()
    try:
        t0 = time.thread_time_ns()
        x = 0
        while time.thread_time_ns() - t0 < 400_000_000:  # 0.4 s of CPU
            x += 1
    finally:
        cal.stop_in_op()
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert len(cal.samples) >= 2 and all(s > 0 for s in cal.samples)
    assert 0 < cal.spent_ns < 400_000_000
    cal.samples = [40.0, 60.0]
    assert cal.scale() == run.REFERENCE_MS / 50.0
