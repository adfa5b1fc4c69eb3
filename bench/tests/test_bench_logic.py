"""The benchmark's own logic: the tail rule, span self times, compare verdicts."""

import json
from pathlib import Path

import pytest

import benchstats
import compare
import spans


def test_tail_is_maximum_below_twenty_samples():
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert benchstats.tail(list(range(19))) == (18, 100.0)


def test_tail_has_ten_samples_beyond_it():
    for n in (20, 37, 100, 1000):
        xs = list(range(n))
        value, pct = benchstats.tail(xs[::-1])
        assert sum(x > value for x in xs) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        benchstats.tail([])


def span(name, start, end, parent, attrs=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0,
            "attrs": attrs or {}}


def test_self_time_subtracts_direct_children():
    s = [span("op", 0.0, 10.0, None),
         span("a", 1.0, 5.0, 0), span("b", 2.0, 3.0, 1),
         span("c", 6.0, 9.0, 0), span("d", 7.0, 8.0, 3)]
    assert spans.self_times(s) == pytest.approx([3.0, 3.0, 1.0, 2.0, 1.0])
    assert sum(spans.self_times(s)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    s = [span("op", 0.0, 10.0, None), span("x", 1.0, 4.0, 0), span("y", 3.0, 6.0, 0),
         span("z", 9.0, 12.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_layer_metrics_on_two_ops():
    s = [span("op", 0.0, 4.0, None),
         span("studies.run_study", 0.0, 4.0, 0),
         span("eigensys.eigensystem_cached", 0.0, 3.0, 1),
         span("eigensys.nystrom_decompose", 1.0, 3.0, 2),
         span("op", 10.0, 16.0, None),
         span("studies.run_study", 10.0, 15.0, 4),
         span("eigensys.eigensystem_cached", 10.0, 10.5, 5),
         span("pointproc.simulate_hawkes", 11.0, 15.0, 5, {"events": 400})]
    for i, sp in enumerate(s):
        sp["op"] = 0 if i < 4 else 1
    m = spans.layer_metrics(s)
    assert m["op.s"] == pytest.approx(5.0)
    assert m["op.unattributed_pct"] == pytest.approx(10.0)
    assert m["studies.run_study.pct"] == pytest.approx(90.0)
    assert m["studies.run_study.self_pct"] == pytest.approx(100.0 * 1.5 / 10.0)
    assert m["eigensys.eigensystem_cached.calls"] == 1.0
    assert m["eigensys.cache_lookups"] == 1.0
    assert m["eigensys.cache_hit_pct"] == pytest.approx(50.0)
    assert m["pointproc.simulate_hawkes.events"] == 200.0
    assert m["pointproc.simulate_hawkes.events_per_s"] == pytest.approx(100.0)
    assert m["pointproc.simulate_hawkes.s"] == pytest.approx(2.0)
    assert m["kernels.SmoothedKernel.calls"] == 0.0
    assert m["kernels.SmoothedKernel.s"] == 0.0
    spec = json.loads((Path(compare.ROOT) / "BENCHMARK.json").read_text())
    names = {x["name"] for x in spec["per_layer"]}
    assert names - {"proc.cpu_util", "trace.overhead_pct"} == set(m)


def test_install_patches_each_caller_and_restores():
    from eventspec import pointproc, studies
    original = pointproc.simulate_poisson
    tracer = spans.Tracer()
    tracer.op = 0
    restore = spans.install(tracer)
    try:
        assert studies.simulate_poisson is pointproc.simulate_poisson
        assert studies.simulate_poisson is not original
        op = tracer.begin(spans.OP)
        studies.simulate_poisson([1.0], 10.0, seed=1)
        tracer.end(op)
    finally:
        restore()
    assert studies.simulate_poisson is original
    assert [s["name"] for s in tracer.spans] == [spans.OP, "pointproc.simulate_poisson"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["attrs"]["events"] > 0


def verdict(parent, change, bound=0.1, better="lower"):
    return compare.verdict(parent, change, list(zip(parent, change)), bound, better)


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


def test_verdict_same_within_bound():
    assert verdict(BASE, [x * 1.02 for x in BASE[::-1]]) == "same"


def test_verdict_better_needs_wins_and_gap():
    assert verdict(BASE, [x * 0.8 for x in BASE]) == "better"
    assert verdict(BASE, [x * 1.25 for x in BASE], better="higher") == "better"


def test_verdict_worse_beyond_bound():
    assert verdict(BASE, [x * 1.3 for x in BASE[::-1]]) == "worse"
    assert verdict(BASE, [x * 1.08 for x in BASE]) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(BASE, noisy) == "unresolved"
    assert verdict(noisy, [x * 0.97 for x in noisy[::-1]]) == "unresolved"


def test_verdict_every_change_run_better_overrides_spread():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(noisy, [x / 4 for x in noisy], bound=0.05) == "better"


def test_verdict_needs_ten_pairs():
    assert verdict(BASE[:9], BASE[:9]) == "too few pairs"


def test_verdict_refuses_a_gain_bought_with_failures():
    faster = [x * 0.5 for x in BASE]
    pairs = list(zip(BASE, faster))
    assert compare.verdict(BASE, faster, pairs, 0.1, "lower", 0.0, 0.0) == "better"
    assert compare.verdict(BASE, faster, pairs, 0.1, "lower", 0.0, 0.05) == "more failures"
    assert compare.verdict(BASE, faster, pairs, 0.1, "lower", 0.05, 0.05) == "better"


def run_record(seed, value, attempted=10, failed=0):
    return json.dumps({"workload": "w", "seed": seed, "trace": 0, "result": {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {"op_p50_s": {"value": value, "unit": "s"}}}})


def test_compare_reads_failures_from_the_result_sets(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text("\n".join(run_record(s, BASE[s]) for s in range(10)) + "\n")
    change.write_text("\n".join(run_record(s, BASE[s] * 0.5, failed=int(s == 3))
                                for s in range(10)) + "\n")
    spec = {"end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    [row] = compare.compare(compare.load(parent), compare.load(change), spec)
    assert row["change_fail"] == pytest.approx(0.01) and row["parent_fail"] == 0.0
    assert row["verdict"] == "more failures"
