"""Self-checks of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection: these
checks exercise the benchmark, not permstab.
"""

from __future__ import annotations

import json

import pytest

import workloads
from run import END_TO_END, PER_LAYER, item_latencies
from tracer import Span, Tracer, layer_metrics, self_times

SMOKE_SEED = 3


def smoke(name, tmp_path):
    if name == "flagship_grid":
        return workloads.FlagshipGrid(SMOKE_SEED, tmp_path, primes=(5, 7, 13))
    if name == "kazhdan_sl2":
        return workloads.KazhdanSL2(SMOKE_SEED, tmp_path, specs=("sl2:11", "sl2:13", "cyclic:5", "cyclic:12"))
    wl = workloads.RoundingMix(SMOKE_SEED, tmp_path)
    wl.items = wl.items[: len(workloads.ROUNDING_KINDS)]  # one of each kind
    return wl


def traced_pass(wl):
    tracer = Tracer()
    with tracer.install():
        result = wl.run_pass(0, tracer)
    return tracer, result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_and_reference(name, tmp_path):
    wl = smoke(name, tmp_path)
    plain = wl.run_pass(0)
    tracer, traced = traced_pass(wl)
    assert not plain.errors and not traced.errors
    assert traced.outputs == plain.outputs
    for result in (plain, traced):
        chk = wl.check(result)
        assert chk.attempted > 0 and chk.failures == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_spans_cover_the_pass(name, tmp_path):
    wl = smoke(name, tmp_path)
    first, result = traced_pass(wl)
    second, _ = traced_pass(wl)
    assert first.counts == second.counts
    assert sum(first.counts.values()) > 0
    item_s = sum(result.item_s)
    coverage = layer_metrics(first, item_s)["trace.coverage"]
    assert coverage >= 0.95, f"spans cover {coverage:.3f} of {item_s:.3f}s"


def test_install_restores_every_binding(tmp_path):
    import permstab
    from permstab import groups, perms, rounding

    before = (perms.compose, rounding.compose, permstab.compose, groups.FinGroup.__dict__["mul"])
    with Tracer().install():
        assert rounding.compose is not before[1] and perms.compose is rounding.compose
    assert (perms.compose, rounding.compose, permstab.compose, groups.FinGroup.__dict__["mul"]) == before


def test_self_time_subtracts_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, "i"),
        Span("a", 1.0, 4.0, 0, "i"),
        Span("b", 5.0, 9.0, 0, "i"),
        Span("c", 6.0, 7.0, 2, "i"),
        Span("a", 11.0, 12.0, None, "j"),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    tracer = Tracer()
    tracer.spans = spans
    metrics = layer_metrics(tracer, wall_s=12.0)
    assert metrics["root.s"] == 3.0 and metrics["a.s"] == 4.0
    assert metrics["trace.coverage"] == 11.0 / 12.0


def test_item_latencies_scale_each_item_and_take_its_median():
    passes = [
        workloads.PassResult(0.0, [3.0, 1.0], [("a", None), ("b", None)], [], item_slowness=[1.0, 1.0]),
        workloads.PassResult(0.0, [4.0, 8.0], [("b", None), ("a", None)], [], item_slowness=[2.0, 4.0]),
        workloads.PassResult(0.0, [9.0, 9.0], [("a", None), ("b", None)], [], item_slowness=[1.0, 1.0]),
    ]
    assert item_latencies(passes) == pytest.approx([3.0, 2.0])


def test_changed_output_is_a_failed_item(tmp_path):
    wl = smoke("rounding_mix", tmp_path)
    result = wl.run_pass(0)
    key, fp = result.outputs[0]
    result.outputs[0] = (key, fp + " tampered")
    assert len(wl.check(result).failures) == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
