"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import math
from collections import Counter

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def data():
    return workloads.load_data()


# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert run.percentile(values, 50) == 500.0
    assert run.percentile(values, 99) == 990.0  # ten samples beyond
    assert run.percentile(values[:999], 99) == 989.0  # lowered to keep ten
    assert run.percentile(values[:100], 99) == 90.0


def test_percentile_never_below_the_median():
    assert run.percentile([3.0, 1.0, 2.0], 99) == 2.0
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 99) == 2.0
    assert run.percentile([7.0], 99) == 7.0


def test_one_loop_of_requests_supports_p99():
    total = sum(count for *_, count in workloads.STRATA)
    values = [float(v) for v in range(total)]
    assert run.percentile(values, 99) == values[math.ceil(0.99 * total) - 1]


# --------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    # name, start, end, parent, request, info
    spans = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 3.0, 0, 0, None],
        ["b", 4.0, 8.0, 0, 0, None],
        ["c", 5.0, 6.0, 2, 0, None],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert tracing.check_spans(spans) == []


def test_negative_self_time_is_reported():
    spans = [["root", 0.0, 1.0, None, 0, None], ["a", 0.0, 2.0, 0, 0, None]]
    assert "negative self time" in tracing.check_spans(spans)


def test_tracer_records_nesting_and_restores(monkeypatch):
    import types

    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", mod)
    originals = (mod.inner, mod.outer)
    tracer = tracing.Tracer()
    tracer.install({
        "outer": ([("fake_layer", "outer")], lambda a, r: r),
        "inner": ([("fake_layer", "inner")], None),
        "gone": ([("fake_layer", "no_such_function")], None),
    })
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert (mod.inner, mod.outer) == originals
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("outer", None, 4), ("inner", 0, None)]
    assert tracer.absent == {"gone"}


def test_missing_layer_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.absent.add("scan.two_gen")
    metrics = tracing.layer_metrics(tracer)
    assert metrics["scan.examined"] == "absent"
    assert metrics["scan.cand_per_s"] == "absent"
    assert metrics["hadamard.profile.calls"] == 0


# ------------------------------------------------ verify-cchm generator


def _kinds(requests):
    return Counter(kind for kind, _, _ in requests)


def test_same_seed_same_requests(data):
    assert workloads.build_requests(7, data) == workloads.build_requests(7, data)


def test_other_seed_other_requests_same_mix(data):
    one, two = workloads.build_requests(1, data), workloads.build_requests(2, data)
    assert one != two
    assert _kinds(one) == _kinds(two)


def test_generator_never_calls_the_program(data):
    # every layer hook, the scans included, records a span when called
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.build_requests(3, data)
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_requests_match_expected_results(data):
    requests = workloads.build_requests(11, data)
    by_kind = {}
    for req in requests:
        by_kind.setdefault(req[0], []).append(req)
    sample = [r for reqs in by_kind.values() for r in reqs[:3]]
    attempted, failed, wall, latencies = workloads.run_requests(sample)
    assert (attempted, failed) == (len(sample), 0)
    assert len(latencies) == attempted and wall > 0


def test_wrong_output_counts_as_failed(data):
    kind, call, expect = next(r for r in workloads.build_requests(5, data)
                              if r[0] == "verify_acc")
    assert workloads.request_ok(expect, workloads.run_request(call))
    assert not workloads.request_ok(expect, (0, "{}\n"))
    assert workloads.check_search("table6", 0, 0, "", data) == 24
