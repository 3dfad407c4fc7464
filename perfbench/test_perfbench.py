"""Tests of the benchmark's own code (not of gravqm).

Run: python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import calibration
import run
import tracing
import worker

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared(kind):
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_metric_names_match_contract_and_emitted_metrics():
    for kind, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = _declared(kind)
        assert declared == emitted
        for name in declared:
            assert NAME.fullmatch(name), name


def test_forced_gate_failure_is_counted_and_later_operations_still_run():
    ran = []

    def op(name, values, failures=(), raises=False):
        def body():
            ran.append(name)
            if raises:
                raise RuntimeError("boom")
            return values, list(failures)

        return SimpleNamespace(name=name, run=body)

    ops = [
        op("gate-fails", {"dynamics.frame_mismatch": 2e-6}, ["mismatch 2e-06 > 1e-6"]),
        op("raises", {}, raises=True),
        op("passes", {"dynamics.frame_mismatch": 5e-7, "cli.calls": 1}),
    ]
    raw = worker.run_passes(ops, seconds=0.0, factor=lambda: 1.0)
    assert ran == ["gate-fails", "raises", "passes"]
    assert (raw["attempted"], raw["failed"]) == (3, 2)
    assert len(raw["failures"]) == 2 and "boom" in raw["failures"][1]
    assert raw["margins"] == {"dynamics.frame_mismatch": 2e-6}  # the worst case
    assert raw["passes"][0]["counts"] == {"cli.calls": 1}


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(100, 0, -1))) == (0.9, 90)
    assert run.tail_percentile(list(range(1, 46))) == (35 / 45, 35)
    assert run.tail_percentile(list(range(1, 12))) == (1 / 11, 1)
    assert run.tail_percentile(list(range(1, 11))) is None


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.005)

    tracer.wrap("outer", outer_body)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["inner"] >= 0.04
    assert 0.005 <= tracer.self_s["outer"] < 0.02


def _traced_pass(calls):
    return {"latencies_s": [1.0], "factors": [1.2],
            "counts": {"cli.calls": 15, "cli.exit0": 14},
            "trace": {"calls": {"airy.airy_ai": calls}, "self_s": {"airy.airy_ai": 0.5},
                      "steps": 0, "point_steps": 0}}


def test_per_layer_counts_come_from_one_pass():
    raw = {"passes": [_traced_pass(10), _traced_pass(10)], "margins": {}}
    values = run.per_layer_metrics(raw, {})
    assert set(values) == set(run.PER_LAYER)
    assert (values["cli.calls"], values["cli.exit0"], values["cli.exit2"]) == (15, 14, 0)
    assert values["airy.airy_ai.calls"] == 10
    assert values["airy.airy_ai.us_per_call"] == pytest.approx(5e4)


def test_timed_metrics_are_scaled_by_the_host_factor():
    # the first pass ran on a host at half the reference speed
    raw = {"passes": [{"latencies_s": [1.0, 3.0], "factors": [2.0, 2.0]},
                      {"latencies_s": [0.5, 1.5], "factors": [1.0, 1.0]}],
           "peak_rss_mb": 80.0}
    metrics = run.end_to_end_metrics(raw, [(0.8, 2.0), (0.4, 1.0), (0.5, 2.0)])
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["latency_ms.p50"] == pytest.approx(1000.0)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert run.raw_metrics(raw, [(0.8, 2.0)])["raw_wall_s"] == pytest.approx(3.0)


def _ops(n):
    return [SimpleNamespace(name=f"op{i}", run=lambda: ({}, [])) for i in range(n)]


def test_each_operation_gets_the_mean_factor_around_it():
    marks = iter([1.0, 2.0, 4.0, 8.0, 16.0])
    raw = worker.run_passes(_ops(3), seconds=0.0, factor=lambda: next(marks))
    assert raw["passes"][0]["factors"] == [1.5, 3.0, 6.0]


def test_counts_that_differ_between_passes_are_refused():
    raw = {"passes": [_traced_pass(10), _traced_pass(11)], "margins": {}}
    with pytest.raises(run.BenchError):
        run.per_layer_metrics(raw, {})


class _SlowHost:
    """Stands in for a KernelHost: each sample takes 5 ms and reads 1.5."""

    def factor(self, runs=3):
        time.sleep(0.005)
        return 1.5


def test_sampler_times_the_kernel_inside_an_operation_and_is_not_billed():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return {}, []

    raw = worker.run_passes([SimpleNamespace(name="busy", run=busy)], seconds=0.0,
                            factor=lambda: 1.0, sampler=calibration.KernelSampler(_SlowHost(), 0.05))
    assert 0.2 < raw["passes"][0]["latencies_s"][0] < 0.3
    assert raw["passes"][0]["factors"][0] != 1.0  # the samples count, not only the ends


def test_sampler_time_is_billed_to_no_traced_layer():
    tracer = tracing.Tracer()
    sampler = calibration.KernelSampler(_SlowHost(), 0.02, tracer.exclude)

    def layer():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    with sampler:
        tracer.wrap("layer", layer)()
    assert sampler.factors
    assert tracer.self_s["layer"] == pytest.approx(0.2 - sampler.spent, abs=0.01)


def test_kernel_host_answers_and_is_stopped():
    with calibration.KernelHost("python") as host:
        assert host.factor() > 0.0
        assert host.factor(1) > 0.0
    assert host._proc.returncode == 0
