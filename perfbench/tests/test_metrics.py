import json
import os
import re

import pytest

import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _layer_metric_names():
    trace = tracer.Tracer()
    trace.spans = [["cli.main", None, 0.0, 1.0]]
    return set(trace.metrics()) | {"output.bytes_written"}


def test_metric_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += sorted(_layer_metric_names()) + [n for n, _ in run.END_TO_END]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_spec_lists_exactly_the_reported_metrics():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"] for m in spec["per_layer"]} == _layer_metric_names()
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS + run.EXTRA_WORKLOADS) == set(workloads.WORKLOADS)


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    """Median times, scaled by REFERENCE_S over the run's mean probe time."""
    ref = run.speed.REFERENCE_S

    def fake_worker(workload, seed, trace, setup_only, timeout):
        if setup_only:
            return {"setup_s": 1.0}
        return {"setup_s": 3.0, "run_s": 8.0, "probe_s": [1.5 * ref, 2.5 * ref],
                "peak_rss_mb": 100.0, "problems": [], "environment": {},
                "config": "", "sifs": []}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    result, record = run.run_workload("plate-sif", 0, 0.0, 0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # one measured worker (setup 3.0) and four set-up-only workers (1.0);
    # the probes ran at half the reference speed
    assert record["unscaled_medians_s"] == {"run_s": 8.0, "setup_s": 1.0}
    assert metrics == pytest.approx({"run_s": 4.0, "setup_s": 0.5,
                                     "peak_rss_mb": 100.0})


def test_self_time_metrics_cover_every_span():
    covered = {n for names in tracer.SELF_TIME_METRICS.values() for n in names}
    assert covered == {span for _, _, span in tracer.SITES} | {tracer.ROOT}
