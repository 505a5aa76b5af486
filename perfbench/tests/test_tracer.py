import importlib
from dataclasses import replace

import numpy as np
import pytest

from xfem2d import Mesh, benchmarks, dump_config, write_mesh
from xfem2d.cli import main as cli_main
from xfem2d.config import OutputSpec
from xfem2d.cracks import CrackPath
from xfem2d.driver import LoadSchedule, PropagationParams
from xfem2d.meshgen import uniform_rect

import tracer


def _sites():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _ in tracer.SITES}


def test_self_time_of_nested_spans():
    spans = [
        ("cli.main", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 5.0, 9.0),
        ("c", 2, 6.0, 7.0),
        ("a", 0, 9.5, 10.0),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({"cli.main": 2.5, "a": 3.5, "b": 3.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_length_merges_overlaps_and_clips():
    assert tracer.covered_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert tracer.covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert tracer.covered_length([(2.0, 3.0), (2.5, 2.7)], 0.0, 10.0) == 1.0
    assert tracer.covered_length([], 0.0, 10.0) == 0.0


@pytest.fixture
def small_run(tmp_path):
    """Config files of a two-step growth run on a 24 x 24 plate."""
    grid = uniform_rect(1.0, 1.0, 24, 24)
    tags = dict(grid.boundary_tags, pin=np.array([0]))
    config = replace(
        benchmarks.many_cracks_config(),
        mesh=None, mesh_path="mesh.txt",
        cracks=(CrackPath(vertices=np.array([[0.35, 0.51], [0.65, 0.51]]),
                          id=0),),
        propagation=PropagationParams(delta_a=0.03),
        schedule=LoadSchedule.uniform(2),
        outputs=OutputSpec(directory="out"),
    )
    write_mesh(Mesh(nodes=grid.nodes, elements=grid.elements,
                    boundary_tags=tags), tmp_path / "mesh.txt")
    dump_config(config, tmp_path / "run.cfg")
    return ["propagate", "--config", str(tmp_path / "run.cfg"),
            "--out", str(tmp_path / "out")]


def test_traced_run_restores_every_site(small_run, capsys):
    before = _sites()
    trace = tracer.Tracer()
    with trace.installed():
        assert all(_sites()[key] is not fn for key, fn in before.items())
        assert trace.call(cli_main, small_run) == 0
    assert _sites() == before
    assert all(_sites()[key] is fn for key, fn in before.items())
    assert trace.unrestored() == [] and trace.missing == []

    metrics = trace.metrics()
    total = sum(metrics[m] for m in tracer.SELF_TIME_METRICS)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["assembly.solve_calls"] == 2
    assert metrics["driver.setup_problem_calls"] == 3
    assert metrics["mesh.read_calls"] == 3
    assert metrics["fracture.extract_calls"] == 4
    assert metrics["enrichment.attempts_per_classify"] >= 1.0
    assert metrics["trace.overhead_s"] > 0.0
    assert len(trace.sifs) == 4

    spans = len(trace.spans)
    assert cli_main(small_run) == 0
    assert len(trace.spans) == spans


def test_sites_restored_when_the_call_raises():
    before = _sites()
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with trace.installed():
            raise RuntimeError("boom")
    assert all(_sites()[key] is fn for key, fn in before.items())
    assert trace.unrestored() == []


def test_every_site_binds_the_public_function():
    import xfem2d

    for module, attr, span in tracer.SITES:
        assert getattr(importlib.import_module(module), attr) is getattr(
            xfem2d, attr), f"{module}.{attr}"
        assert span.endswith("." + attr)
