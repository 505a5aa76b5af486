"""Command-line interface: artifacts, exit codes, and error reporting."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import xfem2d.assembly
import xfem2d.benchmarks
import xfem2d.cli
import xfem2d.driver
import xfem2d.enrichment
from xfem2d.cli import main
from xfem2d.config import load_config
from xfem2d.driver import LoadSchedule, run_stationary, setup_problem
from xfem2d.mesh import Mesh, write_mesh
from xfem2d.meshgen import uniform_rect
from xfem2d.output import read_sif_csv

BASE_CONFIG = """\
[mesh]
path = plate.mesh

[material]
youngs_modulus = 200e9
poisson_ratio = 0.3

[crack]
vertices = 0.35 0.5 ; 0.65 0.5

[boundary bottom]
displacement = free 0
scaled = off

[boundary pin]
displacement = 0 free
scaled = off

[boundary top]
traction = 0 1e6

[enrichment]
tip_enrichment = on
"""

GROWTH_SECTIONS = """
[propagation]
delta_a = 0.05

[schedule]
load_factors = 0.5 1.0
"""


def write_case(tmp_path, extra=""):
    mesh = uniform_rect(1.0, 1.0, 21, 21)
    tags = dict(mesh.boundary_tags)
    tags["pin"] = np.array([0])
    write_mesh(Mesh(nodes=mesh.nodes, elements=mesh.elements,
                    boundary_tags=tags), tmp_path / "plate.mesh")
    path = tmp_path / "case.cfg"
    path.write_text(BASE_CONFIG + extra)
    return str(path)


class TestSolve:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        config = write_case(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", "--config", config, "--out", str(out)])
        assert code == 0
        assert (out / "sif_history.csv").is_file()
        assert (out / "cod_profiles.csv").is_file()
        assert (out / "field_dump.vtk").is_file()
        assert (out / "run_log.txt").is_file()
        stdout = capsys.readouterr().out
        assert "K_I" in stdout
        assert "crack 0 tip 0" in stdout
        assert "crack 0 tip 1" in stdout

    def test_sif_table_is_sane(self, tmp_path):
        config = write_case(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        rows = read_sif_csv(out / "sif_history.csv")
        assert len(rows) == 2
        exact = 1e6 * np.sqrt(np.pi * 0.15)
        for row in rows:
            assert row["K_I"] == pytest.approx(exact, rel=0.2)

    def test_tip_without_a_domain_is_reported(self, tmp_path, capsys):
        # the second crack lies inside one element: no domain around its
        # tips fits in it, and the first crack's SIFs are still reported
        config = write_case(tmp_path, "\n[crack 7]\nvertices = 0.51 0.21 ; 0.54 0.21\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "crack 0 tip 0: K_I" in stdout and "crack 0 tip 1: K_I" in stdout
        for tip in (0, 1):
            assert (f"crack 7 tip {tip}: unresolved -- domain of radius" in stdout)
        assert [(r["crack_id"], r["tip_id"]) for r in read_sif_csv(out / "sif_history.csv")] \
            == [(0, 0), (0, 1)]
        log = (out / "run_log.txt").read_text()
        assert "deactivated: crack 7 tip 1 -- domain of radius" in log

    def test_verbose_reports_stages(self, tmp_path, capsys):
        config = write_case(tmp_path)
        code = main(["solve", "--config", config,
                     "--out", str(tmp_path / "out"), "--verbose"])
        assert code == 0
        stderr = capsys.readouterr().err
        assert "[config]" in stderr
        assert "[mesh]" in stderr
        assert "[solve]" in stderr
        assert "[output]" in stderr

    def test_default_directory_from_config(self, tmp_path, capsys,
                                           monkeypatch):
        config = write_case(tmp_path, extra="\n[outputs]\n"
                                            "directory = results\n")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--config", config]) == 0
        assert (tmp_path / "results" / "sif_history.csv").is_file()

    def test_artifact_subset_respected(self, tmp_path):
        config = write_case(tmp_path, extra="\n[outputs]\n"
                                            "artifacts = sif_csv\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        assert (out / "sif_history.csv").is_file()
        assert not (out / "cod_profiles.csv").exists()
        assert not (out / "field_dump.vtk").exists()
        assert not (out / "run_log.txt").exists()


class TestPropagate:
    def test_growth_run_artifacts(self, tmp_path, capsys):
        config = write_case(tmp_path, extra=GROWTH_SECTIONS)
        out = tmp_path / "out"
        code = main(["propagate", "--config", config, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "steps solved: 2" in stdout
        assert "growth steps applied: 2" in stdout
        assert "stop: schedule exhausted" in stdout
        rows = read_sif_csv(out / "sif_history.csv")
        assert {row["step"] for row in rows} == {0, 1}
        log = (out / "run_log.txt").read_text()
        assert "step 0: load factor 0.5" in log
        assert "step 1: load factor 1" in log
        assert "extension: crack 0" in log

    def test_final_length_reported(self, tmp_path, capsys):
        config = write_case(tmp_path, extra=GROWTH_SECTIONS)
        out = tmp_path / "out"
        assert main(["propagate", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        # 0.3 initial plus two steps of growth at both tips.
        assert "crack 0: length 0.5" in stdout

    def test_mesh_read_once_and_steps_match_per_step_setup(self, tmp_path,
                                                            monkeypatch):
        growth = GROWTH_SECTIONS.replace("0.5 1.0", "0.4 0.7 1.0")
        config_path = write_case(tmp_path, extra=growth)
        reads = []
        read_mesh = xfem2d.driver.read_mesh

        def counted_read(path):
            reads.append(path)
            return read_mesh(path)

        histories = []
        run_propagation = xfem2d.cli.run_propagation

        def kept_run(config):
            histories.append(run_propagation(config))
            return histories[-1]

        monkeypatch.setattr(xfem2d.driver, "read_mesh", counted_read)
        monkeypatch.setattr(xfem2d.cli, "run_propagation", kept_run)
        out = tmp_path / "out"
        assert main(["propagate", "--config", config_path, "--out", str(out)]) == 0
        assert len(reads) == 1
        (history,) = histories
        assert len(history.steps) == 3

        # Reference: each step set up from scratch on a freshly read mesh.
        config = load_config(config_path)
        for rec in history.steps:
            problem = setup_problem(config, cracks=rec.cracks)
            step = dataclasses.replace(
                config, schedule=LoadSchedule((rec.load_factor,)))
            _, results = run_stationary(step, problem=problem)
            expected = {(r.crack_id, r.tip_id): r for r in results}
            assert rec.sifs
            for res in rec.sifs:
                ref = expected[(res.crack_id, res.tip_id)]
                assert (res.K_I, res.K_II) == (ref.K_I, ref.K_II)
        assert len(reads) == 1 + len(history.steps)

    def test_needs_propagation_sections(self, tmp_path, capsys):
        config = write_case(tmp_path)
        code = main(["propagate", "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[config]" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the arguments were checked")


class TestBenchmarkCommands:
    def test_converge_writes_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["converge", "--sizes", "0.181818,0.0952381", "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,energy_error,ki_error"
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(
            [2.0 / 11, 2.0 / 21])
        assert "fitted slope" in capsys.readouterr().out

    def test_sweep_writes_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep-table1", "--ratios", "2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("a_over_s,K_I_tip")
        assert len(lines) == 2 and lines[1].startswith("2,")

    @pytest.mark.parametrize("sizes, message", [
        ("0.048", "element size 0.048 does not make 2/h an odd whole number"),
        ("0.05,0.024", "element size 0.05 does not make 2/h an odd whole number"),
        ("0.181818,0.181818", "the convergence ladder needs at least two distinct element sizes"),
    ])
    def test_converge_rejects_sizes_before_any_solve(self, capsys, monkeypatch,
                                                      sizes, message):
        monkeypatch.setattr(xfem2d.benchmarks, "_ladder_rung", _no_solve)
        assert main(["converge", "--sizes", sizes]) == 1
        assert f"[config] {message}" in capsys.readouterr().err

    def test_sweep_rejects_unknown_ratio_before_any_solve(self, capsys, monkeypatch):
        monkeypatch.setattr(xfem2d.cli, "run_stationary", _no_solve)
        assert main(["sweep-table1", "--ratios", "12.5,3"]) == 1
        assert "[config] unknown refinement ratio 3" in capsys.readouterr().err


class TestArgumentHandling:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path)])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "usage:" in stderr
        assert "--config is required" in stderr

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["paint"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["solve", "--config", "x", "--loud"]) == 1
        assert "usage:" in capsys.readouterr().err


class TestErrorPaths:
    def test_config_file_missing(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "[config] cannot read configuration" in stderr

    def test_invalid_material_value(self, tmp_path, capsys):
        config = write_case(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG.replace("poisson_ratio = 0.3",
                                           "poisson_ratio = 0.7"))
        code = main(["solve", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "[config]" in stderr
        assert "Poisson" in stderr

    def test_contour_sample_count_is_rejected(self, tmp_path, capsys):
        config = write_case(tmp_path, extra="\n[contour]\nn_points = 128\n")
        code = main(["solve", "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "[config]" in stderr
        assert "line 26: unknown key 'n_points'" in stderr

    def test_dangling_boundary_tag(self, tmp_path, capsys):
        config = write_case(tmp_path, extra="\n[boundary lid]\nfixed = on\n")
        code = main(["solve", "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "[mesh]" in stderr
        assert "lid" in stderr

    @pytest.mark.parametrize("block, message", [
        ("element", "element 0 references node index outside 0..483"),
        ("boundary", "boundary 'bottom' references node index outside 0..483"),
    ])
    def test_index_past_int64_is_staged(self, tmp_path, capsys, block, message):
        config = write_case(tmp_path)
        lines = (tmp_path / "plate.mesh").read_text().splitlines()
        row = 2 + int(lines[1].split()[0]) if block == "element" else next(
            i for i, line in enumerate(lines) if line.startswith("boundary bottom")) + 1
        lines[row] = lines[row].rsplit(" ", 1)[0] + " 99999999999999999999"
        (tmp_path / "plate.mesh").write_text("\n".join(lines) + "\n")
        code = main(["solve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        stderr = capsys.readouterr().err
        assert f"[mesh] line {row + 1}: {message}" in stderr
        assert "Traceback" not in stderr

    def test_unremedied_degeneracy_exits_one(self, tmp_path, capsys,
                                             monkeypatch):
        def always_degenerate(mesh, cracks):
            raise xfem2d.enrichment.CrackMeshDegeneracyError(
                "crack/mesh coincidence: crack 0 vertex 0 lies on mesh edge",
                crack_ids={0})

        monkeypatch.setattr(xfem2d.enrichment, "_detect_coincidences",
                            always_degenerate)
        code = main(["solve", "--config", write_case(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[classification] crack/mesh coincidence" in capsys.readouterr().err

    def test_non_positive_diagonal_exits_one(self, tmp_path, capsys, monkeypatch):
        # Tip corrections turned negative: the branch dofs, stiffened by the
        # tip elements alone, get negative diagonals, refused before the
        # factorization with the dof named.
        real = xfem2d.assembly._integrate

        def negated_tips(mesh, emap, D, standard, eids, rule, columns=None):
            groups = real(mesh, emap, D, standard, eids, rule, columns)
            return groups if columns is not None else [(rows, cols, -Ke)
                                                       for rows, cols, Ke in groups]

        monkeypatch.setattr(xfem2d.assembly, "_integrate", negated_tips)
        code = main(["solve", "--config", write_case(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "[solve] non-positive stiffness diagonal" in stderr
        assert ", branch 0 x)" in stderr and "Traceback" not in stderr


class TestFailureStages:
    def test_unwritable_artifact_is_staged_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "sif_history.csv").mkdir(parents=True)
        code = main(["solve", "--config", write_case(tmp_path), "--out", str(out)])
        assert code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("xfem2d: [output] ")
        assert str(out / "sif_history.csv") in stderr

    def test_mesh_that_is_not_utf8_is_staged_mesh(self, tmp_path, capsys):
        config = write_case(tmp_path)
        mesh = tmp_path / "plate.mesh"
        data = bytearray(mesh.read_bytes())
        data[12] = 0xFF
        mesh.write_bytes(bytes(data))
        code = main(["solve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"xfem2d: [mesh] '{mesh}' is not UTF-8 text: "
                                           "'utf-8' codec can't decode byte 0xff in "
                                           "position 12: invalid start byte\n")

    def test_solver_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def failing(system, load_factor=1.0, factor=None):
            raise xfem2d.assembly.SolverError("factorization broke down")

        monkeypatch.setattr(xfem2d.driver, "solve", failing)
        code = main(["solve", "--config", write_case(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "xfem2d: [solve] factorization broke down\n"

    def test_propagation_solver_failure_exits_two_after_the_artifacts(self, tmp_path, capsys,
                                                                     monkeypatch):
        real, calls = xfem2d.driver.solve, []

        def failing_second(system, load_factor=1.0, factor=None):
            calls.append(load_factor)
            if len(calls) == 2:
                raise xfem2d.assembly.SolverError("factorization broke down")
            return real(system, load_factor, factor)

        monkeypatch.setattr(xfem2d.driver, "solve", failing_second)
        out = tmp_path / "out"
        code = main(["propagate", "--config", write_case(tmp_path, GROWTH_SECTIONS),
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "xfem2d: [solve] factorization broke down\n"
        assert "steps solved: 1\n" in captured.out and "stop: solver failure\n" in captured.out
        log = (out / "run_log.txt").read_text()
        assert "stop: solver failure\nerror: [solve] factorization broke down\n" in log
        assert [row["step"] for row in read_sif_csv(out / "sif_history.csv")] == [0, 0]


def _package_env():
    """Environment in which a child interpreter imports this xfem2d."""
    src = os.path.dirname(os.path.dirname(xfem2d.cli.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        config = write_case(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "xfem2d", "solve", "--config", config,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=_package_env(),
        )
        assert result.returncode == 0
        assert "K_I" in result.stdout
        assert (tmp_path / "out" / "sif_history.csv").is_file()

    def test_run_imports_only_what_the_package_loaded(self, tmp_path):
        # Every run is a fresh process that pays its imports again.  The
        # package runs neither scipy's __init__ nor scipy.linalg's (and so
        # not the numpy.f2py its array-API layer loads), needs no numpy.ma,
        # no numpy.polynomial and no csv, and neither building and writing
        # the benchmark inputs nor a run imports anything more: only
        # LinearSystem.K, off the run path, would import scipy.sparse.
        runs = []
        for command, extra in (("solve", ""), ("propagate", GROWTH_SECTIONS)):
            case = tmp_path / command
            case.mkdir()
            runs.append([command, "--config", write_case(case, extra), "--out", str(case / "out")])
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        script = (
            "import dataclasses, os, sys, xfem2d, xfem2d.cli\n"
            "loaded = set(sys.modules)\n"
            "print('@', sorted({'scipy', 'scipy.linalg', 'numpy.f2py', 'numpy.ma', "
            "'numpy.polynomial', 'csv'} & loaded))\n"
            "from xfem2d.benchmarks import hole_attraction_config, many_cracks_config, "
            "table1_config\n"
            "loaded = set(sys.modules)\n"
            "for k, config in enumerate([table1_config(12.5), hole_attraction_config(), "
            "many_cracks_config()]):\n"
            f"    mesh = os.path.join({str(inputs)!r}, f'{{k}}.mesh')\n"
            "    xfem2d.write_mesh(config.mesh, mesh)\n"
            "    xfem2d.dump_config(dataclasses.replace(config, mesh=None, mesh_path=mesh), "
            "mesh + '.cfg')\n"
            "print('@', sorted(set(sys.modules) - loaded))\n"
            f"for argv in {runs!r}:\n"
            "    print('@', xfem2d.cli.main(argv), sorted(set(sys.modules) - loaded))\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=_package_env())
        assert result.returncode == 0, result.stderr
        assert [line for line in result.stdout.splitlines() if line.startswith("@ ")] == [
            "@ []", "@ []", "@ 0 []", "@ 0 []"]
        assert len(list(inputs.iterdir())) == 6

    def test_module_invocation_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "xfem2d"],
            capture_output=True, text=True, env=_package_env(),
        )
        assert result.returncode == 1
        assert "usage:" in result.stderr
