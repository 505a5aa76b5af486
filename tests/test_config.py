"""Configuration grammar: parsing, validation, and round-tripping."""

import numpy as np
import pytest

from xfem2d.assembly import BoundaryCondition, MaterialModel
from xfem2d.config import (
    ConfigError,
    ContourSpec,
    OutputSpec,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
    serialize_config,
)
from xfem2d.cracks import CrackPath
from xfem2d.driver import LoadSchedule, PropagationParams
from xfem2d.mesh import write_mesh
from xfem2d.meshgen import uniform_rect

MINIMAL = """\
[mesh]
path = plate.mesh

[material]
youngs_modulus = 200e9
poisson_ratio = 0.3
"""


class TestMinimal:
    def test_defaults_filled(self):
        config = parse_config(MINIMAL)
        assert config.mesh_path == "plate.mesh"
        assert config.material.E == 200e9
        assert config.material.nu == 0.3
        assert config.material.plane_strain is True
        assert config.material.body_force == (0.0, 0.0)
        assert config.quadrature == (4, 35, 40)
        assert config.delta == 0.002
        assert config.tip_enrichment is False
        assert config.contour == ContourSpec()
        assert config.propagation is None
        assert config.schedule is None
        assert config.outputs == OutputSpec()
        assert config.cracks == ()
        assert config.bcs == ()

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "poisson_ratio = 0.3", "poisson_ratio = 0.3   # inline"
        )
        assert parse_config(text).material.nu == 0.3

    def test_missing_material_named(self):
        with pytest.raises(ConfigError, match=r"\[material\]"):
            parse_config("[mesh]\npath = plate.mesh\n")

    def test_missing_mesh_named(self):
        with pytest.raises(ConfigError, match=r"\[mesh\]"):
            parse_config("[material]\nyoungs_modulus = 1e9\n"
                         "poisson_ratio = 0.3\n")

    def test_missing_required_key_located(self):
        with pytest.raises(ConfigError, match="youngs_modulus"):
            parse_config("[mesh]\npath = plate.mesh\n[material]\n"
                         "poisson_ratio = 0.3\n")


class TestLineNumbers:
    def test_poisson_bound_reported(self):
        bad = MINIMAL.replace("poisson_ratio = 0.3", "poisson_ratio = 0.7")
        with pytest.raises(ConfigError, match="line 4.*Poisson"):
            parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[materials\]"):
            parse_config("[materials]\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'modulus'"):
            parse_config("[material]\nmodulus = 1\n")

    def test_duplicate_section(self):
        text = MINIMAL + "\n[material]\nyoungs_modulus = 1e9\n"
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config(text)

    def test_duplicate_key(self):
        text = MINIMAL + "poisson_ratio = 0.2\n"
        with pytest.raises(ConfigError, match="duplicate key 'poisson_ratio'"):
            parse_config(text)

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any section"):
            parse_config("path = plate.mesh\n")

    def test_bad_number(self):
        bad = MINIMAL.replace("200e9", "soft")
        with pytest.raises(ConfigError, match="line 5.*number.*soft"):
            parse_config(bad)

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="line 1: unterminated"):
            parse_config("[mesh\n")

    def test_stray_text(self):
        with pytest.raises(ConfigError, match="line 2: expected"):
            parse_config("[mesh]\nnonsense\n")


class TestCracks:
    def test_auto_and_explicit_ids(self):
        text = MINIMAL + """
[crack]
vertices = 0.1 0.5 ; 0.4 0.5

[crack 5]
vertices = 0.1 0.2 ; 0.4 0.2
tip_start = off

[crack]
vertices = 0.1 0.8 ; 0.4 0.8
"""
        config = parse_config(text)
        assert [c.id for c in config.cracks] == [0, 5, 6]
        assert config.cracks[1].tip_start is False
        assert config.cracks[1].tip_end is True
        np.testing.assert_allclose(config.cracks[0].vertices,
                                   [[0.1, 0.5], [0.4, 0.5]])

    def test_duplicate_id(self):
        text = MINIMAL + """
[crack 2]
vertices = 0.1 0.5 ; 0.4 0.5

[crack 2]
vertices = 0.1 0.2 ; 0.4 0.2
"""
        with pytest.raises(ConfigError, match="duplicate crack id 2"):
            parse_config(text)

    def test_vertex_pair_shape(self):
        text = MINIMAL + "[crack]\nvertices = 0.1 0.5 0.4\n"
        with pytest.raises(ConfigError, match="2 numbers"):
            parse_config(text)

    def test_single_point_rejected(self):
        text = MINIMAL + "[crack]\nvertices = 0.1 0.5\n"
        with pytest.raises(ConfigError, match="two 'x y' pairs"):
            parse_config(text)

    def test_degenerate_geometry_reported(self):
        text = MINIMAL + "[crack]\nvertices = 0.1 0.5 ; 0.1 0.5\n"
        with pytest.raises(ConfigError, match="line"):
            parse_config(text)


class TestBoundaries:
    def test_three_kinds(self):
        text = MINIMAL + """
[boundary top]
traction = 0 1e6

[boundary bottom]
displacement = free 0
scaled = off

[boundary left]
fixed = on
"""
        config = parse_config(text)
        top, bottom, left = config.bcs
        assert top == BoundaryCondition("top", "traction", (0.0, 1e6),
                                        scaled=True)
        assert bottom == BoundaryCondition("bottom", "displacement",
                                           (None, 0.0), scaled=False)
        assert left == BoundaryCondition("left", "displacement", (0.0, 0.0),
                                         scaled=True)

    def test_tag_required(self):
        with pytest.raises(ConfigError, match="needs a tag"):
            parse_config(MINIMAL + "[boundary]\nfixed = on\n")

    def test_duplicate_tag(self):
        text = MINIMAL + ("[boundary top]\nfixed = on\n" * 2)
        with pytest.raises(ConfigError, match="duplicate boundary"):
            parse_config(text)

    def test_exactly_one_kind(self):
        text = MINIMAL + "[boundary top]\nfixed = on\ntraction = 0 1\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(MINIMAL + "[boundary top]\nscaled = on\n")

    def test_both_components_free_rejected(self):
        text = MINIMAL + "[boundary top]\ndisplacement = free free\n"
        with pytest.raises(ConfigError, match="at least one"):
            parse_config(text)

    def test_fixed_off_rejected(self):
        text = MINIMAL + "[boundary top]\nfixed = off\n"
        with pytest.raises(ConfigError, match="meaningless"):
            parse_config(text)


class TestKnobSections:
    def test_quadrature_overrides(self):
        text = MINIMAL + "[quadrature]\nheaviside = 25\ntip = 64\n"
        assert parse_config(text).quadrature == (4, 25, 64)

    def test_enrichment_overrides(self):
        text = MINIMAL + "[enrichment]\ndelta = 0.01\ntip_enrichment = on\n"
        config = parse_config(text)
        assert config.delta == 0.01
        assert config.tip_enrichment is True

    def test_delta_bound(self):
        text = MINIMAL + "[enrichment]\ndelta = 0.6\n"
        with pytest.raises(ConfigError, match=r"line 8.*\[0, 0.5\)"):
            parse_config(text)

    def test_contour_rules(self):
        auto = parse_config(MINIMAL + "[contour]\nradius = auto\n").contour
        assert auto == ContourSpec()
        absolute = parse_config(MINIMAL + "[contour]\nradius = 0.09\n").contour
        assert absolute == ContourSpec(rule="absolute", value=0.09)
        relative = parse_config(MINIMAL + "[contour]\nradius = 0.9a\n").contour
        assert relative == ContourSpec(rule="relative", value=0.9)

    def test_contour_sample_count_is_not_a_key(self):
        # the domain integral samples its ring at the stiffness rules
        with pytest.raises(ConfigError, match=r"line 9: unknown key 'n_points'"):
            parse_config(MINIMAL + "[contour]\nradius = auto\nn_points = 128\n")

    def test_propagation(self):
        text = MINIMAL + ("[propagation]\ndelta_a = 0.003\nk_ic = 47.4e6\n"
                          "max_increments = 20\n")
        p = parse_config(text).propagation
        assert p == PropagationParams(delta_a=0.003, k_ic=47.4e6,
                                      max_increments=20)

    def test_propagation_validated(self):
        with pytest.raises(ConfigError, match="delta_a"):
            parse_config(MINIMAL + "[propagation]\ndelta_a = -1\n")

    def test_schedule(self):
        text = MINIMAL + "[schedule]\nload_factors = 0.25 0.5 0.75 1.0\n"
        assert parse_config(text).schedule == LoadSchedule((0.25, 0.5, 0.75, 1.0))

    def test_schedule_monotone(self):
        text = MINIMAL + "[schedule]\nload_factors = 0.5 0.5\n"
        with pytest.raises(ConfigError, match="line 8.*increasing"):
            parse_config(text)

    def test_outputs(self):
        text = MINIMAL + "[outputs]\ndirectory = results\nartifacts = sif_csv\n"
        out = parse_config(text).outputs
        assert out.directory == "results"
        assert out.artifacts == ("sif_csv",)

    def test_unknown_artifact(self):
        text = MINIMAL + "[outputs]\nartifacts = sif_csv sculpture\n"
        with pytest.raises(ConfigError, match="sculpture"):
            parse_config(text)


def full_config():
    return RunConfig(
        material=MaterialModel(E=71.7e9, nu=0.33, plane_strain=False,
                               body_force=(0.0, -9.81)),
        mesh_path="meshes/plate.mesh",
        cracks=(
            CrackPath(vertices=np.array([[0.0, 0.5], [0.1, 0.5]]),
                      tip_start=False, id=0),
            CrackPath(vertices=np.array([[0.3, 0.2], [0.4, 0.25], [0.5, 0.2]]),
                      id=3),
        ),
        bcs=(
            BoundaryCondition("bottom", "displacement", (None, 0.0),
                              scaled=False),
            BoundaryCondition("top", "traction", (0.0, 15e3), scaled=True),
        ),
        quadrature=(4, 25, 64),
        delta=0.01,
        tip_enrichment=True,
        contour=ContourSpec(rule="relative", value=0.9),
        propagation=PropagationParams(delta_a=0.003, k_ic=47.4e6,
                                      max_increments=20),
        schedule=LoadSchedule.uniform(5),
        outputs=OutputSpec(directory="results", artifacts=("sif_csv", "run_log")),
    )


class TestRoundTrip:
    def test_serialize_then_parse_preserves_everything(self):
        config = full_config()
        again = parse_config(serialize_config(config))
        assert again.mesh_path == config.mesh_path
        assert again.material == config.material
        assert again.quadrature == config.quadrature
        assert again.delta == config.delta
        assert again.tip_enrichment == config.tip_enrichment
        assert again.contour == config.contour
        assert again.propagation == config.propagation
        assert again.schedule == config.schedule
        assert again.outputs == config.outputs
        assert again.bcs == config.bcs
        assert len(again.cracks) == len(config.cracks)
        for a, b in zip(again.cracks, config.cracks):
            assert a.id == b.id
            assert a.tip_start == b.tip_start
            assert a.tip_end == b.tip_end
            np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_second_serialization_is_identical(self):
        config = full_config()
        text = serialize_config(config)
        assert serialize_config(parse_config(text)) == text

    def test_in_memory_mesh_not_serializable(self):
        config = RunConfig(material=MaterialModel(1e9, 0.3),
                           mesh=uniform_rect(1.0, 1.0, 2, 2))
        with pytest.raises(ConfigError, match="in-memory"):
            serialize_config(config)


class TestLoadConfig:
    def test_relative_mesh_path_resolved(self, tmp_path):
        write_mesh(uniform_rect(1.0, 1.0, 2, 2), tmp_path / "plate.mesh")
        (tmp_path / "run.cfg").write_text(MINIMAL)
        config = load_config(tmp_path / "run.cfg")
        assert config.mesh_path == str(tmp_path / "plate.mesh")

    def test_missing_mesh_file(self, tmp_path):
        (tmp_path / "run.cfg").write_text(MINIMAL)
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "run.cfg")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_dump_then_load(self, tmp_path):
        write_mesh(uniform_rect(1.0, 1.0, 2, 2), tmp_path / "plate.mesh")
        config = RunConfig(material=MaterialModel(1e9, 0.3),
                           mesh_path="plate.mesh")
        dump_config(config, tmp_path / "run.cfg")
        again = load_config(tmp_path / "run.cfg")
        assert again.material == config.material
        assert again.mesh_path == str(tmp_path / "plate.mesh")
