"""Run configuration: a sectioned key-value text format and its model.

Grammar
-------
A document is a sequence of ``[section]`` headers followed by
``key = value`` lines.  ``#`` starts a comment (full-line or trailing);
blank lines are ignored.  Keys cannot appear before the first header,
every key must belong to its section's vocabulary, and singleton
sections cannot repeat.

Sections::

    [mesh]            path                                (required)
    [material]        youngs_modulus, poisson_ratio,      (required)
                      plane (strain|stress), body_force
    [crack]           vertices (x y ; x y ; ...),          (repeatable;
    [crack <id>]      tip_start, tip_end                   bare form
                                                           auto-numbers)
    [boundary <tag>]  exactly one of fixed / displacement
                      (components: number or 'free') /
                      traction; optional scaled
    [quadrature]      standard, heaviside, tip
    [enrichment]      delta, tip_enrichment
    [contour]         radius (auto | <m> | <mult>a)
    [propagation]     delta_a, k_ic, max_increments
    [schedule]        load_factors
    [outputs]         directory, artifacts

Booleans are ``on``/``off``.  Every parse failure names the offending
line.  ``serialize_config`` emits a canonical document that re-parses to
an equivalent configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from xfem2d.assembly import BoundaryCondition, MaterialModel
from xfem2d.cracks import CrackGeometryError, CrackPath
from xfem2d.driver import LoadSchedule, PropagationParams
from xfem2d.mesh import Mesh

__all__ = [
    "ConfigError",
    "ContourSpec",
    "OutputSpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "dump_config",
    "ARTIFACTS",
]

ARTIFACTS = ("sif_csv", "cod_csv", "field_dump", "run_log")


class ConfigError(ValueError):
    """Configuration document rejected; the message locates the cause."""


@dataclass(frozen=True)
class ContourSpec:
    """Extraction-domain sizing: the radius rule."""

    rule: str = "auto"
    value: float | None = None

    def __post_init__(self):
        if self.rule not in ("auto", "absolute", "relative"):
            raise ValueError(f"unknown contour radius rule '{self.rule}'")
        if self.rule == "auto":
            if self.value is not None:
                raise ValueError("the auto radius rule takes no value")
        elif not (self.value is not None and self.value > 0.0):
            raise ValueError("contour radius value must be positive")


@dataclass(frozen=True)
class OutputSpec:
    """Where results go and which artifacts are produced."""

    directory: str = "out"
    artifacts: tuple = ARTIFACTS

    def __post_init__(self):
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        unknown = [a for a in self.artifacts if a not in ARTIFACTS]
        if unknown:
            raise ValueError(
                f"unknown artifact '{unknown[0]}' "
                f"(choose from {', '.join(ARTIFACTS)})"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: discretization, loads, and knobs."""

    material: MaterialModel
    mesh_path: str | None = None
    mesh: Mesh | None = field(default=None, compare=False)
    cracks: tuple = ()
    bcs: tuple = ()
    quadrature: tuple = (4, 35, 40)
    delta: float = 0.002
    tip_enrichment: bool = False
    contour: ContourSpec = ContourSpec()
    propagation: PropagationParams | None = None
    schedule: LoadSchedule | None = None
    outputs: OutputSpec = OutputSpec()

    def __post_init__(self):
        if self.mesh is None and self.mesh_path is None:
            raise ValueError("a configuration needs a mesh or a mesh path")
        if not 0.0 <= self.delta < 0.5:
            raise ValueError(
                f"support tolerance delta must be in [0, 0.5), got {self.delta}"
            )
        q = tuple(int(n) for n in self.quadrature)
        object.__setattr__(self, "quadrature", q)
        if len(q) != 3 or any(n < 1 for n in q):
            raise ValueError("quadrature needs three positive point targets")
        object.__setattr__(self, "cracks", tuple(self.cracks))
        object.__setattr__(self, "bcs", tuple(self.bcs))
        ids = [c.id for c in self.cracks]
        if len(set(ids)) != len(ids):
            raise ValueError("crack ids must be unique")


# ----------------------------------------------------------------------
# parsing


@dataclass
class _Section:
    name: str
    arg: str | None
    lineno: int
    entries: dict  # key -> (value string, lineno)


def _tokenize(text: str):
    """Yield (lineno, kind, payload); kind is 'section' or 'pair'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            header = line[1:-1].strip()
            if not header:
                raise ConfigError(f"line {lineno}: empty section header")
            parts = header.split(None, 1)
            yield lineno, "section", (parts[0], parts[1] if len(parts) > 1 else None)
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"line {lineno}: missing key before '='")
            yield lineno, "pair", (key, value)
        else:
            raise ConfigError(
                f"line {lineno}: expected 'key = value' or '[section]', got '{line}'"
            )


_SINGLETONS = ("mesh", "material", "quadrature", "enrichment", "contour",
               "propagation", "schedule", "outputs")
_KEYS = {
    "mesh": {"path"},
    "material": {"youngs_modulus", "poisson_ratio", "plane", "body_force"},
    "crack": {"vertices", "tip_start", "tip_end"},
    "boundary": {"fixed", "displacement", "traction", "scaled"},
    "quadrature": {"standard", "heaviside", "tip"},
    "enrichment": {"delta", "tip_enrichment"},
    "contour": {"radius"},
    "propagation": {"delta_a", "k_ic", "max_increments"},
    "schedule": {"load_factors"},
    "outputs": {"directory", "artifacts"},
}


def _collect_sections(text: str):
    sections: list[_Section] = []
    current: _Section | None = None
    seen_singletons: dict[str, int] = {}
    for lineno, kind, payload in _tokenize(text):
        if kind == "section":
            name, arg = payload
            if name not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in _SINGLETONS:
                if arg is not None:
                    raise ConfigError(
                        f"line {lineno}: section [{name}] takes no argument"
                    )
                if name in seen_singletons:
                    raise ConfigError(
                        f"line {lineno}: duplicate section [{name}] "
                        f"(first at line {seen_singletons[name]})"
                    )
                seen_singletons[name] = lineno
            if name == "boundary" and arg is None:
                raise ConfigError(
                    f"line {lineno}: [boundary] needs a tag, e.g. [boundary top]"
                )
            current = _Section(name=name, arg=arg, lineno=lineno, entries={})
            sections.append(current)
        else:
            key, value = payload
            if current is None:
                raise ConfigError(
                    f"line {lineno}: key '{key}' appears before any section"
                )
            if key not in _KEYS[current.name]:
                raise ConfigError(
                    f"line {lineno}: unknown key '{key}' in section "
                    f"[{current.name}]"
                )
            if key in current.entries:
                raise ConfigError(
                    f"line {lineno}: duplicate key '{key}' in section "
                    f"[{current.name}]"
                )
            current.entries[key] = (value, lineno)
    return sections


def _float(value: str, lineno: int, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: '{key}' expects a number, got '{value}'"
        ) from None
    if not np.isfinite(out):
        raise ConfigError(f"line {lineno}: '{key}' must be finite")
    return out


def _int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: '{key}' expects an integer, got '{value}'"
        ) from None


def _bool(value: str, lineno: int, key: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise ConfigError(f"line {lineno}: '{key}' expects on or off, got '{value}'")


def _floats(value: str, lineno: int, key: str, count: int | None = None):
    parts = value.split()
    if count is not None and len(parts) != count:
        raise ConfigError(
            f"line {lineno}: '{key}' expects {count} numbers, got {len(parts)}"
        )
    return [_float(p, lineno, key) for p in parts]


def _require(section: _Section, key: str):
    if key not in section.entries:
        raise ConfigError(
            f"line {section.lineno}: section [{section.name}] is missing "
            f"required key '{key}'"
        )
    return section.entries[key]


def _build_material(section: _Section) -> MaterialModel:
    e_str, e_line = _require(section, "youngs_modulus")
    nu_str, nu_line = _require(section, "poisson_ratio")
    plane = "strain"
    if "plane" in section.entries:
        plane, line = section.entries["plane"]
        if plane not in ("strain", "stress"):
            raise ConfigError(
                f"line {line}: 'plane' expects strain or stress, got '{plane}'"
            )
    body = (0.0, 0.0)
    if "body_force" in section.entries:
        value, line = section.entries["body_force"]
        body = tuple(_floats(value, line, "body_force", 2))
    try:
        return MaterialModel(
            E=_float(e_str, e_line, "youngs_modulus"),
            nu=_float(nu_str, nu_line, "poisson_ratio"),
            plane_strain=(plane == "strain"),
            body_force=body,
        )
    except ValueError as exc:
        raise ConfigError(f"line {section.lineno}: {exc}") from None


def _build_crack(section: _Section, crack_id: int) -> CrackPath:
    value, line = _require(section, "vertices")
    points = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(_floats(chunk, line, "vertices", 2))
    if len(points) < 2:
        raise ConfigError(
            f"line {line}: 'vertices' needs at least two 'x y' pairs "
            "separated by ';'"
        )
    tip_start = tip_end = True
    if "tip_start" in section.entries:
        v, ln = section.entries["tip_start"]
        tip_start = _bool(v, ln, "tip_start")
    if "tip_end" in section.entries:
        v, ln = section.entries["tip_end"]
        tip_end = _bool(v, ln, "tip_end")
    try:
        return CrackPath(vertices=np.array(points, dtype=float),
                         tip_start=tip_start, tip_end=tip_end, id=crack_id)
    except CrackGeometryError as exc:
        raise ConfigError(f"line {section.lineno}: {exc}") from None


def _build_boundary(section: _Section) -> BoundaryCondition:
    kinds = [k for k in ("fixed", "displacement", "traction")
             if k in section.entries]
    if len(kinds) != 1:
        raise ConfigError(
            f"line {section.lineno}: [boundary {section.arg}] needs exactly "
            "one of fixed, displacement, or traction"
        )
    scaled = True
    if "scaled" in section.entries:
        v, ln = section.entries["scaled"]
        scaled = _bool(v, ln, "scaled")
    kind = kinds[0]
    value, line = section.entries[kind]
    if kind == "fixed":
        _bool(value, line, "fixed")
        if value == "off":
            raise ConfigError(
                f"line {line}: 'fixed = off' is meaningless; drop the key"
            )
        return BoundaryCondition(section.arg, "displacement", (0.0, 0.0),
                                 scaled=scaled)
    if kind == "traction":
        tx, ty = _floats(value, line, "traction", 2)
        return BoundaryCondition(section.arg, "traction", (tx, ty),
                                 scaled=scaled)
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(
            f"line {line}: 'displacement' expects two components "
            "(number or free)"
        )
    comps = tuple(None if p == "free" else _float(p, line, "displacement")
                  for p in parts)
    if comps == (None, None):
        raise ConfigError(
            f"line {line}: a displacement condition needs at least one "
            "constrained component"
        )
    return BoundaryCondition(section.arg, "displacement", comps, scaled=scaled)


def _build_contour(section: _Section) -> ContourSpec:
    rule, value = "auto", None
    if "radius" in section.entries:
        raw, line = section.entries["radius"]
        if raw == "auto":
            pass
        elif raw.endswith("a"):
            rule = "relative"
            value = _float(raw[:-1], line, "radius")
        else:
            rule = "absolute"
            value = _float(raw, line, "radius")
    try:
        return ContourSpec(rule=rule, value=value)
    except ValueError as exc:
        raise ConfigError(f"line {section.lineno}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Build a validated configuration from document text.

    The mesh path is kept verbatim; use :func:`load_config` to also
    resolve it against the document's directory and check it exists.
    """
    sections = _collect_sections(text)
    by_name: dict[str, _Section] = {}
    cracks: list[CrackPath] = []
    crack_ids: dict[int, int] = {}
    bcs: list[BoundaryCondition] = []
    boundary_tags: dict[str, int] = {}
    next_id = 0
    for section in sections:
        if section.name == "crack":
            if section.arg is None:
                crack_id = next_id
            else:
                crack_id = _int(section.arg, section.lineno, "crack id")
            if crack_id in crack_ids:
                raise ConfigError(
                    f"line {section.lineno}: duplicate crack id {crack_id} "
                    f"(first at line {crack_ids[crack_id]})"
                )
            crack_ids[crack_id] = section.lineno
            next_id = max(next_id, crack_id + 1)
            cracks.append(_build_crack(section, crack_id))
        elif section.name == "boundary":
            if section.arg in boundary_tags:
                raise ConfigError(
                    f"line {section.lineno}: duplicate boundary section "
                    f"'{section.arg}' (first at line "
                    f"{boundary_tags[section.arg]})"
                )
            boundary_tags[section.arg] = section.lineno
            bcs.append(_build_boundary(section))
        else:
            by_name[section.name] = section

    for required in ("mesh", "material"):
        if required not in by_name:
            raise ConfigError(f"missing required section [{required}]")
    mesh_path, _ = _require(by_name["mesh"], "path")
    if not mesh_path:
        raise ConfigError(
            f"line {by_name['mesh'].lineno}: mesh path cannot be empty"
        )
    material = _build_material(by_name["material"])

    quadrature = list(RunConfig.quadrature)
    if "quadrature" in by_name:
        section = by_name["quadrature"]
        for i, key in enumerate(("standard", "heaviside", "tip")):
            if key in section.entries:
                raw, line = section.entries[key]
                n = _int(raw, line, key)
                if n < 1:
                    raise ConfigError(
                        f"line {line}: '{key}' must be a positive point count"
                    )
                quadrature[i] = n

    delta, tip_enrichment = RunConfig.delta, RunConfig.tip_enrichment
    if "enrichment" in by_name:
        section = by_name["enrichment"]
        if "delta" in section.entries:
            raw, line = section.entries["delta"]
            delta = _float(raw, line, "delta")
            if not 0.0 <= delta < 0.5:
                raise ConfigError(
                    f"line {line}: 'delta' must be in [0, 0.5), got {raw}"
                )
        if "tip_enrichment" in section.entries:
            raw, line = section.entries["tip_enrichment"]
            tip_enrichment = _bool(raw, line, "tip_enrichment")

    contour = ContourSpec()
    if "contour" in by_name:
        contour = _build_contour(by_name["contour"])

    propagation = None
    if "propagation" in by_name:
        section = by_name["propagation"]
        raw, line = _require(section, "delta_a")
        delta_a = _float(raw, line, "delta_a")
        k_ic = None
        if "k_ic" in section.entries:
            raw, line = section.entries["k_ic"]
            k_ic = _float(raw, line, "k_ic")
        max_increments = PropagationParams.max_increments
        if "max_increments" in section.entries:
            raw, line = section.entries["max_increments"]
            max_increments = _int(raw, line, "max_increments")
        try:
            propagation = PropagationParams(delta_a=delta_a, k_ic=k_ic,
                                            max_increments=max_increments)
        except ValueError as exc:
            raise ConfigError(f"line {section.lineno}: {exc}") from None

    schedule = None
    if "schedule" in by_name:
        section = by_name["schedule"]
        raw, line = _require(section, "load_factors")
        try:
            schedule = LoadSchedule(tuple(_floats(raw, line, "load_factors")))
        except ValueError as exc:
            raise ConfigError(f"line {line}: {exc}") from None

    outputs = OutputSpec()
    if "outputs" in by_name:
        section = by_name["outputs"]
        directory, artifacts = outputs.directory, outputs.artifacts
        if "directory" in section.entries:
            directory, _ = section.entries["directory"]
        if "artifacts" in section.entries:
            raw, line = section.entries["artifacts"]
            artifacts = tuple(raw.split())
        try:
            outputs = OutputSpec(directory=directory, artifacts=artifacts)
        except ValueError as exc:
            raise ConfigError(f"line {section.lineno}: {exc}") from None

    try:
        return RunConfig(
            material=material,
            mesh_path=mesh_path,
            cracks=tuple(cracks),
            bcs=tuple(bcs),
            quadrature=tuple(quadrature),
            delta=delta,
            tip_enrichment=tip_enrichment,
            contour=contour,
            propagation=propagation,
            schedule=schedule,
            outputs=outputs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    """Parse a configuration file and resolve its mesh path.

    The mesh path is taken relative to the configuration file's
    directory and must exist.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration '{path}': {exc}") from None
    config = parse_config(text)
    mesh_path = config.mesh_path
    if not os.path.isabs(mesh_path):
        mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 mesh_path)
    if not os.path.isfile(mesh_path):
        raise ConfigError(f"mesh file '{mesh_path}' does not exist")
    return replace(config, mesh_path=mesh_path)


# ----------------------------------------------------------------------
# serialization


def _format_float(x: float) -> str:
    return repr(float(x))


def serialize_config(config: RunConfig) -> str:
    """Canonical document text that re-parses to an equivalent config."""
    if config.mesh_path is None:
        raise ConfigError(
            "cannot serialize a configuration holding only an in-memory mesh"
        )
    lines = []
    lines += ["[mesh]", f"path = {config.mesh_path}", ""]
    m = config.material
    lines += [
        "[material]",
        f"youngs_modulus = {_format_float(m.E)}",
        f"poisson_ratio = {_format_float(m.nu)}",
        f"plane = {'strain' if m.plane_strain else 'stress'}",
        f"body_force = {_format_float(m.body_force[0])} "
        f"{_format_float(m.body_force[1])}",
        "",
    ]
    for crack in sorted(config.cracks, key=lambda c: c.id):
        pairs = " ; ".join(
            f"{_format_float(x)} {_format_float(y)}" for x, y in crack.vertices
        )
        lines += [
            f"[crack {crack.id}]",
            f"vertices = {pairs}",
            f"tip_start = {'on' if crack.tip_start else 'off'}",
            f"tip_end = {'on' if crack.tip_end else 'off'}",
            "",
        ]
    for bc in config.bcs:
        lines.append(f"[boundary {bc.boundary}]")
        if bc.kind == "traction":
            lines.append(
                f"traction = {_format_float(bc.value[0])} "
                f"{_format_float(bc.value[1])}"
            )
        else:
            comps = " ".join(
                "free" if v is None else _format_float(v) for v in bc.value
            )
            lines.append(f"displacement = {comps}")
        lines += [f"scaled = {'on' if bc.scaled else 'off'}", ""]
    std, heav, tip = config.quadrature
    lines += ["[quadrature]", f"standard = {std}", f"heaviside = {heav}",
              f"tip = {tip}", ""]
    lines += [
        "[enrichment]",
        f"delta = {_format_float(config.delta)}",
        f"tip_enrichment = {'on' if config.tip_enrichment else 'off'}",
        "",
    ]
    contour = config.contour
    if contour.rule == "auto":
        radius = "auto"
    elif contour.rule == "relative":
        radius = f"{_format_float(contour.value)}a"
    else:
        radius = _format_float(contour.value)
    lines += ["[contour]", f"radius = {radius}", ""]
    if config.propagation is not None:
        p = config.propagation
        lines += ["[propagation]", f"delta_a = {_format_float(p.delta_a)}"]
        if p.k_ic is not None:
            lines.append(f"k_ic = {_format_float(p.k_ic)}")
        lines += [f"max_increments = {p.max_increments}", ""]
    if config.schedule is not None:
        factors = " ".join(_format_float(s) for s in config.schedule.steps)
        lines += ["[schedule]", f"load_factors = {factors}", ""]
    lines += [
        "[outputs]",
        f"directory = {config.outputs.directory}",
        f"artifacts = {' '.join(config.outputs.artifacts)}",
    ]
    return "\n".join(lines) + "\n"


def dump_config(config: RunConfig, path) -> None:
    """Write the canonical document to a file."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_config(config))
