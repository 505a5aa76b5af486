"""The benchmark's workloads: inputs built from a seed, and output checks.

Each workload is a run configuration built with xfem2d's public builders,
written to disk with ``write_mesh`` and ``dump_config``, and run through
``xfem2d.cli.main``.  Every check tolerance comes from a closed form or
from physics, never from a snapshot of earlier output.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from xfem2d import benchmarks, dump_config, read_sif_csv, write_mesh
from xfem2d.config import OutputSpec
from xfem2d.cracks import CrackPath

# Layout rules of the seventeen-crack field, as in xfem2d.benchmarks.
FIELD_CRACKS = 17
FIELD_LENGTH = 0.2
FIELD_GAP = 0.045
FIELD_MARGIN = 0.06

HOLE_STEPS = 20
HOLE_START_Y = 0.0505
SIF_TOLERANCE = 0.01


def _point_segment_distance(p, a, b):
    ab = b - a
    t = min(1.0, max(0.0, float(np.dot(p - a, ab) / np.dot(ab, ab))))
    return float(np.linalg.norm(p - (a + t * ab)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segment_distance(p0, p1, q0, q1):
    """Shortest distance between segments p0-p1 and q0-q1 (0 if they cross)."""
    d1, d2 = _cross(q0, q1, p0), _cross(q0, q1, p1)
    d3, d4 = _cross(p0, p1, q0), _cross(p0, p1, q1)
    if d1 * d2 < 0.0 and d3 * d4 < 0.0:
        return 0.0
    return min(_point_segment_distance(p0, q0, q1),
               _point_segment_distance(p1, q0, q1),
               _point_segment_distance(q0, p0, p1),
               _point_segment_distance(q1, p0, p1))


def crack_layout(seed):
    """The crack field's segments in the unit square, drawn from ``seed``.

    Rejection sampling of center and angle keeps the segments at least
    ``FIELD_GAP`` apart and ``FIELD_MARGIN`` off the boundary.
    """
    rng = np.random.default_rng(seed % 2**64)  # negative seeds too
    lo, hi = FIELD_MARGIN, 1.0 - FIELD_MARGIN
    segments = []
    for _ in range(200_000):
        if len(segments) == FIELD_CRACKS:
            return segments
        center = rng.uniform(lo, hi, 2)
        angle = rng.uniform(0.0, math.pi)
        half = 0.5 * FIELD_LENGTH * np.array([math.cos(angle), math.sin(angle)])
        a, b = center - half, center + half
        ends = np.concatenate([a, b])
        if ends.min() < lo or ends.max() > hi:
            continue
        if any(segment_distance(a, b, p, q) < FIELD_GAP for p, q in segments):
            continue
        segments.append((a, b))
    raise RuntimeError(f"seed {seed}: no layout of {FIELD_CRACKS} cracks found")


def _plate_sif(seed):
    return benchmarks.table1_config(12.5, with_tip=True)


def _crack_field(seed):
    cracks = tuple(CrackPath(vertices=np.array([a, b]), id=i)
                   for i, (a, b) in enumerate(crack_layout(seed)))
    return replace(benchmarks.many_cracks_config(), cracks=cracks)


def _hole_growth(seed):
    config = benchmarks.hole_attraction_config()
    if len(config.schedule.steps) != HOLE_STEPS:
        raise ValueError("hole_attraction_config no longer has 20 load steps")
    return config


def _inclined_dump(seed):
    return benchmarks.inclined_config(30)


def _within(value, exact, what):
    err = (value - exact) / exact
    if abs(err) > SIF_TOLERANCE:
        return [f"{what} = {value!r} is {100 * err:+.3f} % off {exact!r}"]
    return []


def _check_plate_sif(rows, out_dir):
    exact = benchmarks.center_crack_exact_ki(benchmarks.TABLE1_SIGMA,
                                             benchmarks.TABLE1_HALF_LENGTH)
    problems = [] if len(rows) == 2 else [f"{len(rows)} tip rows, expected 2"]
    for row in rows:
        problems += _within(row["K_I"], exact, f"tip {row['tip_id']} K_I")
    return problems


def _check_inclined_dump(rows, out_dir):
    k1, k2 = benchmarks.inclined_exact(30)
    problems = [] if len(rows) == 2 else [f"{len(rows)} tip rows, expected 2"]
    for row in rows:
        problems += _within(row["K_I"], k1, f"tip {row['tip_id']} K_I")
        problems += _within(row["K_II"], k2, f"tip {row['tip_id']} K_II")
    return problems


def _check_crack_field(rows, out_dir):
    tips = {(row["crack_id"], row["tip_id"]) for row in rows}
    if len(rows) != 2 * FIELD_CRACKS or len(tips) != 2 * FIELD_CRACKS:
        return [f"{len(rows)} tip rows for {FIELD_CRACKS} cracks, "
                f"expected {2 * FIELD_CRACKS}"]
    return []


_EXTENSION = re.compile(r"extension: crack \d+ tip \d+ grew .* -> "
                        r"\(([^,]+), ([^)]+)\)")


def _check_hole_growth(rows, out_dir):
    try:
        with open(os.path.join(out_dir, "run_log.txt"), encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"run_log.txt: {exc}"]
    tips = [(float(m[1]), float(m[2])) for m in _EXTENSION.finditer(text)]
    if len(tips) != HOLE_STEPS:
        return [f"{len(tips)} growth increments, expected {HOLE_STEPS}"]
    if not tips[-1][1] > HOLE_START_Y:
        return [f"final tip y {tips[-1][1]!r} is not above {HOLE_START_Y}"]
    return []


@dataclass(frozen=True)
class Workload:
    build: object  # seed -> RunConfig holding an in-memory mesh
    command: str
    artifacts: tuple
    check: object  # (sif rows, output directory) -> list of problems


WORKLOADS = {
    "plate-sif": Workload(_plate_sif, "solve", ("sif_csv", "run_log"),
                          _check_plate_sif),
    "crack-field": Workload(_crack_field, "solve", ("sif_csv", "run_log"),
                            _check_crack_field),
    "hole-growth": Workload(_hole_growth, "propagate",
                            ("sif_csv", "cod_csv", "field_dump", "run_log"),
                            _check_hole_growth),
    "inclined-dump": Workload(_inclined_dump, "solve",
                              ("sif_csv", "cod_csv", "field_dump", "run_log"),
                              _check_inclined_dump),
}


def write_inputs(name, seed, directory):
    """Build the workload's config and write its mesh and config files.

    Returns the config path.
    """
    workload = WORKLOADS[name]
    config = workload.build(seed)
    os.makedirs(directory, exist_ok=True)
    write_mesh(config.mesh, os.path.join(directory, "mesh.txt"))
    config = replace(config, mesh=None, mesh_path="mesh.txt",
                     outputs=OutputSpec(directory="out",
                                        artifacts=workload.artifacts))
    path = os.path.join(directory, "run.cfg")
    dump_config(config, path)
    return path


def check_outputs(name, out_dir):
    """Problems found in one run's artifacts, and the parsed SIF rows."""
    try:
        rows = read_sif_csv(os.path.join(out_dir, "sif_history.csv"))
    except (OSError, ValueError) as exc:
        return [f"sif_history.csv: {exc}"], []
    problems = [f"crack {r['crack_id']} tip {r['tip_id']} has a non-finite SIF"
                for r in rows
                if not (math.isfinite(r["K_I"]) and math.isfinite(r["K_II"]))]
    return problems + WORKLOADS[name].check(rows, out_dir), rows
