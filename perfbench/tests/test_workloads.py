import itertools
import math

import numpy as np
import pytest

from xfem2d import benchmarks, load_config

import workloads


@pytest.mark.parametrize("seed", range(12))
def test_crack_layout_keeps_spacing_and_boundary_rules(seed):
    segments = workloads.crack_layout(seed)
    assert len(segments) == workloads.FIELD_CRACKS
    for a, b in segments:
        assert np.linalg.norm(b - a) == pytest.approx(workloads.FIELD_LENGTH)
        ends = np.concatenate([a, b])
        assert ends.min() >= workloads.FIELD_MARGIN
        assert ends.max() <= 1.0 - workloads.FIELD_MARGIN
    for (a, b), (p, q) in itertools.combinations(segments, 2):
        assert workloads.segment_distance(a, b, p, q) >= workloads.FIELD_GAP


def test_crack_layout_is_a_function_of_the_seed():
    first, again = workloads.crack_layout(7), workloads.crack_layout(7)
    assert all(np.array_equal(a, c) and np.array_equal(b, d)
               for (a, b), (c, d) in zip(first, again))
    other = workloads.crack_layout(8)
    assert not np.array_equal(first[0][0], other[0][0])


def test_segment_distance():
    o = np.array
    assert workloads.segment_distance(o([0, 0]), o([1, 1]), o([0, 1]),
                                      o([1, 0])) == 0.0
    assert workloads.segment_distance(o([0, 0]), o([1, 0]), o([0, 0.5]),
                                      o([1, 0.5])) == pytest.approx(0.5)
    assert workloads.segment_distance(o([0, 0]), o([1, 0]), o([2, 0]),
                                      o([3, 0])) == pytest.approx(1.0)
    assert workloads.segment_distance(o([0, 0]), o([1, 0]), o([0.5, 0.2]),
                                      o([0.5, 3])) == pytest.approx(0.2)


def test_crack_field_inputs_round_trip(tmp_path):
    path = workloads.write_inputs("crack-field", 3, tmp_path)
    config = load_config(path)
    layout = workloads.crack_layout(3)
    assert len(config.cracks) == len(layout)
    for crack, (a, b) in zip(config.cracks, layout):
        assert np.array_equal(crack.vertices, np.array([a, b]))
    assert config.outputs.artifacts == ("sif_csv", "run_log")


def _rows(*pairs):
    return [{"crack_id": 0, "tip_id": i, "K_I": k1, "K_II": k2}
            for i, (k1, k2) in enumerate(pairs)]


def test_plate_check_uses_the_closed_form():
    exact = benchmarks.TABLE1_SIGMA * math.sqrt(math.pi * 0.1)
    check = workloads.WORKLOADS["plate-sif"].check
    assert check(_rows((1.009 * exact, 0.0), (0.991 * exact, 0.0)), None) == []
    assert check(_rows((1.011 * exact, 0.0), (exact, 0.0)), None)
    assert check(_rows((exact, 0.0)), None)


def test_inclined_check_uses_the_closed_form():
    k1, k2 = benchmarks.inclined_exact(30)
    check = workloads.WORKLOADS["inclined-dump"].check
    assert check(_rows((k1, k2), (k1, 1.005 * k2)), None) == []
    assert check(_rows((k1, k2), (k1, 1.02 * k2)), None)


def test_hole_check_counts_increments_and_direction(tmp_path):
    check = workloads.WORKLOADS["hole-growth"].check

    def log(ys):
        text = "".join(f"  extension: crack 0 tip 1 grew 0.003 m at 1 deg -> "
                       f"(0.01, {y!r})\n" for y in ys)
        (tmp_path / "run_log.txt").write_text(text)
        return check([], str(tmp_path))

    assert log([0.0506] * 20) == []
    assert log([0.0506] * 19)
    assert log([0.0506] * 19 + [0.0504])
