"""Tests for the background-mesh layer: documents, shape functions,
quadrature, and point location."""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfem2d.benchmarks import hole_attraction_config, table1_config
from xfem2d.mesh import (
    _ND_LEAF,
    DissectionTree,
    Mesh,
    MeshFormatError,
    QuadratureSet,
    _dissect_level,
    _distinct,
    _element_node_pairs,
    _gauss_1d,
    _member,
    dump_mesh,
    gauss_rule,
    jacobian,
    load_mesh,
    locate_hits,
    locate_points,
    _newton_invert,
    element_geometry,
    reference_shape,
    shape_functions,
)
from xfem2d.meshgen import uniform_rect, windowed_rect


def edge_owners(mesh):
    """Elements sharing each edge, keyed by sorted corner-node pair in order
    of first element, with the edge's local index in its first owner."""
    owners = {}
    for eid, quad in enumerate(mesh.elements.tolist()):
        for k, (a, b) in enumerate(zip(quad, quad[1:] + quad[:1])):
            owners.setdefault((min(a, b), max(a, b)), ([], k))[0].append(eid)
    return owners


UNIT_SQUARE_DOC = """\
xfem-mesh 1
4 1
0 0
1 0
1 1
0 1
0 1 2 3
boundary bottom 2
0 1
"""


def structured_mesh(nx, ny, lx=1.0, ly=1.0):
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    elems = []
    for j in range(ny):
        for i in range(nx):
            n0 = j * (nx + 1) + i
            elems.append([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    return Mesh(nodes=nodes, elements=np.array(elems))


def unit_square_lines(**replace):
    """The unit-square document's lines, with ``line<N>=text`` replacing
    line N (``None`` drops it)."""
    lines = UNIT_SQUARE_DOC.splitlines()
    for key, text in replace.items():
        lines[int(key[4:]) - 1] = text
    return "\n".join(line for line in lines if line is not None) + "\n"


# Each malformed document with the exact message it must raise.
MALFORMED_DOCS = [
    ("", "empty mesh document"),
    ("# nothing but a comment\n\n   \n", "empty mesh document"),
    (unit_square_lines(line1="xfem-mesh 2"), "line 1: expected magic 'xfem-mesh 1'"),
    (unit_square_lines(line2="4"), "line 2: expected '<node_count> <element_count>'"),
    (unit_square_lines(line2="4 one"), "line 2: expected '<node_count> <element_count>'"),
    (unit_square_lines(line2="-1 1"), "line 2: counts must be non-negative"),
    (unit_square_lines(line5="1 1 1"), "line 5: node 2 needs exactly two coordinates"),
    (unit_square_lines(line3="0"), "line 3: node 0 needs exactly two coordinates"),
    (unit_square_lines(line4="1 y"), "line 4: node 1 has a non-numeric coordinate"),
    # comments and blank lines still count toward the line number
    (unit_square_lines(line3="0 0\n# comment\n\n1 0", line4=None, line5="1 1 # a\n"
                       "1 1e"), "line 8: node 3 has a non-numeric coordinate"),
    (unit_square_lines(line7="0 1 2"), "line 7: element 0 needs exactly four node indices"),
    (unit_square_lines(line7="0 1 2 3.0"), "line 7: element 0 has a non-integer index"),
    (unit_square_lines(line7="0 1 2 9"), "line 7: element 0 references node index outside 0..3"),
    # indices past int64, which NumPy cannot hold, are out of range too
    (unit_square_lines(line7="0 1 2 99999999999999999999"),
     "line 7: element 0 references node index outside 0..3"),
    (unit_square_lines(line7="0 -99999999999999999999 2 3"),
     "line 7: element 0 references node index outside 0..3"),
    (unit_square_lines(line4="1e999 0"), "line 4: node 1 has a non-finite coordinate"),
    (unit_square_lines(line5="1 nan"), "line 5: node 2 has a non-finite coordinate"),
    (unit_square_lines(line3="-inf 0", line6="0 inf"),
     "line 3: node 0 has a non-finite coordinate"),
    (unit_square_lines(line3="0 0\n# comment", line6="inf 1"),
     "line 7: node 3 has a non-finite coordinate"),
    # finite corners whose Jacobians overflow
    (unit_square_lines(line3="-1e308 -1e308", line4="1e308 -1e308", line5="1e308 1e308",
                       line6="-1e308 1e308"), "element 0 has a non-finite Jacobian"),
    # a document cut short inside the node or element block
    ("xfem-mesh 1\n4 1\n0 0\n1 0\n", "unexpected end of mesh document"),
    (UNIT_SQUARE_DOC.split("0 1 2 3")[0], "unexpected end of mesh document"),
    # a bad line before the cut is reported first
    ("xfem-mesh 1\n4 1\n0 0\n1 x\n", "line 4: node 1 has a non-numeric coordinate"),
    (unit_square_lines(line8="bound bottom 2"), "line 8: expected 'boundary <name> <count>'"),
    (unit_square_lines(line8="boundary bottom"), "line 8: expected 'boundary <name> <count>'"),
    (unit_square_lines(line8="boundary bottom two"),
     "line 8: boundary 'bottom' has a non-integer count"),
    (UNIT_SQUARE_DOC + "boundary bottom 1\n2\n", "line 10: duplicate boundary 'bottom'"),
    (unit_square_lines(line9="0 x"), "line 9: boundary 'bottom' has a non-integer node index"),
    (unit_square_lines(line9="0 1 2"), "line 9: boundary 'bottom' lists more than 2 indices"),
    (unit_square_lines(line9="0 4"),
     "line 9: boundary 'bottom' references node index outside 0..3"),
    (unit_square_lines(line9="0\n\n-1"),
     "line 11: boundary 'bottom' references node index outside 0..3"),
    (unit_square_lines(line9="99999999999999999999 1"),
     "line 9: boundary 'bottom' references node index outside 0..3"),
    (unit_square_lines(line8="boundary bottom 3"), "unexpected end of mesh document"),
]


class TestMeshDocument:
    def test_unit_square(self):
        mesh = load_mesh(UNIT_SQUARE_DOC)
        assert mesh.n_nodes == 4
        assert mesh.n_elements == 1
        for local in [(-1, -1), (0.3, -0.7), (0, 0), (1, 1)]:
            det, _ = jacobian(mesh.element_coords([0])[0], reference_shape(*local)[1])
            assert det == pytest.approx(0.25)
        assert list(mesh.boundary_tags["bottom"]) == [0, 1]

    def test_out_of_range_index_names_element(self):
        doc = UNIT_SQUARE_DOC.replace("0 1 2 3", "0 1 2 9")
        with pytest.raises(MeshFormatError, match="element 0"):
            load_mesh(doc)

    def test_out_of_range_index_names_its_line(self):
        doc = ("xfem-mesh 1\n6 2\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n"
               "0 1 4 3\n# second element\n1 2 5 6\n")
        with pytest.raises(MeshFormatError,
                           match=r"line 11: element 1 references node index outside 0\.\.5"):
            load_mesh(doc)

    @pytest.mark.parametrize("doc, message", MALFORMED_DOCS)
    def test_malformed_document_message(self, doc, message):
        with pytest.raises(MeshFormatError) as info:
            load_mesh(doc)
        assert str(info.value) == message

    def test_boundary_block_may_span_lines(self):
        mesh = load_mesh(unit_square_lines(line9="0\n\n1"))
        assert mesh.boundary_tags["bottom"].tolist() == [0, 1]

    def test_degenerate_element_reported(self):
        doc = "xfem-mesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n0 2 1 3\n"
        with pytest.raises(MeshFormatError, match="element 0"):
            load_mesh(doc)

    def test_bad_magic(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            load_mesh("not-a-mesh\n")

    def test_comments_ignored(self):
        doc = "# header comment\n" + UNIT_SQUARE_DOC.replace("0 0", "0 0  # origin")
        assert load_mesh(doc).n_nodes == 4

    def test_grid_area_by_quadrature(self):
        mesh = structured_mesh(10, 10)
        assert mesh.n_elements == 100
        _, _, wdet, _ = element_geometry(mesh.element_coords(np.arange(100)), gauss_rule(4))
        assert wdet.sum() == pytest.approx(1.0, rel=1e-10)

    def test_round_trip(self):
        mesh = load_mesh(UNIT_SQUARE_DOC)
        again = load_mesh(dump_mesh(mesh))
        np.testing.assert_array_equal(mesh.nodes, again.nodes)
        np.testing.assert_array_equal(mesh.elements, again.elements)
        np.testing.assert_array_equal(
            mesh.boundary_tags["bottom"], again.boundary_tags["bottom"]
        )


def dump_mesh_by_line(mesh):
    """Reference writer: one f-string per node, element and index row."""
    out = ["xfem-mesh 1", f"{mesh.n_nodes} {mesh.n_elements}"]
    for x, y in mesh.nodes:
        out.append(f"{x:.17g} {y:.17g}")
    for quad in mesh.elements:
        out.append(" ".join(str(int(i)) for i in quad))
    for name, ids in mesh.boundary_tags.items():
        out.append(f"boundary {name} {ids.size}")
        for start in range(0, ids.size, 16):
            out.append(" ".join(str(int(i)) for i in ids[start:start + 16]))
    return "\n".join(out) + "\n"


def parse_by_token(doc):
    """Reference parse of a document's node and element blocks: comments
    and blank lines dropped, then ``float``/``int`` on every token."""
    rows = [r for r in (line.split("#", 1)[0].split() for line in doc.splitlines()) if r]
    n, m = (int(t) for t in rows[1])
    nodes = np.array([[float(t) for t in r] for r in rows[2:2 + n]], dtype=float)
    elements = np.array([[int(t) for t in r] for r in rows[2 + n:2 + n + m]], dtype=np.int64)
    return nodes.reshape(n, 2), elements.reshape(m, 4)


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# Finite floats with the edge cases a writer can get wrong drawn often.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3])
FINITE_FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def meshes(draw):
    """A grid of valid quads plus free nodes that no element uses, so any
    finite coordinate can appear, and boundary tags of any size."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lx, ly = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    grid = structured_mesh(nx, ny, lx, ly)
    free = draw(st.lists(st.tuples(FINITE_FLOATS, FINITE_FLOATS), max_size=12))
    nodes = np.vstack([grid.nodes, np.array(free, dtype=float).reshape(-1, 2)])
    elements = grid.elements if draw(st.booleans()) else np.zeros((0, 4), dtype=np.int64)
    names = draw(st.lists(st.text("abyz_09", min_size=1, max_size=5), unique=True, max_size=3))
    index = st.integers(0, len(nodes) - 1)
    tags = {name: np.array(draw(st.lists(index, max_size=40)), dtype=np.int64) for name in names}
    return Mesh(nodes=nodes, elements=elements, boundary_tags=tags)


EDGE_MESH = Mesh(
    nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-0.0, 5e-324],
                    [1e308, -1e308], [-5e-324, 2.2250738585072014e-308]]),
    elements=np.array([[0, 1, 2, 3]]),
    boundary_tags={"empty": np.array([], dtype=np.int64), "long": np.arange(35) % 7},
)


class TestDocumentRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(mesh=meshes())
    @example(mesh=EDGE_MESH)
    def test_dump_matches_line_writer_and_loads_bit_equal(self, mesh):
        text = dump_mesh(mesh)
        assert text == dump_mesh_by_line(mesh)
        again = load_mesh(text)
        assert_bit_equal(again.nodes, mesh.nodes)
        assert_bit_equal(again.elements, mesh.elements)
        assert list(again.boundary_tags) == list(mesh.boundary_tags)
        for name, ids in mesh.boundary_tags.items():
            assert_bit_equal(again.boundary_tags[name], ids)


# The unit square scaled by 10, spelt with tokens Python's float/int accept
# and NumPy's parser may not, with tabs, trailing spaces, a comment and a
# blank line inside the blocks.
SPELT_SQUARES = [
    "xfem-mesh 1\n4 1\n0 0\n1_0\t+0 \n# inside the block\n\n+10.0 ١٠\n00 1e1  # a note\n"
    "0 01 +2 ٣\n",
    "xfem-mesh 1\n4 1\n0\t0\n+10 -0\n10.\t\t1E1   \n\n0 .1e2\n0 0_1 2 3\n",
    "xfem-mesh 1\n4 1\n0 0\n10 0\n10 10\n0 10\n 0\t+1   02 3 # last\n",
    "xfem-mesh 1\n4 1\n0 0\n10 0\n10 10\n0 10\n0 1 2 3\n",
]


class TestParseParity:
    @pytest.mark.parametrize("doc", SPELT_SQUARES)
    def test_blocks_match_per_token_parse(self, doc):
        mesh = load_mesh(doc)
        nodes, elements = parse_by_token(doc)
        assert_bit_equal(mesh.nodes, nodes)
        assert_bit_equal(mesh.elements, elements)

    def test_line_parse_only_for_blocks_numpy_refuses(self, monkeypatch):
        read = []
        loadtxt = np.loadtxt

        def recorded(*args, **kwargs):
            read.append(loadtxt(*args, **kwargs))
            return read[-1]

        monkeypatch.setattr(np, "loadtxt", recorded)
        mesh = load_mesh(dump_mesh(hole_attraction_config().mesh))
        # both blocks are the very arrays NumPy's parser returned
        assert len(read) == 2 and mesh.nodes is read[0] and mesh.elements is read[1]
        read.clear()
        mesh = load_mesh(SPELT_SQUARES[0])
        assert read == []  # NumPy refuses both of its blocks, parsed line by line
        assert_bit_equal(mesh.nodes, parse_by_token(SPELT_SQUARES[0])[0])

    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(
        FINITE_FLOATS.map(repr) | FINITE_FLOATS.map("{:+.6e}".format)
        | st.sampled_from(["nan", "-inf", "1e999", "1_0", "٣", "+3", "03", "1e", "0x1p3", "3."])
        | st.from_regex(r"\A[+-]?[0-9_]{0,3}\.?[0-9]{0,2}([eE][+-]?[0-9]{1,3})?\Z").filter(bool),
        min_size=2, max_size=8).filter(lambda t: len(t) % 2 == 0))
    def test_coordinates_match_float(self, tokens):
        """Free nodes spelt any way parse as ``float`` reads them, or fail
        with the message of their first offending line."""
        rows = [" ".join(tokens[i:i + 2]) for i in range(0, len(tokens), 2)]
        doc = "xfem-mesh 1\n{} 1\n0 0\n1 0\n1 1\n0 1\n{}\n0 1 2 3\n".format(
            4 + len(rows), "\n".join(rows))
        values = []
        for i, row in enumerate(rows):
            try:
                values += map(float, row.split())
            except ValueError:
                with pytest.raises(MeshFormatError,
                                   match=rf"^line {7 + i}: node {4 + i} has a non-numeric"):
                    load_mesh(doc)
                return
        if not np.all(np.isfinite(values)):
            with pytest.raises(MeshFormatError, match="non-finite coordinate"):
                load_mesh(doc)
            return
        assert_bit_equal(load_mesh(doc).nodes[4:].ravel(), np.array(values))


class TestInMemoryMesh:
    def test_messages_without_lines(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, np.nan]])
        with pytest.raises(MeshFormatError, match="^node coordinates must be finite$"):
            Mesh(nodes=square, elements=[[0, 1, 2, 3]])
        with pytest.raises(MeshFormatError,
                           match="^boundary 'b' references an invalid node index$"):
            Mesh(nodes=square[:3].tolist() + [[0.0, 1.0]], elements=[[0, 1, 2, 3]],
                 boundary_tags={"b": [4]})

    def test_overflowing_jacobian_rejected(self):
        # Finite corners 2e308 apart: every corner Jacobian overflows, which
        # a sign check alone lets through (an infinite or NaN determinant).
        big = [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]
        with pytest.raises(MeshFormatError, match="^element 0 has a non-finite Jacobian$"):
            Mesh(nodes=big, elements=[[0, 1, 2, 3]])


def element_boxes(mesh):
    """Each element's coordinate minima and maxima, each (n_elements, 2)."""
    xy = mesh.element_coords()
    return xy.min(axis=1), xy.max(axis=1)


def padded_boxes(mesh):
    """Each element's box, padded by 1e-9 of its extent."""
    lo, hi = element_boxes(mesh)
    pad = 1e-9 * np.max(hi - lo, axis=1, keepdims=True)
    return lo - pad, hi + pad


def assert_pairs_match_scan(mesh, lo, hi, box, eid):
    """``box_query``'s pairs are those of a scan of every element's padded
    box against every query box, in that order."""
    elo, ehi = padded_boxes(mesh)
    meet = (np.all(elo[None] <= hi[:, None], axis=2)
            & np.all(ehi[None] >= lo[:, None], axis=2))
    expected_box, expected_eid = np.nonzero(meet)
    np.testing.assert_array_equal(box, expected_box)
    np.testing.assert_array_equal(eid, expected_eid)


QUERY_MESHES = {
    "uniform": lambda: uniform_rect(1.0, 1.0, 12, 9),
    "aligned": lambda: uniform_rect(1.0, 1.0, 12, 12),  # one grid cell per element
    "graded": lambda: windowed_rect((-2.5, 2.5), (-2.5, 2.5), (-0.5, 0.5), (-0.5, 0.5), 0.25),
    "perturbed": lambda: perturbed_grid(),
    "holed": lambda: hole_attraction_config().mesh,
}


@functools.lru_cache(maxsize=None)
def query_mesh(name):
    return QUERY_MESHES[name]()


@st.composite
def query_boxes(draw, mesh):
    """Boxes around and beyond ``mesh``: points (zero-size boxes), points
    on element corners and on element edges, boxes that end exactly on an
    element's padded box, boxes wider than the mesh and boxes outside it."""
    lo, hi = mesh.bbox()
    span = hi - lo
    coord = st.floats(-0.5, 1.5).map(float)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["box", "point", "corner", "edge", "touch", "outside",
                                     "whole"]))
        a = lo + span * [draw(coord), draw(coord)]
        b = lo + span * [draw(coord), draw(coord)]
        if kind == "point":
            b = a
        elif kind == "corner":
            a = b = mesh.nodes[mesh.elements[draw(st.integers(0, mesh.n_elements - 1)),
                                             draw(st.integers(0, 3))]]
        elif kind == "edge":  # exact on an axis-parallel edge: t is a multiple of 1/8
            quad = mesh.element_coords([draw(st.integers(0, mesh.n_elements - 1))])[0]
            k, t = draw(st.integers(0, 3)), draw(st.integers(0, 8)) / 8.0
            a = b = quad[k] + t * (quad[(k + 1) % 4] - quad[k])
        elif kind == "touch":
            plo, phi = (x[draw(st.integers(0, mesh.n_elements - 1))] for x in padded_boxes(mesh))
            a, b = (plo - span * draw(st.floats(0.0, 0.5)), plo) if draw(st.booleans()) else (
                phi, phi + span * draw(st.floats(0.0, 0.5)))
        elif kind == "outside":
            a = hi + span * draw(st.floats(1e-6, 1.0))
            b = a + span * draw(st.floats(0.0, 1.0))
        elif kind == "whole":
            a, b = lo - span, hi + span
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    lo_q, hi_q = (np.array(x, dtype=float) for x in zip(*boxes))
    return lo_q, hi_q


class TestBoxQuery:
    """The grid's one query against a scan of every element box."""

    @pytest.mark.parametrize("name", sorted(QUERY_MESHES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_a_scan(self, name, data):
        mesh = query_mesh(name)
        lo, hi = data.draw(query_boxes(mesh))
        box, eid = mesh.box_query(lo, hi)
        assert_pairs_match_scan(mesh, lo, hi, box, eid)

    @pytest.mark.parametrize("name", sorted(QUERY_MESHES))
    def test_grid_lists_each_element_where_its_box_is(self, name):
        # An element is listed only in cells its unpadded box meets, so one
        # narrower than a cell sits in at most two cells along each axis; on
        # a mesh that matches the grid, about one cell per element, where its
        # padded box would reach nine.
        mesh = query_mesh(name)
        origin, cell, (nx, ny), start, elements, *_ = mesh.point_grid
        lo, hi = element_boxes(mesh)
        ix, iy = np.divmod(np.repeat(np.arange(nx * ny), np.diff(start)), ny)
        clo = origin + cell * np.column_stack([ix, iy])
        slack = 1e-12 * cell  # the rounding of the cell coordinate
        assert np.all(lo[elements] <= clo + cell + slack) and np.all(hi[elements] >= clo - slack)
        narrow = np.all(hi - lo < 0.999 * cell, axis=1)
        assert np.bincount(elements, minlength=mesh.n_elements)[narrow].max(initial=0) <= 4
        if name == "aligned":
            assert elements.size < 2 * mesh.n_elements

    def test_one_box_and_no_boxes(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        box, eid = mesh.box_query([0.3, 0.3], [0.3, 0.3])
        assert box.tolist() == [0] and eid.tolist() == [5]
        box, eid = mesh.box_query(np.empty((0, 2)), np.empty((0, 2)))
        assert box.size == 0 and eid.size == 0


class TestDerivedData:
    def test_built_once_per_mesh(self):
        mesh = structured_mesh(3, 2)
        for name in ("element_sizes", "node_to_elements", "boundary_edges",
                     "point_grid", "nested_dissection_tree"):
            assert getattr(mesh, name) is getattr(mesh, name)
        assert not mesh.element_sizes.flags.writeable

    def test_sizes_match_corner_loops(self):
        for mesh in (structured_mesh(4, 3, 2.0, 1.5), hole_attraction_config().mesh):
            xy = mesh.element_coords()
            np.testing.assert_allclose(mesh.element_sizes, [
                max(np.linalg.norm(q[2] - q[0]), np.linalg.norm(q[3] - q[1])) for q in xy],
                rtol=1e-15)

    def test_box_query_matches_a_scan(self):
        mesh = hole_attraction_config().mesh
        rng = np.random.default_rng(11)
        a, b = np.sort(rng.uniform(-0.01, 0.11, size=(2, 40, 2)), axis=0)
        b = a + rng.choice([0.0, 1.0], size=(40, 1)) * (b - a)  # points as well as boxes
        box, eid = mesh.box_query(a, b)
        assert_pairs_match_scan(mesh, a, b, box, eid)
        # a box on an element's corner meets every element sharing it
        corner = mesh.nodes[mesh.elements[100, 2]]
        assert 100 in mesh.box_query(corner, corner)[1]

    def test_node_supports_ascend(self):
        mesh = structured_mesh(3, 2)
        ptr, ids = mesh.node_to_elements
        assert ptr.size == mesh.n_nodes + 1 and ptr[0] == 0 and ptr[-1] == ids.size
        assert not ptr.flags.writeable and not ids.flags.writeable
        for n in range(mesh.n_nodes):
            expected = [e for e, quad in enumerate(mesh.elements) if n in quad]
            assert ids[ptr[n]:ptr[n + 1]].tolist() == expected

    def test_boundary_edges(self):
        assert structured_mesh(3, 2).boundary_edges.shape == (2 * (3 + 2), 4)
        for mesh in (structured_mesh(3, 2), hole_attraction_config().mesh):
            expected = [(a, b, owners[0], side)
                        for (a, b), (owners, side) in edge_owners(mesh).items()
                        if len(owners) == 1]
            np.testing.assert_array_equal(mesh.boundary_edges, expected)

    def test_boundary_distance_matches_edge_by_edge(self):
        mesh = structured_mesh(4, 3, 2.0, 1.5)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-0.5, 2.5, size=(30, 2)):
            best = np.inf
            for a, b in mesh.boundary_edges[:, :2]:
                pa, pb = mesh.nodes[a], mesh.nodes[b]
                t = np.clip(np.dot(x - pa, pb - pa) / np.dot(pb - pa, pb - pa), 0, 1)
                best = min(best, np.linalg.norm(x - (pa + t * (pb - pa))))
            assert mesh.boundary_distance(x) == pytest.approx(best, rel=1e-12,
                                                              abs=1e-15)
        assert mesh.boundary_distance((1.0, 0.0)) == 0.0
        assert mesh.boundary_distance((1.0, 0.5)) == pytest.approx(0.5)


ORDERING_MESHES = {
    "uniform": lambda: uniform_rect(1.5, 1.0, 36, 24),
    "holed": lambda: hole_attraction_config().mesh,
    "graded": lambda: windowed_rect((-2.5, 2.5), (-2.5, 2.5), (-0.5, 0.5),
                                    (-0.5, 0.5), 0.05),
}


class TestNestedDissection:
    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_order_is_a_permutation_and_repeats(self, name):
        mesh = ORDERING_MESHES[name]()
        order = mesh.nested_dissection_tree.order
        np.testing.assert_array_equal(np.sort(order), np.arange(mesh.n_nodes))
        twin = Mesh(mesh.nodes.copy(), mesh.elements.copy(), dict(mesh.boundary_tags))
        np.testing.assert_array_equal(twin.nested_dissection_tree.order, order)

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_top_level_separator_splits_the_graph(self, name):
        mesh = ORDERING_MESHES[name]()
        pairs = _element_node_pairs(mesh.elements, mesh.n_nodes)
        side, sep, _ = _dissect_level(mesh.nodes, pairs.T, np.zeros(mesh.n_nodes, dtype=np.int64),
                                      np.argsort(mesh.nodes, axis=0, kind="stable").T)
        assert abs(np.sum(side == 0) - np.sum(side == 1)) <= 1
        a, b = pairs.T
        assert not np.any((side[a] != side[b]) & ~sep[a] & ~sep[b])
        # Numbered lower half, upper half, then the separator.
        position = np.empty(mesh.n_nodes, dtype=np.int64)
        position[mesh.nested_dissection_tree.order] = np.arange(mesh.n_nodes)
        lower = position[(side == 0) & ~sep]
        upper = position[(side == 1) & ~sep]
        assert lower.max() < upper.min()
        assert upper.max() < position[sep].min()
        assert position[sep].max() == mesh.n_nodes - 1

    def test_graph_holds_element_edges_and_diagonals(self):
        nx, ny = 5, 3
        mesh = uniform_rect(1.0, 1.0, nx, ny)
        pairs = _element_node_pairs(mesh.elements, mesh.n_nodes)
        assert len(pairs) == nx * (ny + 1) + (nx + 1) * ny + 2 * nx * ny
        assert np.all(pairs[:, 0] < pairs[:, 1])

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_tree_fronts_partition_and_rows_are_coupled_ancestors(self, name):
        mesh = ORDERING_MESHES[name]()
        tree = mesh.nested_dissection_tree
        n, fronts = mesh.n_nodes, np.arange(tree.n_fronts)
        # The fronts partition the order into non-empty runs.
        assert tree.start[0] == 0 and tree.start[-1] == n
        assert np.all(np.diff(tree.start) > 0)
        # Every parent comes after its children.
        assert np.all((tree.parent > fronts) | (tree.parent == -1))
        assert np.sum(tree.parent == -1) == 1
        # A front's rows are the nodes outside its subtree that share an
        # element with a node in it, and each lies in an ancestor front.
        position = np.empty(n, dtype=np.int64)
        position[tree.order] = np.arange(n)
        a, b = position[_element_node_pairs(mesh.elements, n)].T
        graph = sp.coo_matrix((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])),
                              shape=(n, n)).tocsr()
        front_of = np.repeat(fronts, np.diff(tree.start))
        subtree = [None] * tree.n_fronts
        for f in fronts:
            inside = np.zeros(n, dtype=bool)
            inside[tree.start[f]:tree.start[f + 1]] = True
            for c in tree.children[f]:
                inside |= subtree[c]
            subtree[f] = inside
            coupled = np.flatnonzero((graph @ inside > 0) & ~inside)
            rows = tree.rows[tree.row_start[f]:tree.row_start[f + 1]]
            np.testing.assert_array_equal(rows, coupled)
            ancestors = []
            g = tree.parent[f]
            while g >= 0:
                ancestors.append(g)
                g = tree.parent[g]
            assert set(front_of[rows].tolist()) <= set(ancestors)
            if rows.size:
                assert tree.parent[f] == front_of[rows[0]]

    @pytest.mark.parametrize("make", [*(ORDERING_MESHES[k] for k in sorted(ORDERING_MESHES)),
                                      lambda: table1_config(12.5).mesh],
                             ids=[*sorted(ORDERING_MESHES), "table1-plate"])
    def test_each_part_is_cut_at_its_smaller_median_separator(self, make):
        mesh = make()
        n = mesh.n_nodes
        pairs = _element_node_pairs(mesh.elements, n)
        ends = np.ascontiguousarray(pairs.T, dtype=np.int32)
        part = np.zeros(n, dtype=np.int64)
        by_axis = np.argsort(mesh.nodes, axis=0, kind="stable").T
        levels = 0
        while True:  # the levels of Mesh.nested_dissection_tree
            live = np.nonzero(part >= 0)[0]
            small = np.bincount(part[live])[part[live]] <= _ND_LEAF
            part[live[small]] = -1
            if small.all():
                break
            by_axis = by_axis[part[by_axis] >= 0].reshape(2, -1)
            live, p, _, sides, seps, counts = median_cuts(mesh.nodes, pairs, part)
            side, sep, by_axis = _dissect_level(mesh.nodes, ends, part, by_axis)
            # Each part is cut at one axis's median, with that cut's
            # separator, and leaves no more separator nodes than the other's.
            same = [np.bincount(p, weights=(side[live] != sides[a][live])
                                | (sep[live] != seps[a][live]), minlength=p.max() + 1) == 0
                    for a in (0, 1)]
            assert np.all(same[0] | same[1])
            kept = np.bincount(p[sep[live]], minlength=p.max() + 1)
            assert np.all(kept <= np.minimum(*counts))
            part = np.where(side >= 0, 2 * part + side, -1)
            part[sep] = -1
            levels += 1
        assert levels >= 3

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_leaves_list_their_interior_first(self, name):
        mesh = ORDERING_MESHES[name]()
        tree, n = mesh.nested_dissection_tree, mesh.n_nodes
        front = np.empty(n, dtype=np.int64)
        front[tree.order] = np.repeat(np.arange(tree.n_fronts), np.diff(tree.start))
        a, b = _element_node_pairs(mesh.elements, n).T
        apart = front[a] != front[b]
        touching = np.zeros(n, dtype=bool)
        touching[a[apart]] = touching[b[apart]] = True
        leaves = [f for f in range(tree.n_fronts) if not tree.children[f]]
        for f in leaves:
            nodes = tree.order[tree.start[f]:tree.start[f + 1]]
            last = touching[nodes]
            # The nodes that pair with another front come after those that
            # do not, and each group keeps index order.
            assert not np.any(last[:-1] & ~last[1:]), f
            assert np.all(np.diff(nodes[~last]) > 0) and np.all(np.diff(nodes[last]) > 0), f
            assert tree.lead[f] == np.sum(~last), f
        inner = [f for f in range(tree.n_fronts) if tree.children[f]]
        assert np.all(tree.lead[inner] == 0)
        assert np.all(tree.lead[leaves] > 0)
        assert np.all(tree.lead[leaves] < np.diff(tree.start)[leaves])

    def test_small_mesh_keeps_index_order(self):
        mesh = uniform_rect(1.0, 1.0, 6, 6)  # 49 nodes: a single leaf
        np.testing.assert_array_equal(mesh.nested_dissection_tree.order,
                                      np.arange(mesh.n_nodes))
        assert mesh.nested_dissection_tree.n_fronts == 1


def median_cuts(nodes, pairs, part):
    """Both median cuts of every open part, as first built: a lexsort per
    axis and level.  Returns the open nodes, each one's part rank, each
    part's bounding-box extent (parts, 2) and, per axis a, ``sides[a]``
    (n,): -1 for placed nodes, 0 below the part's median rank along a and
    1 from it on; ``seps[a]`` (n,): the upper end of every pair crossing
    that cut; and ``counts[a]``: each part's number of those nodes."""
    n = nodes.shape[0]
    live = np.nonzero(part >= 0)[0]
    _, p = np.unique(part[live], return_inverse=True)
    sizes = np.bincount(p)
    starts = np.cumsum(sizes) - sizes
    xy = nodes[live]
    by_part = np.argsort(p, kind="stable")
    span = (np.maximum.reduceat(xy[by_part], starts)
            - np.minimum.reduceat(xy[by_part], starts))
    sides, seps, counts = [], [], []
    for a in (0, 1):
        order = np.lexsort((xy[:, a], p))
        rank = np.empty(live.size, dtype=np.int64)
        rank[order] = np.arange(live.size) - starts[p[order]]
        side = np.full(n, -1, dtype=np.int64)
        side[live] = rank >= sizes[p] // 2
        sa, sb = side[pairs[:, 0]], side[pairs[:, 1]]
        cross = (sa >= 0) & (sb >= 0) & (sa != sb)
        sep = np.zeros(n, dtype=bool)
        sep[np.where(sa[cross] == 1, pairs[cross, 0], pairs[cross, 1])] = True
        sides.append(side)
        seps.append(sep)
        counts.append(np.bincount(p[sep[live]], minlength=sizes.size))
    return live, p, span, sides, seps, counts


def reference_tree(mesh):
    """The nested-dissection tree as first built: one ``np.unique`` per
    level and per front, a lexsort per level and axis, a Python loop over
    the fronts.  Each part is cut across the axis whose median cut has the
    fewer separator nodes, across the longer side of its box on a tie.
    Each leaf lists first the nodes that share an element with no node of
    another front, found by a loop over each node's neighbours.  The
    reference the whole-array build must match exactly."""
    n = mesh.n_nodes
    i, j = np.triu_indices(4, 1)
    a, b = mesh.elements[:, i].ravel(), mesh.elements[:, j].ravel()
    pair_keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    pairs = np.column_stack([pair_keys // n, pair_keys % n])
    key = np.zeros(n, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)
    separator = np.zeros(n, dtype=bool)
    live_pairs = pairs
    while True:
        live = np.nonzero(part >= 0)[0]
        small = np.bincount(part[live])[part[live]] <= _ND_LEAF
        part[live[small]] = -1
        if small.all():
            break
        live, p, span, sides, seps, counts = median_cuts(mesh.nodes, live_pairs, part)
        along_y = np.where(counts[0] == counts[1], span[:, 1] > span[:, 0], counts[1] < counts[0])
        pick = np.zeros(n, dtype=bool)
        pick[live] = along_y[p]
        side = np.where(pick, sides[1], sides[0])
        sep = np.where(pick, seps[1], seps[0])
        key *= 3
        key += np.maximum(side, 0) + sep
        part = np.where(side >= 0, 2 * part + side, -1)
        part[sep] = -1
        separator |= sep
        live_pairs = live_pairs[(part[live_pairs[:, 0]] >= 0)
                                & (part[live_pairs[:, 1]] >= 0)]
    neighbours = [[] for _ in range(n)]
    for u, v in pairs.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    interior = np.array([all(key[w] == key[v] for w in neighbours[v]) for v in range(n)],
                        dtype=bool)
    order = []
    for k in np.unique(key):  # the fronts, in elimination order
        nodes = np.flatnonzero(key == k)
        if not separator[nodes[0]]:
            nodes = np.concatenate([nodes[interior[nodes]], nodes[~interior[nodes]]])
        order.extend(nodes.tolist())
    order = np.array(order, dtype=np.int64)
    keys = key[order]
    start = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1, [n]])
    n_fronts = start.size - 1
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    front = np.repeat(np.arange(n_fronts), np.diff(start))
    ends = np.sort(position[pairs], axis=1)
    owner = front[ends[:, 0]]
    out = ends[:, 1] >= start[owner + 1]
    direct = np.unique(owner[out] * n + ends[out, 1])
    bounds = np.searchsorted(direct // n, np.arange(n_fronts + 1))
    direct %= n
    parent = np.full(n_fronts, -1, dtype=np.int64)
    rows = []
    inherited = [[] for _ in range(n_fronts)]
    for f in range(n_fronts):
        end = start[f + 1]
        r = direct[bounds[f]:bounds[f + 1]]
        if inherited[f]:
            r = np.unique(np.concatenate([r] + [c[c >= end] for c in inherited[f]]))
        rows.append(r)
        if r.size:
            parent[f] = front[r[0]]
            inherited[parent[f]].append(r)
    lead = np.zeros(n_fronts, dtype=np.int64)
    for f in range(n_fronts):
        if f not in parent:
            for v in order[start[f]:start[f + 1]]:
                if not interior[v]:
                    break
                lead[f] += 1
    return DissectionTree(order=order, start=start, parent=parent,
                          row_start=np.cumsum([0] + [r.size for r in rows]),
                          rows=np.concatenate([np.empty(0, dtype=np.int64), *rows]), lead=lead)


def perturbed_grid():
    """A uniform grid with every interior node moved at random, so that
    coordinates rarely tie."""
    mesh = uniform_rect(1.2, 1.0, 30, 25)
    rng = np.random.default_rng(11)
    inner = np.all((mesh.nodes > 1e-9) & (mesh.nodes < [1.2 - 1e-9, 1.0 - 1e-9]), axis=1)
    nodes = mesh.nodes + inner[:, None] * rng.uniform(-0.01, 0.01, mesh.nodes.shape)
    return Mesh(nodes=nodes, elements=mesh.elements, boundary_tags=mesh.boundary_tags)


class TestSymbolicPlan:
    """The whole-array tree build against the reference it replaced."""

    @pytest.mark.parametrize("make", [
        lambda: table1_config(12.5).mesh,
        lambda: hole_attraction_config().mesh,
        lambda: uniform_rect(1.0, 1.0, 6, 6),
        perturbed_grid,
    ], ids=["table1-plate", "hole", "one-front", "perturbed"])
    def test_tree_arrays_match_the_reference(self, make):
        mesh = make()
        tree, expected = mesh.nested_dissection_tree, reference_tree(mesh)
        for name in ("order", "start", "parent", "row_start", "rows", "lead"):
            got, want = getattr(tree, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-40, 40) | st.integers(-2**31, 2**31 - 1),
                           max_size=60),
           dtype=st.sampled_from([np.int32, np.int64]), columns=st.sampled_from([None, 1, 2, 4]))
    @example(values=[], dtype=np.int64, columns=4)
    def test_distinct_is_unique(self, values, dtype, columns):
        # 1-D, or 2-D with the values cut to whole rows of ``columns``.
        a = np.array(values, dtype=dtype)
        if columns is not None:
            a = a[:a.size // columns * columns].reshape(-1, columns)
        got, want = _distinct(a), np.unique(a)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(st.integers(-40, 40) | st.integers(-2**62, 2**62), max_size=40),
           values=st.lists(st.integers(-40, 40) | st.integers(-2**62, 2**62), max_size=40),
           rows=st.sampled_from([None, 2]))
    def test_member_is_isin(self, a, values, rows):
        a, values = np.array(a, dtype=np.int64), np.sort(np.array(values, dtype=np.int64))
        if rows is not None:
            a = a[:a.size // rows * rows].reshape(rows, -1)
        got = _member(a, values)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, np.isin(a, values))


class TestJacobian:
    def test_matches_dense_inverse_for_any_leading_shape(self):
        rng = np.random.default_rng(17)
        xy = structured_mesh(3, 2).element_coords()  # (6, 4, 2)
        xy = xy + rng.uniform(-0.05, 0.05, size=xy.shape)
        local = rng.uniform(-1.0, 1.0, size=(5, 2))
        _, dref = reference_shape(local[:, 0], local[:, 1])  # (5, 4, 2)
        det, inv = jacobian(xy[:, None], dref)
        assert det.shape == (6, 5) and inv.shape == (6, 5, 2, 2)
        for m in range(6):
            for q in range(5):
                J = xy[m].T @ dref[q]
                assert det[m, q] == pytest.approx(np.linalg.det(J), rel=1e-12)
                np.testing.assert_allclose(inv[m, q], np.linalg.inv(J), rtol=1e-12)
        det1, inv1 = jacobian(xy[2], dref[3])
        assert det1 == det[2, 3]
        np.testing.assert_array_equal(inv1, inv[2, 3])


class TestShapeFunctions:
    def test_center_values(self):
        np.testing.assert_allclose(reference_shape(0.0, 0.0)[0], 0.25)

    def test_kronecker_property(self):
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        for i, corner in enumerate(corners):
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(reference_shape(*corner)[0], expected, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        # Distorted (but convex) quad so the physical gradient is nontrivial.
        nodes = np.array([[0.0, 0.0], [1.1, -0.1], [1.3, 0.9], [-0.2, 1.2]])
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2, 3]]))
        xy = mesh.element_coords([0])[0]
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(5):
            local = rng.uniform(-0.8, 0.8, size=2)
            values, dref = reference_shape(*local)
            x0 = values @ xy
            grads = dref @ jacobian(xy, dref)[1]

            def values_at(x):
                eids, locs = locate_points(mesh, x[None])
                return reference_shape(*locs[0])[0]

            fd = np.empty((4, 2))
            for k in range(2):
                dx = np.zeros(2)
                dx[k] = h
                fd[:, k] = (values_at(x0 + dx) - values_at(x0 - dx)) / (2 * h)
            np.testing.assert_allclose(grads, fd, rtol=1e-6, atol=1e-6)

    @given(
        xi=st.floats(-1, 1, allow_nan=False),
        eta=st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity(self, xi, eta):
        values, grads = reference_shape(xi, eta)
        assert abs(values.sum() - 1.0) <= 1e-14
        np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["standard", "cut", "tip"])
    def test_kernel_per_point_equals_element_geometry(self, name):
        # A point's shape data are the same bits whether the kernel is
        # called point by point, as at located and edge points, or
        # broadcast over a rule, as by element_geometry.
        mesh = perturbed_grid()
        rule = getattr(QuadratureSet.from_targets(), name)
        q, m = rule.n_points, mesh.n_elements
        xy = mesh.element_coords()
        N, dN, wdet, _ = element_geometry(xy, rule)
        N1, dN1, det1 = shape_functions(np.repeat(xy, q, axis=0), np.tile(rule.points, (m, 1)))
        assert np.ptp(det1.reshape(m, q), axis=1).min() > 0.0  # no element is affine
        assert N1.tobytes() == np.tile(N, (m, 1)).tobytes()
        assert dN1.tobytes() == dN.reshape(-1, 4, 2).tobytes()
        assert (rule.weights * det1.reshape(m, q)).tobytes() == wdet.tobytes()


class TestGaussRule:
    @pytest.mark.parametrize("target,expected", [(35, 36), (40, 49), (4, 4), (1, 1), (37, 49)])
    def test_point_counts(self, target, expected):
        assert gauss_rule(target).n_points == expected

    def test_two_by_two_weights(self):
        rule = gauss_rule(4)
        np.testing.assert_allclose(rule.weights, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    def test_exactness_up_to_nominal_degree(self, n):
        rule = gauss_rule(n * n)
        assert rule.n_points == n * n

        def exact_1d(p):
            return 0.0 if p % 2 else 2.0 / (p + 1)

        for p in range(2 * n):
            for q in range(2 * n):
                integral = np.sum(
                    rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q
                )
                assert integral == pytest.approx(exact_1d(p) * exact_1d(q), abs=1e-12)

    def test_weights_sum_to_reference_area(self):
        for target in (4, 35, 40, 100):
            assert gauss_rule(target).weights.sum() == pytest.approx(4.0, abs=1e-12)

    def test_nodes_and_weights_are_numpys_bit_for_bit(self):
        # Every order a rule of up to 64 x 64 points is built from, and the
        # edge rule's 6: the package's own steps give leggauss's bits.
        for n in range(1, 65):
            for ours, numpys in zip(_gauss_1d(n), leggauss(n)):
                assert ours.tobytes() == numpys.tobytes(), n
        rule = gauss_rule(40)
        x, w = leggauss(7)
        assert rule.points.tobytes() == np.column_stack(
            [np.repeat(x, 7), np.tile(x, 7)]).tobytes()
        assert rule.weights.tobytes() == np.outer(w, w).ravel().tobytes()


class TestLocatePoint:
    def test_centroids(self):
        mesh = structured_mesh(5, 4, 2.0, 1.0)
        eids, locals_ = locate_points(mesh, mesh.element_centroids())
        np.testing.assert_array_equal(eids, np.arange(mesh.n_elements))
        np.testing.assert_allclose(locals_, 0.0, atol=1e-10)

    def test_outside_bbox(self):
        mesh = structured_mesh(3, 3)
        outside = np.array([[5.0, 5.0], [-0.5, 0.5]])
        eids, _ = locate_points(mesh, outside)
        np.testing.assert_array_equal(eids, [-1, -1])
        assert locate_hits(mesh, outside)[0].size == 0

    def test_round_trip_random_points(self):
        mesh = structured_mesh(7, 5, 1.4, 1.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform([0.0, 0.0], [1.4, 1.0], size=(100, 2))
        eids, locals_ = locate_points(mesh, pts)
        for x, eid, local in zip(pts, eids, locals_):
            np.testing.assert_allclose(reference_shape(*local)[0] @ mesh.element_coords([eid])[0],
                                       x, atol=1e-10)

    def test_non_finite_point_is_outside_without_a_warning(self):
        mesh = structured_mesh(3, 3)
        pts = [[np.nan, 0.5], [0.5, 0.5], [0.5, np.inf], [-np.inf, np.nan]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eids, _ = locate_points(mesh, pts)
            box, _ = mesh.box_query(pts, pts)
        np.testing.assert_array_equal(eids, [-1, 4, -1, -1])
        assert set(box.tolist()) == {1}

    def test_shared_edge_resolves_to_lowest_id(self):
        mesh = structured_mesh(3, 3)
        # A point on the vertical edge between elements 0 and 1, and the
        # corner node shared by elements 0, 1, 3, 4.
        pts = np.array([[1.0 / 3.0, 0.1], [1.0 / 3.0, 1.0 / 3.0]])
        eids, _ = locate_points(mesh, pts)
        np.testing.assert_array_equal(eids, [0, 0])
        pt, eid, _ = locate_hits(mesh, pts)
        assert eid[pt == 0].tolist() == [0, 1]
        assert eid[pt == 1].tolist() == [0, 1, 3, 4]

    def test_batch_matches_scalar(self):
        mesh = structured_mesh(6, 6, 1.0, 1.0)
        rng = np.random.default_rng(3)
        pts = np.vstack([
            rng.uniform(0, 1, size=(40, 2)),
            [[1.5, 0.5], [0.5, -0.2]],  # not-found entries
        ])
        eids, locals_ = locate_points(mesh, pts)
        for i, x in enumerate(pts):
            eid, local = locate_points(mesh, x[None])
            assert eids[i] == eid[0]
            if eid[0] >= 0:
                np.testing.assert_allclose(locals_[i], local[0], atol=1e-9)

    def test_batch_matches_scalar_bit_for_bit_on_distorted_quads(self):
        # Each Newton pair stops at its own convergence, so a point's
        # reference coordinates do not depend on what else is in the batch,
        # such as candidates that never converge.
        mesh = hole_attraction_config().mesh
        lo, hi = mesh.bbox()
        pts = np.random.default_rng(4).uniform(lo - 0.01, hi + 0.01, size=(300, 2))
        eids, locals_ = locate_points(mesh, pts)
        for i, x in enumerate(pts):
            eid, local = locate_points(mesh, x[None])
            assert eid[0] == eids[i]
            assert local[0].tobytes() == locals_[i].tobytes()


def _brute_force_hits(mesh, x, tol=1e-9):
    """Ids of every element whose closed hull holds ``x``: Newton inversion
    on every element whose bounding box, widened by a margin far above the
    tolerance, holds it."""
    lo, hi = element_boxes(mesh)
    margin = 1e-6 * (hi - lo)
    near = np.nonzero(np.all((lo - margin <= x) & (x <= hi + margin), axis=1))[0]
    local, ok = _newton_invert(mesh.element_coords(near),
                               np.repeat(np.asarray(x, dtype=float)[None], near.size, 0))
    return near[ok & (np.max(np.abs(local), axis=1) <= 1.0 + tol)]


class TestBatchLocator:
    """The grid-backed batch locator against Newton inversion on every element."""

    def test_points_on_shared_edges_find_both_elements(self):
        # A point on an edge can lie an ulp outside one owner's bounding
        # box, at a grid-cell border; the padded grid still lists it.
        mesh = hole_attraction_config().mesh
        shared = {pair: owners for pair, (owners, _) in edge_owners(mesh).items()
                  if len(owners) == 2}
        assert len(shared) == 19352
        ends = np.array(list(shared))
        pts = 0.7 * mesh.nodes[ends[:, 0]] + 0.3 * mesh.nodes[ends[:, 1]]
        pt, eid, _ = locate_hits(mesh, pts)
        assert np.all(np.bincount(pt, minlength=len(pts)) == 2)
        np.testing.assert_array_equal(eid, np.concatenate(list(shared.values())))

    @pytest.mark.parametrize("name", sorted(ORDERING_MESHES))
    def test_matches_brute_force(self, name):
        mesh = ORDERING_MESHES[name]()
        rng = np.random.default_rng(11)
        lo, hi = mesh.bbox()
        span = hi - lo
        quads = mesh.element_coords(rng.choice(mesh.n_elements, 40, replace=False))
        # Points on shared edges: corners, midpoints and quarter points.
        mid = 0.5 * (quads + np.roll(quads, -1, axis=1))
        pts = np.vstack([
            rng.uniform(lo - 0.05 * span, hi + 0.05 * span, size=(60, 2)),
            quads.reshape(-1, 2),  # corners: shared by up to four elements
            mid.reshape(-1, 2),
            (0.5 * (quads + mid)).reshape(-1, 2),  # quarter points
            [lo - 0.1 * span, hi + 0.1 * span, [lo[0] - 1.0, hi[1]]],  # outside
        ])
        pt, eid, local = locate_hits(mesh, pts)
        eids, locals_ = locate_points(mesh, pts)
        assert np.all(np.diff(pt) >= 0)
        for i, x in enumerate(pts):
            expected = _brute_force_hits(mesh, x)
            assert eid[pt == i].tolist() == expected.tolist()
            assert eids[i] == (expected[0] if expected.size else -1)
            if expected.size:
                np.testing.assert_array_equal(locals_[i], local[pt == i][0])
                at = reference_shape(*locals_[i])[0] @ mesh.element_coords([eids[i]])[0]
                np.testing.assert_allclose(at, x, atol=1e-9 * np.max(span))
        # shared corners and edges do produce multi-element hit sets here
        assert np.max(np.bincount(pt)) >= 2

    def test_grid_lists_every_overlapping_element_ascending(self):
        mesh = ORDERING_MESHES["graded"]()
        origin, cell, (nx, ny), start, elements, plo, phi, _ = mesh.point_grid
        assert start.size == nx * ny + 1 and start[-1] == elements.size
        lo, hi = element_boxes(mesh)
        for mine, expected in zip((plo, phi), padded_boxes(mesh)):
            np.testing.assert_array_equal(mine, expected)
        for c in np.random.default_rng(2).choice(nx * ny, 50, replace=False):
            ix, iy = divmod(int(c), ny)
            members = elements[start[c]:start[c + 1]]
            assert np.all(np.diff(members) > 0)
            clo = origin + cell * (ix, iy)
            chi = clo + cell
            overlap = np.nonzero(np.all(lo <= chi, axis=1) & np.all(hi >= clo, axis=1))[0]
            # every element overlapping the cell's interior is listed
            inner = overlap[np.all(lo < chi, axis=1)[overlap] & np.all(hi > clo, axis=1)[overlap]]
            assert set(inner.tolist()) <= set(members.tolist())
