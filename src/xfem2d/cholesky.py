"""Supernodal multifrontal Cholesky factorization on the nested-dissection tree.

The stiffness matrix with its fixed dofs eliminated is symmetric positive
definite.  Its fronts are those of the mesh's node-level elimination tree
(:class:`~xfem2d.mesh.DissectionTree`), expanded to the free dofs each
node carries at this step: front f eliminates the free dofs of its own
nodes (its pivots) and couples them to the free dofs of its row nodes.
Each front is a dense matrix, assembled from element matrices plus the
update matrices of its children (extend-add).  LAPACK's ``dpotrf``
factors its pivot block, ``dtrsm`` gives the panel below it, and
``dsyrk`` forms the update matrix its parent consumes (Liu, SIAM Review
34, 1992).  A leaf front eliminates its interior first, the nodes that
share no element with another front (``DissectionTree.lead``), and their
panel columns are structurally zero: the panel is stored, solved for and
applied over the trailing columns alone, those of the nodes a separator
touches, as in static condensation (George, SIAM J. Numer. Anal. 10,
1973).  No global matrix is formed: as in the frontal method (Irons,
IJNME 2, 1970; Duff & Reid, ACM TOMS 9, 1983), element entries go straight
into the fronts that hold their nodes, summed over node pairs
(:class:`NodePairs`) and placed by one node-level rule,
:func:`_node_slots`, which also places each child's rows in its parent
(:func:`_extend_add_plan`, one array pass before the first front).

A :class:`FrontalCholesky` that is factored again keeps every front that
no changed element touches and whose nodes kept their layout: none of its
pivot nodes has a new change stamp (the assembly renews the stamps of the
four nodes of each element whose matrix it integrated or dropped), no
pivot or row node has a new free-dof layout, and all of its children were
kept.  Its entries are then those of the previous factorization, so it is
not gathered again.  Every other front is gathered and refactored, and
with it each of its ancestors, so the factor is exactly what a fresh
factorization would give.

The forward substitution skips each front whose incoming block is all
+0.0, which solves to +0.0 and updates nothing: a load reaches only the
fronts on the paths from its support to the root (Gilbert & Peierls, SIAM
J. Sci. Stat. Comput. 9, 1988).  The back substitution walks every front.

The six LAPACK and BLAS routines used here are scipy's own f2py wrapper
objects, the ones ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export, taken from the compiled modules ``scipy.linalg._flapack`` and
``scipy.linalg._fblas``.  Those load in about 11 ms.  Neither package
``__init__`` on the way to them runs.  ``scipy.linalg``'s would run its
array-API layer, whose ``from numpy import *`` loads ``numpy.f2py``,
``numpy.testing`` and more: about 0.2 s and 22 MiB of every process start
(``python -X importtime``).  ``scipy``'s own would load
``scipy._lib._testutils`` and through it ``subprocess``: about 12 ms.  So
:func:`_scipy_linalg_extension` finds scipy's directory by a top-level
lookup, which runs no code of the package, and loads the two modules from
its ``linalg`` directory; a later ``import scipy.linalg`` finds them in
``sys.modules`` and reuses them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from xfem2d.mesh import DissectionTree

__all__ = ["FactorStats", "FrontalCholesky", "NodePairs"]


def _scipy_linalg_extension(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded without running
    the ``__init__`` of ``scipy`` or ``scipy.linalg`` unless scipy has
    loaded it already."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    # A top-level lookup: it finds the package's directory without importing it.
    top = importlib.util.find_spec("scipy")
    locations = [os.path.join(path, "linalg") for path in top.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(full, locations)
    if spec is None:
        raise ImportError(f"no module named {full!r} in {locations}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


blas = _scipy_linalg_extension("_fblas")
lapack = _scipy_linalg_extension("_flapack")


@dataclass(frozen=True)
class FactorStats:
    """Size of one factorization and how much of it was redone."""

    free_dofs: int
    factor_entries: int  # stored entries of L: pivot triangles and panels, p(p+1)/2 + c r
    # of the refactored fronts: p^3/3 + c^2 r + c r^2 for p pivots, c of
    # them with a panel column, and r rows
    flops: int
    fronts_refactored: int
    fronts: int


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(first[k], first[k] + counts[k])`` over k."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(first - offsets, counts) + np.arange(counts.sum())


def _segment_any(mask: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Whether ``mask[ptr[k]:ptr[k + 1]]`` has a true entry, for each k."""
    total = np.concatenate([[0], np.cumsum(mask)])
    return total[ptr[1:]] > total[ptr[:-1]]


def _node_slots(tree: DissectionTree, a: np.ndarray, b: np.ndarray):
    """The front f eliminating the node at position ``a`` of ``tree.order``
    and the slot of position ``b`` >= a in it: b itself among its pivots,
    ``n + m`` as its row ``tree.rows[m]``; raises ``np.linalg.LinAlgError`` if
    neither, or if a row is paired with one of f's lead pivots, which have no panel
    columns."""
    n = tree.order.size
    f = np.repeat(np.arange(tree.n_fronts), np.diff(tree.start))[a]
    slot = np.array(b, dtype=np.int64)
    out = np.flatnonzero(slot >= tree.start[f + 1])
    keys = np.repeat(np.arange(tree.n_fronts) * n, np.diff(tree.row_start)) + tree.rows
    want = f[out] * n + slot[out]
    slot[out] = n + np.searchsorted(keys, want)
    lead = np.asarray(a)[out] - tree.start[f[out]] < tree.lead[f[out]]
    if np.any(np.append(keys, -1)[slot[out] - n] != want) or lead.any():
        raise np.linalg.LinAlgError("the matrix couples dofs that the elimination tree keeps apart")
    return f, slot


def _by_element(eids, parts) -> np.ndarray:
    """The rows of ``parts``, part g (..., e, k) over the elements
    ``eids[g]`` (e,), laid out by element id across the parts and
    flattened (..., total): a sum over the result adds each element's
    entries in element order, whichever part holds it.  One part is taken
    in its own order."""
    if len(parts) == 1:
        return parts[0].reshape(parts[0].shape[:-2] + (-1,))
    width = np.concatenate([np.full(len(e), p.shape[-1]) for e, p in zip(eids, parts)])
    by_id = np.argsort(np.concatenate(eids))
    start = np.empty_like(width)
    start[by_id] = np.cumsum(width[by_id]) - width[by_id]
    out = np.empty(parts[0].shape[:-2] + (int(width.sum()),), dtype=parts[0].dtype)
    first = 0
    for e, p in zip(eids, parts):
        at = start[first:first + len(e), None] + np.arange(p.shape[-1])
        out[..., at.reshape(-1)] = p.reshape(p.shape[:-2] + (-1,))
        first += len(e)
    return out


@dataclass(frozen=True)
class NodePairs:
    """Element matrices summed into a 2x2 block per pair of two-dof
    columns (x and y of one field of one node) that share an element, by
    class and then by element.  A pair's block has the rows of its column
    eliminated first, whose x dof is ``row``, and the columns of the other,
    from ``col``.  Front f, which eliminates the first node, holds the
    pairs ``ptr[f]:ptr[f + 1]``; the other node sits in ``slot`` there."""

    row: np.ndarray  # int32, as col and slot
    col: np.ndarray
    slot: np.ndarray
    blocks: np.ndarray
    ptr: np.ndarray

    @classmethod
    def sum(cls, tree: DissectionTree, classes, order: np.ndarray,
            position: np.ndarray) -> "NodePairs":
        """The pairs of ``classes``, each a sequence of groups (matrices
        (k, 2s, 2s), dofs (e, 2s), eids (e,)) or (matrices, dofs, eids, rows
        (e,)), -1 for an absent column: element i's matrix is
        ``matrices[rows[i]]``, by default ``matrices[i]``.  The dofs are
        eliminated in ``order``, each node's together, and entry k's node is
        at ``position[k]`` in ``tree.order``.

        An element's pairs are its s(s+1)/2 pairs of columns i <= j, each
        turned so that its row is the column eliminated first.  A pair is
        keyed by the two columns' places in the elimination order, -1 if one
        is absent, and dropped after the sort.  Each pair's sum adds the
        classes in turn, and a class's elements by ``eids`` whatever group
        holds them, so the bits do not depend on how a class is grouped."""
        rank = np.empty_like(order)  # each dof's place in the elimination order
        rank[order] = np.arange(order.size)
        key, entries = [np.empty(0, int)], [np.empty((4, 0))]
        for groups in classes:
            keys, values, eids = [], [], []
            for matrices, dofs, ids, *rows in groups:
                rows = rows[0] if rows else np.arange(len(dofs))
                s = dofs.shape[1] // 2
                column = np.where(dofs[:, ::2] >= 0, rank[dofs[:, ::2]], -1)
                i, j = np.triu_indices(s)
                ci, cj = column[:, i], column[:, j]
                lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
                keys.append(np.where(lo >= 0, lo * rank.size + hi, -1))
                a, b = np.where(ci > cj, j, i), np.where(ci > cj, i, j)  # the pair's row, column
                corner = rows[:, None] * 4 * s * s + 4 * s * a + 2 * b
                values.append(matrices.reshape(-1)[corner + np.reshape([0, 1, 2 * s, 2 * s + 1],
                                                                       (4, 1, 1))])
                eids.append(ids)
            key.append(_by_element(eids, keys))
            entries.append(_by_element(eids, values))
        key = np.concatenate(key)
        by_key = np.argsort(key, kind="stable")
        new = np.diff(key[by_key], prepend=-2) != 0
        inverse = np.empty_like(by_key)
        inverse[by_key] = np.cumsum(new) - 1
        absent = int(key.size > 0 and key[by_key[0]] < 0)  # the group of key -1, if any
        sums = [np.bincount(inverse, weights=w)[absent:] for w in np.concatenate(entries, axis=1)]
        first, second = np.divmod(key[by_key[new][absent:]], rank.size)
        f, slot = _node_slots(tree, position[first], position[second])
        row, col = order[first], order[second]
        return cls(row=row.astype(np.int32), col=col.astype(np.int32), slot=slot.astype(np.int32),
                   blocks=np.stack(sums, axis=1).reshape(-1, 2, 2),
                   ptr=np.searchsorted(f, np.arange(tree.n_fronts + 1)))

    def diagonal(self, n: int) -> np.ndarray:
        """The diagonal (n,) of the summed matrix of n dofs, from the pairs
        of a column with itself; 0 where there is none."""
        own = self.row == self.col
        out = np.zeros(n)
        out[self.row[own]], out[self.row[own] + 1] = self.blocks[own, 0, 0], self.blocks[own, 1, 1]
        return out

    @cached_property
    def leading_diagonal(self) -> np.ndarray:
        """:meth:`diagonal` of the dofs up to the last pair's row, built on
        first use, so pairs that serve many solves build it once."""
        return self.diagonal(int(self.row.max(initial=-2)) + 2)


def _extend_add_plan(tree: DissectionTree, redo, ptr, shift):
    """Where the rows of the children of the fronts ``redo`` go in their
    parents' fronts, for all of them in one pass: child c's rows fall into
    ``runs[run_ptr[c]:run_ptr[c + 1]]``, each ``(first, end, place)``: its
    rows ``first:end`` are the front rows ``place:place + end - first``,
    all pivots or all panel rows.  ``ptr`` and ``shift`` are as in
    :meth:`FrontalCholesky.factorize`."""
    parent_redone = np.zeros(tree.n_fronts + 1, dtype=bool)  # a root's parent -1 reads the last
    parent_redone[redo] = True
    kids = np.flatnonzero(parent_redone[tree.parent])
    width = np.diff(tree.row_start)[kids]
    nodes = tree.rows[_ranges(tree.row_start[kids], width)]
    _, slot = _node_slots(tree, tree.start[np.repeat(tree.parent[kids], width)], nodes)
    sizes = np.diff(ptr)[nodes]
    kid = np.repeat(np.repeat(np.arange(kids.size), width), sizes)
    place = _ranges(ptr[nodes], sizes) + shift[np.repeat(slot, sizes)]
    p = np.diff(ptr[tree.start])[tree.parent[kids][kid]]
    first = np.flatnonzero((np.diff(place, prepend=-2) != 1) | np.diff(kid, prepend=-1)
                           | np.diff(place >= p, prepend=True))
    lo = (np.arange(kid.size) - np.searchsorted(kid, kid))[first]
    runs = list(zip(lo.tolist(), (lo + np.diff(first, append=kid.size)).tolist(),
                    place[first].tolist()))
    return runs, np.searchsorted(kids[kid[first]], np.arange(tree.n_fronts + 1)).tolist()


def _extend_add(F11, F21, F22, U, runs) -> None:
    """Add a child's update matrix U to its parent's front, whose pivot
    block is F11, panel F21 and trailing block F22, block by block as
    slices of U's lower triangle: by ``runs`` (:func:`_extend_add_plan`).
    """
    p = F11.shape[0]
    for n, (c0, c1, tc) in enumerate(runs):
        for r0, r1, tr in runs[n:]:
            block = U[r0:r1, c0:c1]
            if tc >= p:
                F22[tr - p:tr - p + r1 - r0, tc - p:tc - p + c1 - c0] += block
            elif tr >= p:
                F21[tr - p:tr - p + r1 - r0, tc:tc + c1 - c0] += block
            else:
                F11[tr:tr + r1 - r0, tc:tc + c1 - c0] += block


# Fronts whose entries (:meth:`FrontalCholesky._entries`) are gathered at
# once: the entries of every front would be about a fifth of the factor.
_ENTRY_BATCH = 64


class FrontalCholesky:
    """Cholesky factor L of one symmetric positive definite matrix, front by front.

    :attr:`refactored` lists the fronts the last :meth:`factorize`
    computed.  ``keep`` makes the factor reusable by the next one: it
    then also holds the layout and stamp of each node and the lower
    triangles of the non-leaf fronts' update matrices.  A kept leaf whose
    parent is refactored recomputes its update matrix from its panel.
    Without ``keep`` each update matrix is freed once its parent has
    consumed it.
    """

    def __init__(self, keep: bool = True):
        self.keep = keep
        self._tree: DissectionTree | None = None
        self.refactored = np.empty(0, dtype=np.int64)
        self._panels: list = []  # per front: packed pivot block, panel
        self._updates: dict = {}  # non-leaf front -> packed lower update matrix
        self._signature = None  # per node position, of the last factorization
        self._stamps = None  # likewise

    def factorize(self, tree: DissectionTree, counts: np.ndarray,
                  signature: np.ndarray, stamps: np.ndarray, index: np.ndarray,
                  pairs) -> FactorStats:
        """Factor the free-free block of the sum of ``pairs``, reusing the
        fronts the last factorization left valid.

        ``index`` gives each dof its place among the free dofs in the
        elimination order, -1 for a fixed one: the node at position k of
        ``tree.order`` has ``counts[k]`` of them, ``signature[k]`` tells its
        dof layout apart from any other, and ``stamps[k]`` changes whenever
        an element at the node changed its matrix.  ``pairs`` holds two
        :class:`NodePairs`: the first is put into the refactored fronts and
        the second added to it, of a front's entries (j, i) those with j >= i.
        The entries are gathered for ``_ENTRY_BATCH`` refactored fronts at a
        time, so beside the factor only one batch of them is held.  Raises
        ``np.linalg.LinAlgError`` on a non-positive pivot, whose place among
        the free dofs is the error's ``pivot``.
        """
        n_fronts = tree.n_fronts
        ptr = np.concatenate([[0], np.cumsum(counts)])
        pivots = ptr[tree.start]
        trail = ptr[tree.start[:-1] + tree.lead]  # each front's first pivot with a panel column
        row_counts = counts[tree.rows]
        row_dof_ptr = np.concatenate([[0], np.cumsum(row_counts)])
        rowdofs = _ranges(ptr[tree.rows], row_counts)
        row_ptr = row_dof_ptr[tree.row_start]
        # Free dof j of the node in slot s of a front is its row j + shift[s],
        # the pivot rows first, then the panel rows.
        owner = np.repeat(np.arange(n_fronts), np.diff(tree.row_start))
        shift = np.concatenate([-np.repeat(pivots[:-1], np.diff(tree.start)),
                                row_dof_ptr[:-1] - row_ptr[owner] + np.diff(pivots)[owner]
                                - ptr[tree.rows]])

        kept = self._unchanged(tree, signature, stamps)
        for f in range(n_fronts):  # children come first
            if not kept[f] and tree.parent[f] >= 0:
                kept[tree.parent[f]] = False
        if not kept.any():
            self._panels = [None] * n_fronts
            self._updates = {}
        self._tree = None  # until every front is factored
        self._ptr, self._shift = ptr, shift
        self._pivots, self._trail, self._rowdofs, self._row_ptr = pivots, trail, rowdofs, row_ptr
        if self.keep:
            self._signature, self._stamps = signature, stamps

        self.refactored = redo = np.flatnonzero(~kept)
        runs, run_ptr = _extend_add_plan(tree, redo, ptr, shift)
        pending = {}  # front -> update matrix its parent has not consumed yet
        for k, f in enumerate(redo.tolist()):
            b = k % _ENTRY_BATCH  # the front's place in its batch
            if b == 0:  # the entries of the next batch, the last one's freed first
                entries = None
                entries = [list(self._entries(redo[k:k + _ENTRY_BATCH], index, p))
                           for p in pairs]
            a, p, r = pivots[f], pivots[f + 1] - pivots[f], row_ptr[f + 1] - row_ptr[f]
            m = trail[f] - a  # the lead pivots' dofs, whose panel columns are zero
            # Pivot block and panel, Fortran order, with a last place for the rest.
            blocks = np.zeros(p * p + 1), np.zeros(r * (p - m) + 1)
            for parts, add in zip(entries, (False, True)):
                for flat, (at, values, take) in zip(blocks, parts):
                    at, values = at[take[b]:take[b + 1]], values[take[b]:take[b + 1]]
                    flat[at] = flat[at] + values if add else values
            F11 = blocks[0][:-1].reshape((p, p), order="F")
            F21 = blocks[1][:-1].reshape((r, p - m), order="F")
            F22 = np.zeros((r, r), order="F")
            for c in tree.children[f]:
                U = pending.pop(c) if c in pending else self._kept_update(c)
                _extend_add(F11, F21, F22, U, runs[run_ptr[c]:run_ptr[c + 1]])
            if p:
                _, info = lapack.dpotrf(F11, lower=1, clean=0, overwrite_a=1)
                if info > 0:
                    exc = np.linalg.LinAlgError(f"non-positive pivot {info} of {p} in front "
                                                f"{f}: the matrix is not positive definite")
                    exc.pivot = a + info - 1  # its place in the elimination order
                    raise exc
                if r:
                    blas.dtrsm(1.0, F11[m:, m:], F21, side=1, lower=1, trans_a=1, overwrite_b=1)
                    blas.dsyrk(-1.0, F21, beta=1.0, c=F22, lower=1, overwrite_c=1)
            self._panels[f] = lapack.dtrttp(F11, uplo="L")[0], F21
            if tree.parent[f] >= 0:
                pending[f] = F22
                if self.keep and tree.children[f]:
                    self._updates[f] = lapack.dtrttp(F22, uplo="L")[0]
        self._tree = tree
        p, c, r = np.diff(pivots), pivots[1:] - trail, np.diff(row_ptr)
        pr, cr, rr = p[redo], c[redo], r[redo]
        return FactorStats(
            free_dofs=int(ptr[-1]),
            factor_entries=int(np.sum(p * (p + 1) // 2 + c * r)),
            flops=int(np.sum(pr**3 / 3 + cr * cr * rr + cr * rr * rr)),
            fronts_refactored=redo.size,
            fronts=n_fronts,
        )

    def _entries(self, redo, index, pairs: NodePairs):
        """The entries ``pairs`` give the pivot blocks and then the panels
        of the fronts ``redo``: places in Fortran order, values, and where
        each front's own start.  A panel's columns start at the front's
        first pivot with a panel column.  Entries (j, i) with a fixed dof
        or j < i go to the place past a block's end."""
        sizes = np.diff(pairs.ptr)[redo]
        sel, front = _ranges(pairs.ptr[redo], sizes), np.repeat(redo, sizes)
        p, r = np.diff(self._pivots), np.diff(self._row_ptr)
        for panel in (False, True):
            mine = (pairs.slot[sel] >= self._ptr.size - 1) == panel
            s, f = sel[mine], front[mine]
            i, j = index[pairs.row[s, None] + [0, 1]], index[pairs.col[s, None] + [0, 1]]
            height = (r if panel else p)[f, None]
            first = (self._trail if panel else self._pivots)[f, None]
            row = j + (self._shift[pairs.slot[s]] - panel * p[f])[:, None]
            at = np.where((i[:, :, None] >= 0) & (j[:, None, :] >= i[:, :, None]),
                          row[:, None, :] + ((i - first) * height)[:, :, None],
                          (height * (self._pivots[f + 1, None] - first))[:, None])
            yield at.reshape(-1), pairs.blocks[s].reshape(-1), 4 * np.append(
                np.searchsorted(f, redo), f.size)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L L^T x = rhs in the factored dof order."""
        x = np.array(rhs, dtype=float)
        pivots, row_ptr = self._pivots.tolist(), self._row_ptr.tolist()
        steps = [(a, m, b, self._rowdofs[r0:r1], *self._panels[f])
                 for f, (a, m, b, r0, r1) in enumerate(zip(pivots[:-1], self._trail.tolist(),
                                                           pivots[1:], row_ptr[:-1], row_ptr[1:]))
                 if b > a]
        bits = x.view(np.int64)  # all bits zero: +0.0
        for a, m, b, rows, L11, L21 in steps:
            if not bits[a:b].any():
                continue  # a block of +0.0 solves to +0.0 and updates nothing
            x[a:b] = blas.dtpsv(b - a, L11, x[a:b], lower=1)
            if rows.size:
                x[rows] -= L21 @ x[m:b]
        for a, m, b, rows, L11, L21 in reversed(steps):
            if rows.size:
                x[m:b] -= x[rows] @ L21
            x[a:b] = blas.dtpsv(b - a, L11, x[a:b], lower=1, trans=1)
        return x

    def _unchanged(self, tree, signature, stamps) -> np.ndarray:
        """Fronts whose pivots kept their stamps and whose pivots and rows
        kept their layout since the last factorization."""
        if not self.keep or self._tree is not tree:
            return np.zeros(tree.n_fronts, dtype=bool)
        moved = signature != self._signature
        return ~(_segment_any(moved | (stamps != self._stamps), tree.start)
                 | _segment_any(moved[tree.rows], tree.row_start))

    def _kept_update(self, f: int) -> np.ndarray:
        """Update matrix of a front kept from the last factorization."""
        L21 = self._panels[f][1]
        if f in self._updates:
            return lapack.dtpttr(L21.shape[0], self._updates[f], uplo="L")[0]
        return blas.dsyrk(-1.0, L21, lower=1)
