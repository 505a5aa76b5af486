"""Supernodal multifrontal Cholesky factorization on the nested-dissection tree.

The stiffness matrix with its fixed dofs eliminated is symmetric positive
definite.  Its fronts are those of the mesh's node-level elimination tree
(:class:`~xfem2d.mesh.DissectionTree`), expanded to the free dofs each
node carries at this step: front f eliminates the free dofs of its own
nodes (its pivots) and couples them to the free dofs of its row nodes.
Each front is a dense matrix, assembled from the matrix entries of its
pivot columns plus the update matrices of its children (extend-add).
LAPACK's ``dpotrf`` factors its pivot block, ``dtrsm`` gives the panel
below it, and ``dsyrk`` forms the update matrix its parent consumes (Liu,
"The multifrontal method for sparse matrix solution", SIAM Review 34,
1992).  Where each child row lands in its parent's front, and the runs of
consecutive rows its update matrix is added in, are found for all the
children of the refactored fronts in one array pass before the first
front (:func:`_extend_add_plan`); the loop over the fronts only adds.

A :class:`FrontalCholesky` that is factored again keeps every front that
no changed element touches and whose nodes kept their layout: none of its
pivot nodes has a new change stamp (the assembly renews the stamps of the
four nodes of each element whose matrix it integrated or dropped), no
pivot or row node has a new free-dof layout, and all of its children were
kept.  Its entries of the matrix are then those of the previous
factorization, so it is not gathered again.  Every other front is
gathered and refactored, and with it each of its ancestors, so the factor
is exactly what a fresh factorization would give.

The forward substitution skips each front whose incoming block is all
+0.0, which solves to +0.0 and updates nothing: a load reaches only the
fronts on the paths from its support to the root (Gilbert & Peierls, SIAM
J. Sci. Stat. Comput. 9, 1988).  The back substitution walks every front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from xfem2d.mesh import DissectionTree

__all__ = ["FactorStats", "FrontalCholesky"]

@dataclass(frozen=True)
class FactorStats:
    """Size of one factorization and how much of it was redone."""

    free_dofs: int
    factor_entries: int  # stored entries of L: pivot triangles and panels
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


def _extend_add_plan(tree: DissectionTree, redo, pivots, row_ptr, rowdofs, keys):
    """Where the rows of the children of the fronts ``redo`` go in their
    parents' fronts, for all of them in one pass: child c's rows fall into
    ``runs[run_ptr[c]:run_ptr[c + 1]]``, each ``(first, end, place)``: its
    rows ``first:end`` are the front rows ``place:place + end - first``,
    all pivots or all panel rows."""
    kids = np.flatnonzero(np.isin(tree.parent, redo))
    sizes = np.diff(row_ptr)[kids]
    at, kid = _ranges(row_ptr[kids], sizes), np.repeat(np.arange(kids.size), sizes)
    f = tree.parent[kids][kid]
    p = np.diff(pivots)[f]
    # A row's place in column 0 is its pivot row, or p * p + k for row dof k.
    place = _front_offsets(f, pivots[f], rowdofs[at], pivots, row_ptr, keys)
    place = np.where(place < p * p, place, place - p * p + p)
    first = np.flatnonzero((np.diff(place, prepend=-2) != 1) | np.diff(kid, prepend=-1)
                           | np.diff(place >= p, prepend=True))
    lo = (at - row_ptr[kids][kid])[first]
    runs = list(zip(lo.tolist(), (lo + np.diff(first, append=at.size)).tolist(),
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


def _upper_entries(K: sp.csr_matrix, dofs: np.ndarray, rows: np.ndarray):
    """Entries (i, j, value) with j >= i of the rows ``rows`` (ascending)
    of ``K[dofs][:, dofs]``, by row."""
    column = np.full(K.shape[0], -1, dtype=np.int32)
    column[dofs] = np.arange(dofs.size)
    block = K[dofs[rows]]
    i = np.repeat(rows.astype(np.int32), np.diff(block.indptr))
    j = column[block.indices]
    upper = j >= i  # fixed dofs have column -1
    return i[upper], j[upper], block.data[upper]


def _front_offsets(f, i, j, pivots, row_ptr, keys) -> np.ndarray:
    """Place of each matrix entry (i, j), j >= i, in front ``f``: entry
    (j, i) of its pivot block (p, p) or, from ``p * p`` on, of its panel
    (r, p), both in Fortran order.  ``keys`` are ``front * n + dof`` of
    every front's row dofs."""
    a, b = pivots[f], pivots[f + 1]
    p, r = b - a, row_ptr[f + 1] - row_ptr[f]
    col = i - a
    flat = j - a + col * p
    out = np.flatnonzero(j >= b)
    want = f[out] * pivots[-1] + j[out]
    hit = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    if out.size and np.any(keys[hit] != want):
        raise np.linalg.LinAlgError(
            "the matrix couples dofs that the elimination tree keeps apart")
    flat[out] = p[out] * p[out] + col[out] * r[out] + hit - row_ptr[f[out]]
    return flat


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
                  signature: np.ndarray, stamps: np.ndarray,
                  K: sp.csr_matrix, dofs: np.ndarray) -> FactorStats:
        """Factor ``K[dofs][:, dofs]``, reusing the fronts the last
        factorization left valid.

        ``dofs`` lists the free dofs in elimination order: the node at
        position k of ``tree.order`` has ``counts[k]`` of them,
        ``signature[k]`` tells its dof layout apart from any other, and
        ``stamps[k]`` changes whenever an element at the node changed its
        entries of K.  Only the upper triangle of the block is read (the
        lower one by symmetry), and only in the rows of the refactored
        fronts.  Raises ``np.linalg.LinAlgError`` on a non-positive pivot,
        whose place in ``dofs`` is the error's ``pivot``.
        """
        n_fronts = tree.n_fronts
        ptr = np.concatenate([[0], np.cumsum(counts)])
        pivots = ptr[tree.start]
        row_counts = counts[tree.rows]
        rowdofs = _ranges(ptr[tree.rows], row_counts)
        row_ptr = np.concatenate([[0], np.cumsum(row_counts)])[tree.row_start]

        kept = self._unchanged(tree, signature, stamps)
        for f in range(n_fronts):  # children come first
            if not kept[f] and tree.parent[f] >= 0:
                kept[tree.parent[f]] = False
        if not kept.any():
            self._panels = [None] * n_fronts
            self._updates = {}
        self._tree = None  # until every front is factored
        self._pivots, self._rowdofs, self._row_ptr = pivots, rowdofs, row_ptr
        if self.keep:
            self._signature, self._stamps = signature, stamps

        self.refactored = redo = np.flatnonzero(~kept)
        i, j, values = _upper_entries(K, dofs, _ranges(pivots[redo], np.diff(pivots)[redo]))
        keys = np.repeat(np.arange(n_fronts), np.diff(row_ptr)) * ptr[-1] + rowdofs
        flat = _front_offsets(np.repeat(np.arange(n_fronts), np.diff(pivots))[i], i, j,
                              pivots, row_ptr, keys)
        runs, run_ptr = _extend_add_plan(tree, redo, pivots, row_ptr, rowdofs, keys)
        take_ptr = np.append(np.searchsorted(i, pivots[redo]), i.size)
        pending = {}  # front -> update matrix its parent has not consumed yet
        for k, f in enumerate(redo.tolist()):
            a, p, r = pivots[f], pivots[f + 1] - pivots[f], row_ptr[f + 1] - row_ptr[f]
            F11 = np.zeros((p, p), order="F")
            F21 = np.zeros((r, p), order="F")
            F22 = np.zeros((r, r), order="F")
            at, v = flat[take_ptr[k]:take_ptr[k + 1]], values[take_ptr[k]:take_ptr[k + 1]]
            block = at < p * p
            F11.reshape(-1, order="F")[at[block]] = v[block]
            F21.reshape(-1, order="F")[at[~block] - p * p] = v[~block]
            for c in tree.children[f]:
                U = pending.pop(c) if c in pending else self._kept_update(c)
                _extend_add(F11, F21, F22, U, runs[run_ptr[c]:run_ptr[c + 1]])
            if p:
                _, info = lapack.dpotrf(F11, lower=1, clean=0, overwrite_a=1)
                if info > 0:
                    exc = np.linalg.LinAlgError(f"non-positive pivot {info} of {p} in front "
                                                f"{f}: the matrix is not positive definite")
                    exc.pivot = a + info - 1  # its place in ``dofs``
                    raise exc
                if r:
                    blas.dtrsm(1.0, F11, F21, side=1, lower=1, trans_a=1, overwrite_b=1)
                    blas.dsyrk(-1.0, F21, beta=1.0, c=F22, lower=1, overwrite_c=1)
            self._panels[f] = lapack.dtrttp(F11, uplo="L")[0], F21
            if tree.parent[f] >= 0:
                pending[f] = F22
                if self.keep and tree.children[f]:
                    self._updates[f] = lapack.dtrttp(F22, uplo="L")[0]
        self._tree = tree
        p, r = np.diff(pivots), np.diff(row_ptr)
        return FactorStats(
            free_dofs=int(ptr[-1]),
            factor_entries=int(np.sum(p * (p + 1) // 2 + p * r)),
            fronts_refactored=redo.size,
            fronts=n_fronts,
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L L^T x = rhs in the factored dof order."""
        x = np.array(rhs, dtype=float)
        pivots, row_ptr = self._pivots.tolist(), self._row_ptr.tolist()
        steps = [(a, b, self._rowdofs[r0:r1], *self._panels[f])
                 for f, (a, b, r0, r1) in enumerate(zip(pivots[:-1], pivots[1:],
                                                        row_ptr[:-1], row_ptr[1:]))
                 if b > a]
        bits = x.view(np.int64)  # all bits zero: +0.0
        for a, b, rows, L11, L21 in steps:
            if not bits[a:b].any():
                continue  # a block of +0.0 solves to +0.0 and updates nothing
            x[a:b] = xp = blas.dtpsv(b - a, L11, x[a:b], lower=1)
            if rows.size:
                x[rows] -= L21 @ xp
        for a, b, rows, L11, L21 in reversed(steps):
            xp = x[a:b] - x[rows] @ L21 if rows.size else x[a:b]
            x[a:b] = blas.dtpsv(b - a, L11, xp, lower=1, trans=1)
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
