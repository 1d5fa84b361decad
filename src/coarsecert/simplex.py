"""Sparse arithmetic on the l1 simplex and partitions of unity.

A point of the l1 simplex is a finite map from vertices to strictly positive
weights summing to 1; a PartitionOfUnity assigns one to each point of a
subset of a host metric space.  Vertices carry a (namespace, index) identity:
namespace 0 is reserved for user-supplied vertices (cover members, explicit
inputs) and every extension run mints its vertices inside a fresh namespace,
which is how independently built pieces are guaranteed disjoint carriers.

A PartitionOfUnity is stored once, as compressed sparse rows (CSR) over its
ascending domain, each entry a carrier column and a weight, and this is the
only form a pou takes.  Rows from outside (a pou file, or {point: {vertex:
weight}} dicts) pass one weight validator; the blend convex_combine builds
its rows from the rows of its two inputs.  The carrier, star preimages (with
their diameters, one array in carrier order) and dense matrix, and every
operation on whole pous, are array operations on those rows; f(x) reads one
row back as a {vertex: weight} dict.

Everything here is immutable after construction and all operations are pure.
Fresh namespaces come from a VertexMint that each construction run creates
and passes down.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import (
    EmptySetError,
    InvalidInputError,
    NotACoverError,
    NotARetractionError,
    SupportEscapesError,
)
from .metric import FiniteMetricSpace, PointSubset, diameters, row_entries

SUM_TOL = 1e-9          # invariant: |sum - 1| within this after any op
RENORM_TRIGGER = 1e-12  # renormalize combinations only past this drift

VertexId = Tuple[int, int]  # (namespace, index)


def vertex_key(v: VertexId) -> str:
    return f"{v[0]}:{v[1]}"


class VertexMint:
    """Source of fresh vertex namespaces (>= 1) for one construction run."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def namespace(self) -> int:
        return next(self._counter)


def _indptr(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts))).astype(np.intp)


def _columns(verts: Sequence[VertexId]):
    """(column of each of verts in the sorted carrier, that carrier)."""
    carrier = sorted(set(verts))
    col = {v: j for j, v in enumerate(carrier)}
    return np.fromiter(map(col.__getitem__, verts), dtype=np.intp, count=len(verts)), carrier


def _checked_rows(given: list):
    """Rows given from outside, checked, as the arguments of PartitionOfUnity._store.

    given is [ids, counts, verts, weights]: point ids[i] has the next
    counts[i] of verts and weights.  It is emptied, and each input dropped
    once read, so the inputs are not alive while the rows are sorted.
    Weights must be finite and non-negative; zeros are dropped, and each row
    must keep some whose fsum is within SUM_TOL of 1.  The first faulty row,
    in the given order, is named.  The rows come back in ascending id order.
    """
    ids, counts, verts, weights = given
    given.clear()
    ids, weights = np.asarray(ids, dtype=np.intp), np.asarray(weights, dtype=float)
    rows = np.repeat(np.arange(len(ids)), counts)
    del counts
    keep = weights > 0  # not -0.0, not NaN
    indptr = _indptr(np.bincount(rows[keep], minlength=len(ids)))
    bad = np.flatnonzero(~(weights >= 0) | np.isinf(weights))
    empty = np.flatnonzero(indptr[1:] == indptr[:-1])
    first = min(rows[bad[:1]].tolist() + empty[:1].tolist() + [len(ids)])
    whole = bool(keep.all())  # nothing to drop: no copies
    kept, sizes = weights if whole else weights[keep], np.diff(indptr[:first + 1])
    lone = np.flatnonzero((sizes == 1) & (np.abs(kept[indptr[:first]] - 1.0) > SUM_TOL))
    stop = lone[0] if len(lone) else first  # a row of one weight sums to it
    for i in np.flatnonzero(sizes[:stop] > 1).tolist():
        try:
            total = math.fsum(kept[indptr[i]:indptr[i + 1]].tolist())
        except OverflowError:  # finite weights whose sum is not
            total = math.inf
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidInputError(f"weights of point {ids[i]} sum to {total!r}, not 1")
    if stop < first:
        total = kept[indptr[stop]].item()
        raise InvalidInputError(f"weights of point {ids[stop]} sum to {total!r}, not 1")
    if len(bad) and rows[bad[0]] == first:
        w, v = float(weights[bad[0]]), vertex_key(verts[bad[0]])
        kind = "negative" if math.isfinite(w) else "non-finite"
        raise InvalidInputError(f"{kind} weight {w!r} on vertex {v} of point {ids[first]}")
    if first < len(ids):
        raise InvalidInputError(f"point {ids[first]} has no positive weight")
    del rows, weights, sizes
    columns, carrier = _columns(verts)
    del verts
    if not whole:
        columns = columns[keep]
    del keep
    order = np.argsort(ids)
    indptr, entries = row_entries(indptr, order)
    ids = ids[order]  # one at a time, each unsorted array dropped as it goes
    del order
    columns = columns[entries]
    kept = kept[entries]
    return ids, indptr, columns, carrier, kept


class PartitionOfUnity:
    """A map from a subset of a host space into the l1 simplex, as CSR arrays.

    Row i is the point domain.ids[i]: the domain's ascending id array is the
    one row index, shared with the domain, never copied.  Its entries are
    indptr[i]:indptr[i+1] of `columns`, indices into the sorted carrier
    tuple (each at most once), and of `weights`, in the order they were
    given or blended (simplicial_retraction sums weights in that order).
    The arrays are read-only, so pous share them.  f(x) reads x's row as a
    {vertex: weight} dict in that order.
    """

    def __init__(self, space: FiniteMetricSpace,
                 assignment: Mapping[int, Mapping[VertexId, float]]):
        points = list(assignment.values())
        self._store(space, *_checked_rows([list(assignment), [len(p) for p in points],
                                           [v for p in points for v in p],
                                           [w for p in points for w in p.values()]]))

    @classmethod
    def _from_rows(cls, space, given: list) -> "PartitionOfUnity":
        """The pou of rows given from outside as [ids, counts, verts, weights] (_checked_rows).

        given is emptied: the caller keeps no other reference to its items.
        """
        return cls._from_csr(space, *_checked_rows(given))

    def _store(self, space, ids, indptr, columns, verts, weights, rows=None) -> None:
        """Keep the given rows, in order, of the CSR arrays (all of them by default).

        The columns index the sorted verts; the vertices that no kept entry
        uses are dropped from the carrier.
        """
        if rows is not None:
            kept, entries = row_entries(indptr, rows)
            ids, indptr, columns, weights = ids[rows], kept, columns[entries], weights[entries]
        ids.setflags(write=False)
        self.space, self.domain = space, PointSubset(ids)  # shares ids
        self.domain.validate_against(space)
        used = np.unique(columns)
        if len(used) < len(verts):
            verts = [verts[j] for j in used.tolist()]
            columns = np.searchsorted(used, columns)
        for a in (indptr, columns, weights):
            a.setflags(write=False)
        self.indptr, self.columns, self.weights = indptr, columns, weights
        self._carrier = tuple(verts)

    @classmethod
    def _from_csr(cls, space, ids, indptr, columns, verts, weights,
                  rows=None) -> "PartitionOfUnity":
        f = cls.__new__(cls)
        f._store(space, ids, indptr, columns, verts, weights, rows)
        return f

    @classmethod
    def empty(cls, space: FiniteMetricSpace) -> "PartitionOfUnity":
        return cls(space, {})

    @classmethod
    def constant(cls, space: FiniteMetricSpace, domain: PointSubset, v: VertexId) -> "PartitionOfUnity":
        m = len(domain)
        return cls._from_csr(space, domain.ids, np.arange(m + 1),
                             np.zeros(m, dtype=np.intp), [v], np.ones(m))

    def __call__(self, x: int) -> Dict[VertexId, float]:
        if x not in self.domain:
            raise KeyError(x)
        i = np.searchsorted(self.domain.ids, x)
        a, b = self.indptr[i], self.indptr[i + 1]
        return {self._carrier[j]: w for j, w in zip(self.columns[a:b].tolist(),
                                                    self.weights[a:b].tolist())}

    def __contains__(self, x: int) -> bool:
        return x in self.domain

    def items(self):
        return ((x, self(x)) for x in self.domain)

    def carrier(self) -> tuple:
        """Sorted tuple of vertices with positive weight somewhere."""
        return self._carrier

    def star_preimage(self, v: VertexId) -> PointSubset:
        j = bisect_left(self._carrier, v)
        if self._carrier[j:j + 1] != (v,):
            return PointSubset([])
        return PointSubset(np.repeat(self.domain.ids, np.diff(self.indptr))[self.columns == j])

    def dense(self):
        """(points array, vertex list, weight matrix) over the carrier.

        The matrix row order follows the ascending domain ids.  It is the
        reference that tests compare the slack kernel with: the kernel reads
        the CSR arrays and never builds this n x carrier matrix.
        """
        m = len(self.domain)
        mat = np.zeros((m, len(self._carrier)))
        mat[np.repeat(np.arange(m), np.diff(self.indptr)), self.columns] = self.weights
        mat.setflags(write=False)
        return self.domain.ids, self._carrier, mat

    def restricted_to(self, subset: PointSubset) -> "PartitionOfUnity":
        """The pou on the points of its domain that lie in subset."""
        return PartitionOfUnity._from_csr(
            self.space, self.domain.ids, self.indptr, self.columns, self._carrier, self.weights,
            rows=np.flatnonzero(np.isin(self.domain.ids, subset.ids)))

    def merged_with(self, *others: "PartitionOfUnity") -> "PartitionOfUnity":
        """New pou giving each point its weights in the first of self, *others to hold it."""
        pous = (self,) + others
        ids = np.concatenate([f.domain.ids for f in pous])
        columns, verts = _columns([v for f in pous for v in f._carrier])
        offsets = np.cumsum([0] + [len(f._carrier) for f in pous])
        return PartitionOfUnity._from_csr(
            self.space, ids, _indptr(np.concatenate([np.diff(f.indptr) for f in pous])),
            np.concatenate([columns[off + f.columns] for f, off in zip(pous, offsets)]), verts,
            np.concatenate([f.weights for f in pous]),
            rows=np.unique(ids, return_index=True)[1])  # the first pou to hold each point


def convex_combine(t: np.ndarray, g: PartitionOfUnity, f: PartitionOfUnity, src: np.ndarray):
    """(indptr, columns, verts, weights): row i is t[i]*g's row i + (1-t[i])*f(src[i]).

    verts is the sorted union of the two carriers.  A row at t = 1 is g's
    row, and one at t = 0 is f(src[i]), untouched.  Otherwise, with s = 1 - t,
    it lists g's vertices in g's order at t*x (t*x + s*y if f(src[i]) has y
    there too), then f(src[i])'s others in its order at s*y, drops exact
    zeros, and is divided by its fsum if that is more than RENORM_TRIGGER
    from 1.  src is read only where t < 1.
    """
    outside = t[~((t >= 0.0) & (t <= 1.0))]
    if len(outside):
        raise InvalidInputError(f"combination parameter {float(outside[0])!r} outside [0, 1]")
    grows, frows = np.flatnonzero(t > 0.0), np.flatnonzero(t < 1.0)
    missing = src[frows][~np.isin(src[frows], f.domain.ids)]
    if len(missing):
        raise KeyError(int(missing[0]))
    columns, verts = _columns(g._carrier + f._carrier)
    gptr, gent = row_entries(g.indptr, grows)
    fptr, fent = row_entries(f.indptr, np.searchsorted(f.domain.ids, src[frows]))
    grow, frow = np.repeat(grows, np.diff(gptr)), np.repeat(frows, np.diff(fptr))
    gcol, fcol = columns[g.columns[gent]], columns[len(g._carrier) + f.columns[fent]]
    gw, fw = t[grow] * g.weights[gent], (1.0 - t[frow]) * f.weights[fent]
    _, gi, fi = np.intersect1d(grow * len(verts) + gcol, frow * len(verts) + fcol,
                               assume_unique=True, return_indices=True)
    gw[gi] += fw[fi]  # a vertex in both rows, listed where g lists it
    rows, columns, weights = (np.concatenate((a, np.delete(b, fi)))
                              for a, b in ((grow, frow), (gcol, fcol), (gw, fw)))
    nonzero = np.flatnonzero(weights)
    order = nonzero[np.argsort(rows[nonzero], kind="stable")]  # g's entries first in a row
    columns, weights = columns[order], weights[order]
    indptr = _indptr(np.bincount(rows[order], minlength=len(t)))
    listed, bounds = weights.tolist(), indptr.tolist()
    for i in np.flatnonzero((t > 0.0) & (t < 1.0)).tolist():
        total = math.fsum(listed[bounds[i]:bounds[i + 1]])
        if abs(total - 1.0) > RENORM_TRIGGER:
            weights[bounds[i]:bounds[i + 1]] /= total
    return indptr, columns, verts, weights


def star_preimage_diameters(f: PartitionOfUnity) -> np.ndarray:
    """Diameter of each vertex's star preimage, in f.carrier() order.

    One stable sort of the entries by column groups each vertex's domain
    points, ascending.  Raises EmptySetError on an empty domain.
    """
    if len(f.domain) == 0:
        raise EmptySetError("star_preimage_diameters of empty-domain pou")
    points = np.repeat(f.domain.ids, np.diff(f.indptr))[np.argsort(f.columns, kind="stable")]
    bounds = np.cumsum(np.bincount(f.columns, minlength=len(f.carrier())))[:-1]
    return diameters(f.space, [PointSubset(star) for star in np.split(points, bounds)])


def simplicial_retraction(f: PartitionOfUnity, r: Mapping[VertexId, VertexId],
                          region: PointSubset) -> PartitionOfUnity:
    """Re-address weights through a vertex retraction r on a region.

    r maps a vertex set S2 onto S1 = image(r) and must fix S1 pointwise.
    Weights landing on the same vertex are summed in entry order, so the
    total is preserved exactly; points outside the region are untouched, and
    so, bit for bit, is a point whose support r does not move.
    """
    for v in r.values():
        if r.get(v, v) != v:
            raise NotARetractionError(f"r moves {vertex_key(v)}, a vertex of its image")
    g = f.restricted_to(region)
    carrier = g.carrier()
    verts = sorted(set(carrier) | {r[v] for v in carrier if v in r})
    col = {v: j for j, v in enumerate(verts)}
    target = np.array([col.get(r.get(v), -1) for v in carrier], dtype=np.intp)[g.columns]
    rows = np.repeat(np.arange(len(g.domain)), np.diff(g.indptr))
    if (target < 0).any():
        k = int(np.argmax(target < 0))
        raise SupportEscapesError(f"support vertex {vertex_key(carrier[g.columns[k]])} "
                                  f"of point {g.domain.ids[rows[k]]} outside S2")
    if (target == np.array([col[v] for v in carrier], dtype=np.intp)[g.columns]).all():
        return f
    # one entry per (row, target vertex): a sum in entry order, listed where
    # its first term was; a point r does not move keeps its entries exactly
    _, first, group = np.unique(rows * len(verts) + target, return_index=True, return_inverse=True)
    sums = np.zeros(len(first))
    np.add.at(sums, group, g.weights)
    order = np.argsort(first)
    return PartitionOfUnity._from_csr(
        f.space, g.domain.ids, _indptr(np.bincount(rows[first], minlength=len(g.domain))),
        target[first[order]], verts, sums[order]).merged_with(f)


def barycentric_pou(space: FiniteMetricSpace, cover: List[PointSubset]) -> PartitionOfUnity:
    """Uniform weights over the cover members containing each point.

    Member k gets vertex (0, k); the star preimage of that vertex is exactly
    the member.  Raises NotACover naming an uncovered point.
    """
    for k, member in enumerate(cover):
        if len(member) == 0:
            raise EmptySetError(f"cover member {k} is empty")
        member.validate_against(space)
    points = np.concatenate([m.ids for m in cover] + [np.zeros(0, dtype=np.intp)])
    members = np.repeat(np.arange(len(cover)), [len(m) for m in cover])
    counts = np.bincount(points, minlength=space.n)
    uncovered = np.flatnonzero(counts == 0)
    if uncovered.size:
        raise NotACoverError(int(uncovered[0]))
    order = np.argsort(points, kind="stable")  # each point's members in ascending order
    return PartitionOfUnity._from_csr(space, np.arange(space.n), _indptr(counts), members[order],
                                      [(0, k) for k in range(len(cover))],
                                      1.0 / counts[points[order]])


def renamespace(f: PartitionOfUnity, namespace: int) -> PartitionOfUnity:
    """Copy of f with its carrier relabeled into one fresh namespace.

    Carrier vertices are relabeled in sorted order to (namespace, 0..k-1),
    deterministically, so re-namespacing commutes with serialization.
    """
    return PartitionOfUnity._from_csr(f.space, f.domain.ids, f.indptr, f.columns,
                                      [(namespace, i) for i in range(len(f.carrier()))], f.weights)
