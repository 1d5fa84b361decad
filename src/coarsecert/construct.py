"""Set searches, cover family checks and pou builders: the code that only constructions run.

The set searches answer distances to a set of points A.  On a graph, the
distance to A is one multi-source Dijkstra call (dist_to_set_all), which
gives the least entry of A's rows bit for bit wherever it answers: a
vertex's Dijkstra distance is the least rounded d(u) + w(u, v) over its
neighbours u, whatever the order of the search.  A table or a cloud, and
nearest_scan on any space, keep a running minimum over A's ball blocks
(metric.ball_blocks) in ascending id order, so no |A| x n block is ever
built and a set query holds O(n) plus one block.  Every search calls
Dijkstra as metric.dijkstra, directly or through ball_blocks, so a wrapper
of that one name sees every call.

R-disjointness (one distance to each member, cross_minima), uniform
boundedness, Lebesgue numbers and multiplicity check what `covers` and `extend`
build; convex_combine, simplicial_retraction and barycentric_pou build pous
on `simplex`'s store, under the fresh namespaces of a VertexMint.
`decompose` and `certify` load this module; `verify` never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import metric
from .errors import (EmptySetError, InvalidInputError, NotACoverError, NotARetractionError,
                     SupportEscapesError)
from .metric import (FiniteMetricSpace, PointSubset, ball_blocks, concat_sets, diameters,
                     row_entries)
from .simplex import PartitionOfUnity, VertexId, _columns, _indptr, vertex_key

RENORM_TRIGGER = 1e-12  # renormalize combinations only past this drift


def dist_to_set_all(space: FiniteMetricSpace, a: PointSubset,
                    limit: float = math.inf) -> np.ndarray:
    """dist(x, a) for every x, shape (n,): the least entry of a's rows.

    The one distance-to-set primitive: every set query reads the set's rows.
    A graph answers by one multi-source Dijkstra call, a table or a cloud by
    a running minimum over blocks of rows.  Bit-equal to nearest_scan's dist
    wherever at most limit; an entry above limit is exact or inf.
    """
    if len(a) == 0:
        raise EmptySetError("dist_to_set_all of empty subset")
    if math.isnan(limit):  # no distance compares with NaN, which would read as far
        raise InvalidInputError(f"limit = {limit!r} is not a number")
    if not space.has_table and space._graph is not None:  # scipy refuses a negative limit
        return metric.dijkstra(space._graph, directed=True, indices=a.ids, min_only=True,
                               limit=max(limit, 0.0))
    out = np.full(space.n, math.inf)
    for _, _, block in ball_blocks(space, a.ids, limit):
        np.minimum(out, block.min(axis=0), out=out)
    return out


def closed_set_ball(space: FiniteMetricSpace, a: PointSubset, r: float) -> PointSubset:
    """The closed enlargement {x : dist(x, a) <= r}; r >= 0 allowed."""
    if len(a) == 0:
        raise EmptySetError("closed_set_ball of empty subset")
    if not r >= 0:  # NaN too: no distance is <= NaN, so its ball would be empty
        raise InvalidInputError(f"ball radius must be >= 0, got {r!r}")
    return PointSubset(np.flatnonzero(dist_to_set_all(space, a, r) <= r))


def nearest_scan(space: FiniteMetricSpace, ids: np.ndarray, limit: float = math.inf):
    """(dist, nearest): dist(x, ids) and the smallest id attaining it.

    Both are exact wherever dist(x, ids) <= limit; elsewhere dist is above
    limit (or inf) and nearest means nothing (-1 where no row reached x).  A
    running minimum over ids' rows in ascending id order, one ball block at
    a time (ball_blocks; a row is inf off its block's ball): a row takes over
    an entry only where it is strictly smaller, so the smallest id keeps a
    tie, as argmin over the stacked block would.
    """
    if math.isnan(limit):
        raise InvalidInputError(f"limit = {limit!r} is not a number")
    dist = np.full(space.n, math.inf)
    nearest = np.full(space.n, -1, dtype=np.intp)
    for lo, ball, rows in ball_blocks(space, ids, limit):
        best, which = dist[ball], nearest[ball]
        closer = np.empty(len(ball), dtype=bool)
        for i, row in zip(ids[lo:lo + len(rows)], rows):
            np.less(row, best, out=closer)
            np.minimum(best, row, out=best)
            which[closer] = i
        dist[ball], nearest[ball] = best, which
        del rows, row
    return dist, nearest


def cross_minima(space: FiniteMetricSpace, members: Sequence[PointSubset]):
    """cross per nonempty member s but the last, in order.

    cross[k] is the least distance from members[s] to members[s + 1 + k]
    over members[s]'s rows: the minimum of dist_to_set_all(members[s]) over
    the later member, bit-equal to the minimum over the two members' block.
    """
    if len(members) < 2:
        return
    ids, starts = concat_sets(members)
    for s in range(len(members) - 1):
        dist = dist_to_set_all(space, members[s])
        lo = starts[s + 1]
        yield np.minimum.reduceat(dist[ids[lo:]], starts[s + 1:-1] - lo)


@dataclass(frozen=True)
class CoverFamily:
    """A tuple of nonempty subsets."""

    members: Tuple[PointSubset, ...]

    def __post_init__(self):
        members = tuple(m if isinstance(m, PointSubset) else PointSubset(m)
                        for m in self.members)
        object.__setattr__(self, "members", members)
        for k, m in enumerate(members):
            if len(m) == 0:
                raise EmptySetError(f"cover family member {k} is empty")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _as_family(family, space: FiniteMetricSpace) -> CoverFamily:
    """family as a CoverFamily whose members all lie in space.

    The checks index rows, masks and counts by member id: a negative id
    would read a point counted from the end, and one past the space no point.
    """
    fam = family if isinstance(family, CoverFamily) else CoverFamily(tuple(family))
    for member in fam.members:
        member.validate_against(space)
    return fam


@dataclass
class DisjointReport:
    min_cross: float
    witness: Optional[Tuple[int, int, int, int]]  # (x, y, member s, member t)

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass
class BoundednessReport:
    bound: float


@dataclass
class LebesgueReport:
    witness_point: Optional[int]

    @property
    def passed(self) -> bool:
        return self.witness_point is None


@dataclass
class MultiplicityReport:
    maximum: int
    histogram: Dict[int, int]


def r_disjoint_check(space: FiniteMetricSpace, family, R: float) -> DisjointReport:
    """Check cross-member pairs are at distance > R; witness the closest pair.

    The witness (x, y, s, t) has the least distance, then the least (s, t),
    x and y; it is rebuilt for the winning (s, t) from a scan of s's rows
    cut off at that distance.
    """
    if math.isnan(R):  # no distance compares with NaN, which would read as a pass
        raise InvalidInputError(f"R = {R!r} is not a number")
    fam = _as_family(family, space)
    best, win = math.inf, None
    for s, cross in enumerate(cross_minima(space, fam.members)):
        k = int(np.argmin(cross))
        if cross[k] < best:
            best, win = float(cross[k]), (s, s + 1 + k)
    if win is None or not best <= R:
        return DisjointReport(min_cross=best, witness=None)
    s, t = win
    dist, nearest = nearest_scan(space, fam.members[s].ids, best)
    ys = fam.members[t].ids
    ys = ys[dist[ys] == best]
    x = nearest[ys].min()  # nearest[y]: the least x in s at distance best from y
    return DisjointReport(min_cross=best, witness=(int(x), int(ys[nearest[ys] == x][0]), s, t))


def uniformly_bounded_check(space: FiniteMetricSpace, family) -> BoundednessReport:
    """Exact max member diameter (the tight uniform bound)."""
    fam = _as_family(family, space)
    if not len(fam):
        raise EmptySetError("uniformly_bounded_check of an empty family")
    return BoundednessReport(bound=float(diameters(space, *concat_sets(fam.members)).max()))


def lebesgue_check(space: FiniteMetricSpace, cover, M: float) -> LebesgueReport:
    """Pass iff every open M-ball is contained in some cover member.

    The witness is the first point whose ball escapes every member.
    """
    if math.isnan(M):  # a NaN ball holds no point, which would read as a pass
        raise InvalidInputError(f"M = {M!r} is not a number")
    fam = _as_family(cover, space)
    masks = np.zeros((len(fam), space.n), dtype=bool)  # masks[k, x]: x in member k
    for k, member in enumerate(fam.members):
        masks[k, member.ids] = True
    covered = masks.any(axis=0)
    if not covered.all():
        raise NotACoverError(int(np.flatnonzero(~covered)[0]))
    for lo, ball, rows in ball_blocks(space, np.arange(space.n), M):
        for x, row in enumerate(rows, lo):
            if not masks[:, ball[row < M]].all(axis=1).any():
                return LebesgueReport(witness_point=x)
    return LebesgueReport(witness_point=None)


def multiplicity(space: FiniteMetricSpace, cover) -> MultiplicityReport:
    """Max number of members containing a point, plus the full histogram."""
    fam = _as_family(cover, space)
    ids = [m.ids for m in fam.members]
    counts = np.bincount(np.concatenate(ids + [np.empty(0, dtype=np.intp)]), minlength=space.n)
    values, freq = np.unique(counts, return_counts=True)
    return MultiplicityReport(maximum=int(counts.max(initial=0)),
                              histogram={int(v): int(c) for v, c in zip(values, freq)})


class VertexMint:
    """Source of fresh vertex namespaces (>= 1) for one construction run."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def namespace(self) -> int:
        return next(self._counter)


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

