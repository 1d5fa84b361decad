"""Sparse arithmetic on the l1 simplex and partitions of unity.

A SimplexPoint is a finite map from vertices to strictly positive weights
summing to 1; a PartitionOfUnity assigns one to each point of a subset of a
host metric space.  Vertices carry a (namespace, index) identity: namespace 0
is reserved for user-supplied vertices (cover members, explicit inputs) and
every extension run mints its vertices inside a fresh namespace, which is how
independently built pieces are guaranteed disjoint carriers.

Everything here is immutable after construction and all operations are pure.
Fresh namespaces come from a VertexMint that each construction run creates
and passes down; its counter increments atomically.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    EmptySetError,
    InvalidInputError,
    NotACoverError,
    NotARetractionError,
    SupportEscapesError,
)
from .metric import FiniteMetricSpace, PointSubset, diameter

SUM_TOL = 1e-9          # invariant: |sum - 1| within this after any op
RENORM_TRIGGER = 1e-12  # renormalize combinations only past this drift

VertexId = Tuple[int, int]  # (namespace, index)


def vertex_key(v: VertexId) -> str:
    return f"{v[0]}:{v[1]}"


def parse_vertex(s: str) -> VertexId:
    if not isinstance(s, str):
        raise TypeError(f"vertex key must be a string, got {s!r}")
    ns, _, idx = s.partition(":")
    return (int(ns), int(idx))


class VertexMint:
    """Atomic source of fresh vertex namespaces (>= 1) for one construction run."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def namespace(self) -> int:
        with self._lock:
            return next(self._counter)


class SimplexPoint:
    """A point of the l1 simplex: positive finite weights summing to 1."""

    __slots__ = ("_w",)

    def __init__(self, weights: Mapping[VertexId, float], _trusted: bool = False):
        if _trusted:
            self._w = dict(weights)
            return
        w = {}
        for v, x in weights.items():
            x = float(x)
            if not math.isfinite(x):
                raise InvalidInputError(f"non-finite weight {x!r} on vertex {v}")
            if x < 0:
                raise InvalidInputError(f"negative weight {x!r} on vertex {v}")
            if x > 0:
                w[(int(v[0]), int(v[1]))] = x
        if not w:
            raise InvalidInputError("simplex point needs at least one positive weight")
        total = math.fsum(w.values())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidInputError(f"weights sum to {total!r}, not 1")
        self._w = w

    @classmethod
    def delta(cls, v: VertexId) -> "SimplexPoint":
        return cls({v: 1.0}, _trusted=True)

    @classmethod
    def uniform(cls, vertices: Iterable[VertexId]) -> "SimplexPoint":
        vs = list(vertices)
        if not vs:
            raise EmptySetError("uniform simplex point over no vertices")
        w = 1.0 / len(vs)
        return cls({v: w for v in vs}, _trusted=True)

    def weights(self) -> Dict[VertexId, float]:
        return dict(self._w)

    def support(self):
        return self._w.keys()

    def get(self, v: VertexId) -> float:
        return self._w.get(v, 0.0)

    def sum(self) -> float:
        return math.fsum(self._w.values())

    def items(self):
        return self._w.items()

    def __len__(self):
        return len(self._w)

    def __eq__(self, other):
        return isinstance(other, SimplexPoint) and self._w == other._w

    def __hash__(self):
        return hash(frozenset(self._w.items()))

    def __repr__(self):
        inner = ", ".join(f"{vertex_key(v)}: {x:.6g}" for v, x in sorted(self._w.items()))
        return f"SimplexPoint({{{inner}}})"


def l1_distance(u: SimplexPoint, v: SimplexPoint) -> float:
    """Sum of |u(w) - v(w)| over the union of supports; lands in [0, 2]."""
    total = 0.0
    vw = v._w
    for w, x in u._w.items():
        total += abs(x - vw.get(w, 0.0))
    uw = u._w
    for w, y in vw.items():
        if w not in uw:
            total += y
    return total


def convex_combine(t: float, u: SimplexPoint, v: SimplexPoint) -> SimplexPoint:
    """t*u + (1-t)*v with exact endpoints: t=0 returns v itself, t=1 returns u."""
    if t == 0.0:
        return v
    if t == 1.0:
        return u
    if not (0.0 <= t <= 1.0):
        raise InvalidInputError(f"combination parameter {t!r} outside [0, 1]")
    s = 1.0 - t
    w: Dict[VertexId, float] = {}
    for vert, x in u._w.items():
        w[vert] = t * x
    for vert, y in v._w.items():
        w[vert] = w.get(vert, 0.0) + s * y
    for vert in [k for k, x in w.items() if x == 0.0]:
        del w[vert]
    total = math.fsum(w.values())
    if abs(total - 1.0) > RENORM_TRIGGER:
        w = {k: x / total for k, x in w.items()}
    return SimplexPoint(w, _trusted=True)


class PartitionOfUnity:
    """A map from a subset of a host space into the l1 simplex."""

    def __init__(self, space: FiniteMetricSpace, assignment: Mapping[int, SimplexPoint]):
        self.space = space
        self._f = {int(x): p for x, p in assignment.items()}
        for x in self._f:
            if not (0 <= x < space.n):
                raise InvalidInputError(f"pou point id {x} outside space of size {space.n}")
        self.domain = PointSubset(tuple(self._f.keys()))
        self._carrier_cache: Optional[tuple] = None
        self._stars_cache: Optional[Dict[VertexId, np.ndarray]] = None
        self._dense_cache = None

    @classmethod
    def empty(cls, space: FiniteMetricSpace) -> "PartitionOfUnity":
        return cls(space, {})

    @classmethod
    def constant(cls, space: FiniteMetricSpace, domain: PointSubset, v: VertexId) -> "PartitionOfUnity":
        d = SimplexPoint.delta(v)
        return cls(space, {x: d for x in domain})

    def __call__(self, x: int) -> SimplexPoint:
        return self._f[x]

    def __contains__(self, x: int) -> bool:
        return x in self._f

    def items(self):
        return self._f.items()

    def mapping(self) -> Dict[int, SimplexPoint]:
        return dict(self._f)

    def carrier(self) -> tuple:
        """Sorted tuple of vertices with positive weight somewhere."""
        if self._carrier_cache is None:
            verts = set()
            for p in self._f.values():
                verts.update(p.support())
            self._carrier_cache = tuple(sorted(verts))
        return self._carrier_cache

    def stars(self) -> Dict[VertexId, np.ndarray]:
        """vertex -> ascending array of domain points with positive weight on it."""
        if self._stars_cache is None:
            acc: Dict[VertexId, List[int]] = {}
            for x in sorted(self._f):
                for v in self._f[x].support():
                    acc.setdefault(v, []).append(x)
            self._stars_cache = {v: np.asarray(xs, dtype=np.intp) for v, xs in acc.items()}
        return self._stars_cache

    def star_preimage(self, v: VertexId) -> PointSubset:
        arr = self.stars().get(v)
        return PointSubset(tuple(arr) if arr is not None else ())

    def dense(self):
        """(points array, vertex list, weight matrix) over the carrier.

        The matrix row order follows the ascending domain ids; used by the
        verification kernels to vectorize l1 distances.
        """
        if self._dense_cache is None:
            pts = self.domain.array()
            verts = self.carrier()
            col = {v: j for j, v in enumerate(verts)}
            mat = np.zeros((len(pts), len(verts)))
            for i, x in enumerate(pts):
                for v, w in self._f[int(x)].items():
                    mat[i, col[v]] = w
            mat.setflags(write=False)
            self._dense_cache = (pts, verts, mat)
        return self._dense_cache

    def merged_with(self, other: Mapping[int, SimplexPoint]) -> "PartitionOfUnity":
        """New pou equal to self plus assignments for points not already held."""
        f = dict(self._f)
        for x, p in other.items():
            if x not in f:
                f[x] = p
        return PartitionOfUnity(self.space, f)


def carrier_vertices(f: PartitionOfUnity) -> set:
    """Union of supports over the domain."""
    return set(f.carrier())


def star_preimage_diameters(f: PartitionOfUnity):
    """Per-vertex star preimage diameters and their max (the tight bound).

    Returns (dict vertex -> diameter, max diameter).  The max over an empty
    carrier is 0.0.
    """
    if len(f.domain) == 0:
        raise EmptySetError("star_preimage_diameters of empty-domain pou")
    out = {v: diameter(f.space, PointSubset(tuple(pts))) for v, pts in f.stars().items()}
    return out, max(out.values(), default=0.0)


def simplicial_retraction(f: PartitionOfUnity, r: Mapping[VertexId, VertexId],
                          region: PointSubset) -> PartitionOfUnity:
    """Re-address weights through a vertex retraction r on a region.

    r maps a vertex set S2 onto S1 = image(r) and must fix S1 pointwise.
    Weights landing on the same vertex are summed, so the total is preserved
    exactly; points outside the region are untouched, and a point whose
    support r does not move keeps its SimplexPoint object bit-for-bit.
    """
    for v in r.values():
        if r.get(v, v) != v:
            raise NotARetractionError(f"r moves {vertex_key(v)}, a vertex of its image")
    new: Dict[int, SimplexPoint] = {}
    for x in region.ids:
        if x not in f:
            continue
        p = f(x)
        moved = False
        for v in p.support():
            if v not in r:
                raise SupportEscapesError(
                    f"support vertex {vertex_key(v)} of point {x} outside S2"
                )
            if r[v] != v:
                moved = True
        if not moved:
            continue  # identity on this support: keep the object bit-for-bit
        w: Dict[VertexId, float] = {}
        for v, x_w in p.items():
            tgt = r[v]
            w[tgt] = w.get(tgt, 0.0) + x_w
        new[x] = SimplexPoint(w, _trusted=True)
    if not new:
        return f
    out = dict(f.mapping())
    out.update(new)
    return PartitionOfUnity(f.space, out)


def skeleton_truncate(f: PartitionOfUnity, n: int) -> PartitionOfUnity:
    """Keep the n+1 largest weights of each point and renormalize.

    Ties break toward the smaller VertexId.  A point already supported on at
    most n+1 vertices is kept unchanged (same object).  This is a heuristic
    projection into the n-skeleton: the output must be re-verified, it carries
    no Lipschitz guarantee of its own.
    """
    if n < 0:
        raise InvalidInputError(f"skeleton dimension must be >= 0, got {n}")
    keep = n + 1
    out: Dict[int, SimplexPoint] = {}
    changed = False
    for x, p in f.items():
        if len(p) <= keep:
            out[x] = p
            continue
        ranked = sorted(p.items(), key=lambda kv: (-kv[1], kv[0]))[:keep]
        total = math.fsum(w for _, w in ranked)
        out[x] = SimplexPoint({v: w / total for v, w in ranked}, _trusted=True)
        changed = True
    if not changed:
        return f
    return PartitionOfUnity(f.space, out)


def barycentric_pou(space: FiniteMetricSpace, cover: List[PointSubset]) -> PartitionOfUnity:
    """Uniform weights over the cover members containing each point.

    Member k gets vertex (0, k); the star preimage of that vertex is exactly
    the member.  Raises NotACover naming an uncovered point.
    """
    counts = np.zeros(space.n, dtype=np.intp)
    membership: List[List[int]] = [[] for _ in range(space.n)]
    for k, member in enumerate(cover):
        if not member.ids:
            raise EmptySetError(f"cover member {k} is empty")
        member.validate_against(space)
        for x in member.ids:
            counts[x] += 1
            membership[x].append(k)
    uncovered = np.flatnonzero(counts == 0)
    if uncovered.size:
        raise NotACoverError(int(uncovered[0]))
    assignment = {
        x: SimplexPoint.uniform([(0, k) for k in membership[x]])
        for x in range(space.n)
    }
    return PartitionOfUnity(space, assignment)


def renamespace(f: PartitionOfUnity, namespace: int) -> PartitionOfUnity:
    """Copy of f with its carrier relabeled into one fresh namespace.

    Carrier vertices are relabeled in sorted order to (namespace, 0..k-1),
    deterministically, so re-namespacing commutes with serialization.
    """
    table = {v: (namespace, i) for i, v in enumerate(f.carrier())}
    out = {
        x: SimplexPoint({table[v]: w for v, w in p.items()}, _trusted=True)
        for x, p in f.items()
    }
    return PartitionOfUnity(f.space, out)

