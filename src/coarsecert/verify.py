"""Independent verification of every claim a construction can make.

Each check here recomputes its property by direct enumeration over the
actual object, never trusting how the object was built.  Reports always
carry witnesses so that failures are reproducible by hand, and the slack
tolerance (-1e-9) is recorded in every report.

Pair enumeration is chunked in lexicographic order with a deterministic
min-slack reduction (lexicographic witness tie-break), so reports are
bit-identical regardless of worker count.  Inside a chunk the slack kernel
streams rows: each run of pairs sharing a first point compares that point's
weight row with its partners' rows, so the kernel's temporaries are at most
m x carrier, never chunk x carrier.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BadModeError, EmptySetError, NotACoverError
from .metric import FiniteMetricSpace, PointSubset, diameter, equal_runs, min_cross_distance
from .simplex import PartitionOfUnity, VertexId, star_preimage_diameters, vertex_key

SLACK_TOL = 1e-9
PAIR_CHUNK = 65536


@dataclass(frozen=True)
class CoverFamily:
    """A tuple of nonempty subsets."""

    members: Tuple[PointSubset, ...]

    def __post_init__(self):
        members = tuple(
            m if isinstance(m, PointSubset) else PointSubset(tuple(m))
            for m in self.members
        )
        object.__setattr__(self, "members", members)
        for k, m in enumerate(members):
            if not m.ids:
                raise EmptySetError(f"cover family member {k} is empty")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _as_family(family) -> CoverFamily:
    if isinstance(family, CoverFamily):
        return family
    return CoverFamily(tuple(family))


@dataclass
class LipschitzReport:
    lam: float
    C: float
    worst_slack: float
    witness_pair: Optional[Tuple[int, int]]
    pairs_checked: int
    restricted_radius: Optional[float] = None
    tolerance: float = SLACK_TOL

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -self.tolerance

    def to_json(self) -> dict:
        return {
            "check": "lipschitz",
            "pass": self.passed,
            "lambda": self.lam,
            "C": self.C,
            "tolerance": self.tolerance,
            "worst_slack": self.worst_slack,
            "witness": list(self.witness_pair) if self.witness_pair else None,
            "pairs_checked": self.pairs_checked,
            "restricted_radius": self.restricted_radius,
        }


@dataclass
class CoboundedReport:
    bound: float
    tight_bound: float
    worst_vertex: Optional[VertexId]
    vertices_checked: int
    tolerance: float = SLACK_TOL

    @property
    def passed(self) -> bool:
        return self.tight_bound <= self.bound + self.tolerance

    def to_json(self) -> dict:
        return {
            "check": "cobounded",
            "pass": self.passed,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "tight_bound": self.tight_bound,
            "witness": vertex_key(self.worst_vertex) if self.worst_vertex else None,
            "vertices_checked": self.vertices_checked,
        }


@dataclass
class DisjointReport:
    R: float
    min_cross: float
    witness: Optional[Tuple[int, int, int, int]]  # (x, y, member s, member t)

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "check": "r_disjoint",
            "pass": self.passed,
            "R": self.R,
            "tolerance": SLACK_TOL,
            "min_cross_distance": None if math.isinf(self.min_cross) else self.min_cross,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass
class BoundednessReport:
    bound: float
    worst_member: int
    diameters: List[float]

    def to_json(self) -> dict:
        return {
            "check": "uniformly_bounded",
            "pass": True,
            "tolerance": SLACK_TOL,
            "bound": self.bound,
            "worst_member": self.worst_member,
            "diameters": self.diameters,
        }


@dataclass
class LebesgueReport:
    M: float
    witness_point: Optional[int]

    @property
    def passed(self) -> bool:
        return self.witness_point is None

    def to_json(self) -> dict:
        return {
            "check": "lebesgue",
            "pass": self.passed,
            "tolerance": SLACK_TOL,
            "M": self.M,
            "witness": self.witness_point,
        }


@dataclass
class MultiplicityReport:
    maximum: int
    histogram: Dict[int, int]
    per_point: np.ndarray

    def to_json(self) -> dict:
        return {
            "check": "multiplicity",
            "pass": True,
            "tolerance": SLACK_TOL,
            "maximum": self.maximum,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------

def _upper_pairs(m: int, lo: int, hi: int):
    """Pairs lo..hi-1 of the lexicographic order of (i, j), i < j < m."""
    i_all = np.arange(m)
    starts = i_all * (2 * m - i_all - 1) // 2  # rank of the pair (i, i + 1)
    k = np.arange(lo, hi)
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _pair_slack_chunks(space: FiniteMetricSpace, pts: np.ndarray, mat: np.ndarray,
                       npairs: int, pairs, lam: float, C: float, workers: int):
    """Min slack over pair chunks; deterministic reduce in chunk order.

    pairs(lo, hi) gives the positions (ii, jj) of pairs lo..hi-1, so only
    one chunk of pairs per worker is held at a time.
    """
    nchunks = max(1, math.ceil(npairs / PAIR_CHUNK))

    def run(ci: int):
        lo, hi = ci * PAIR_CHUNK, min((ci + 1) * PAIR_CHUNK, npairs)
        ii, jj = pairs(lo, hi)
        # one row of mat against its partners per run of equal ii; each l1 is
        # still one row sum over all carrier columns, so its bits do not
        # depend on where runs or chunks end
        l1 = np.empty(hi - lo)
        for a, b in equal_runs(ii):
            diff = mat[jj[a:b]]
            np.subtract(mat[ii[a]], diff, out=diff)
            l1[a:b] = np.abs(diff, out=diff).sum(axis=1)
        d = space.pair_distances(pts[ii], pts[jj])
        slack = lam * d + C - l1
        k = int(np.argmin(slack))  # first occurrence = lexicographic min pair
        return float(slack[k]), (int(pts[ii[k]]), int(pts[jj[k]]))

    if workers > 1 and nchunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(nchunks)))
    else:
        results = [run(ci) for ci in range(nchunks)]

    worst = math.inf
    witness = None
    for s, w in results:
        if s < worst:
            worst, witness = s, w
    return worst, witness


def _restricted_pairs(space: FiniteMetricSpace, pts: np.ndarray, radius: float,
                      gather: str):
    """Lexicographically ordered pairs (by domain position) with d < radius."""
    if gather == "auto":
        gather = "table" if space.has_table else "bfs"
    if gather == "table":
        # one row at a time: the partners of i are the later points within radius
        near = [np.flatnonzero(space.row(int(x))[pts[i + 1:]] < radius) + (i + 1)
                for i, x in enumerate(pts)]
        out_i = np.repeat(np.arange(len(pts)), [len(js) for js in near])
        return out_i, np.concatenate(near)
    if gather != "bfs":
        raise BadModeError(f"unknown pair gather mode {gather!r}")
    pos = {int(p): i for i, p in enumerate(pts)}
    out_i: List[int] = []
    out_j: List[int] = []
    for i, x in enumerate(pts):
        near = space.neighbors_within(int(x), radius)
        for y in near:
            j = pos.get(int(y))
            if j is not None and j > i:
                out_i.append(i)
                out_j.append(j)
    order = np.lexsort((np.asarray(out_j, dtype=np.intp), np.asarray(out_i, dtype=np.intp)))
    return (np.asarray(out_i, dtype=np.intp)[order],
            np.asarray(out_j, dtype=np.intp)[order])


def lipschitz_check(f: PartitionOfUnity, lam: float, C: float, mode: str = "full",
                    workers: int = 1, gather: str = "auto") -> LipschitzReport:
    """Check d(f(x), f(y)) <= lam*d(x,y) + C over the domain.

    Full mode checks every unordered pair.  Restricted mode requires
    lam == C == eps and checks only pairs with d(x, y) < 2*s/eps - 1, where
    s is the largest weight sum of the pou, or 1 when every sum lies within
    tolerance/4 of 1.  Pairs at or beyond that radius satisfy
    eps*d + eps >= 2*s >= l1 (up to tolerance/2 when s = 1), so the two
    modes agree on pass/fail.
    """
    restricted_radius = None
    if mode == "restricted":
        if lam != C:
            raise BadModeError("restricted mode requires lambda == C")
        if lam <= 0:
            raise BadModeError("restricted mode requires epsilon > 0")
    elif mode != "full":
        raise BadModeError(f"unknown mode {mode!r}")

    pts, _, mat = f.dense()
    if mode == "restricted":
        s_max = float(mat.sum(axis=1).max(initial=0.0))
        s = s_max if s_max > 1.0 + SLACK_TOL / 4 else 1.0
        restricted_radius = 2.0 * s / lam - 1.0
    m = len(pts)
    if m < 2:
        return LipschitzReport(lam, C, math.inf, None, 0, restricted_radius)

    if mode == "full":
        npairs = m * (m - 1) // 2
        pairs = partial(_upper_pairs, m)
    else:
        if restricted_radius <= 0:
            return LipschitzReport(lam, C, math.inf, None, 0, restricted_radius)
        pairs_i, pairs_j = _restricted_pairs(f.space, pts, restricted_radius, gather)
        npairs = len(pairs_i)
        if npairs == 0:
            return LipschitzReport(lam, C, math.inf, None, 0, restricted_radius)

        def pairs(lo, hi):
            return pairs_i[lo:hi], pairs_j[lo:hi]

    worst, witness = _pair_slack_chunks(f.space, pts, mat, npairs, pairs, lam, C, workers)
    return LipschitzReport(lam, C, worst, witness, npairs, restricted_radius)


# ---------------------------------------------------------------------------
# coboundedness
# ---------------------------------------------------------------------------

def cobounded_check(f: PartitionOfUnity, M: float) -> CoboundedReport:
    """Check every star preimage has diameter at most M; names the worst vertex."""
    diams, _ = star_preimage_diameters(f)
    worst_v = None
    worst_d = -1.0
    for v in sorted(diams):
        if diams[v] > worst_d:
            worst_d = diams[v]
            worst_v = v
    return CoboundedReport(bound=float(M), tight_bound=worst_d,
                           worst_vertex=worst_v, vertices_checked=len(diams))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def r_disjoint_check(space: FiniteMetricSpace, family, R: float) -> DisjointReport:
    """Check cross-member pairs are at distance > R; witness the closest pair."""
    fam = _as_family(family)
    best = math.inf
    best_w = None
    for s in range(len(fam.members)):
        for t in range(s + 1, len(fam.members)):
            d, (x, y) = min_cross_distance(space, fam.members[s], fam.members[t])
            if d < best:
                best = d
                best_w = (x, y, s, t)
    if best_w is not None and best <= R:
        return DisjointReport(R=R, min_cross=best, witness=best_w)
    return DisjointReport(R=R, min_cross=best, witness=None)


def uniformly_bounded_check(space: FiniteMetricSpace, family) -> BoundednessReport:
    """Exact max member diameter (the tight uniform bound)."""
    fam = _as_family(family)
    diams = [diameter(space, member) for member in fam.members]
    worst = int(np.argmax(diams))
    return BoundednessReport(bound=float(diams[worst]), worst_member=worst,
                             diameters=diams)


def _member_masks(space: FiniteMetricSpace, fam: CoverFamily) -> np.ndarray:
    masks = np.zeros((len(fam.members), space.n), dtype=bool)
    for k, member in enumerate(fam.members):
        masks[k, member.array()] = True
    return masks


def lebesgue_check(space: FiniteMetricSpace, cover, M: float) -> LebesgueReport:
    """Pass iff every open M-ball is contained in some cover member."""
    fam = _as_family(cover)
    masks = _member_masks(space, fam)
    if not masks.any(axis=0).all():
        raise NotACoverError(int(np.flatnonzero(~masks.any(axis=0))[0]))
    outside = (~masks).astype(np.int32)  # (m, n)
    chunk = max(1, (1 << 22) // max(1, space.n))
    for lo in range(0, space.n, chunk):
        hi = min(lo + chunk, space.n)
        balls = (space.rows(np.arange(lo, hi)) < M).astype(np.int32)  # (c, n)
        escapes = balls @ outside.T  # (c, m): ball points outside member k
        ok = (escapes == 0).any(axis=1)
        if not ok.all():
            return LebesgueReport(M=M, witness_point=int(lo + np.flatnonzero(~ok)[0]))
    return LebesgueReport(M=M, witness_point=None)


def multiplicity(space: FiniteMetricSpace, cover) -> MultiplicityReport:
    """Max number of members containing a point, plus the full histogram."""
    fam = _as_family(cover)
    counts = _member_masks(space, fam).sum(axis=0)
    values, freq = np.unique(counts, return_counts=True)
    return MultiplicityReport(
        maximum=int(counts.max()) if counts.size else 0,
        histogram={int(v): int(c) for v, c in zip(values, freq)},
        per_point=counts,
    )
