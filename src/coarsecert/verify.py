"""Independent verification of every claim a construction can make.

Each check here recomputes its property by direct enumeration over the
actual object, never trusting how the object was built.  Reports always
carry witnesses so that failures are reproducible by hand, and the slack
tolerance (-1e-9) is recorded in every report.

Every pairwise check reads each source row once and keeps the first
minimum under strict <, so witnesses are lexicographically least.  The
Lipschitz kernel compares one domain position's weight and distance rows
with its partners' (later positions, or in restricted mode the later ones
closer than the radius) at a time, so its temporaries are at most m x
carrier; the distance rows come in blocks (metric.row_blocks), cut off at
the restricted radius.  Worker threads take contiguous blocks of positions,
reduced in block order, so reports do not depend on the worker count.
R-disjointness takes one distance to each member (metric.cross_minima) and
scans the rows of one member only to name a witness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BadModeError, EmptySetError, InvalidInputError, NotACoverError
from .metric import (
    FiniteMetricSpace,
    PointSubset,
    cross_minima,
    diameter,
    nearest_scan,
    row_blocks,
)
from .simplex import PartitionOfUnity, VertexId, star_preimage_diameters, vertex_key

SLACK_TOL = 1e-9


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

def _require_finite(**claims) -> None:
    """A NaN claim passes every comparison and an infinite one every pair."""
    for name, value in claims.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"claimed {name} = {value!r} is not finite")


def _partners(space: FiniteMetricSpace, pts: np.ndarray, radius: Optional[float], positions):
    """(i, js, d) per domain position i: the ascending positions j > i paired with i.

    All of them without a radius; with one, those with d(pts[i], pts[j]) <
    radius.  d holds those distances, read from pts[i]'s row, which comes in
    a block of rows cut off at the radius.
    """
    pos = np.full(space.n, -1, dtype=np.intp)  # domain position of each id
    pos[pts] = np.arange(len(pts))
    positions = np.asarray(positions, dtype=np.intp)
    limit = math.inf if radius is None else radius
    for lo, rows in row_blocks(space, pts[positions], limit):
        for i, row in zip(positions[lo:lo + len(rows)], rows):
            if radius is None:
                js = np.arange(i + 1, len(pts))
                yield i, js, row[pts[js]]
            else:  # ascending ids, so ascending positions
                near = np.flatnonzero(row < radius)
                later = pos[near] > i
                yield i, pos[near[later]], row[near[later]]


def lipschitz_check(f: PartitionOfUnity, lam: float, C: float, mode: str = "full",
                    workers: int = 1) -> LipschitzReport:
    """Check d(f(x), f(y)) <= lam*d(x,y) + C over the domain.

    Full mode checks every unordered pair.  Restricted mode requires
    lam == C == eps and checks only pairs with d(x, y) < 2*s/eps - 1, where
    s is the largest weight sum of the pou, or 1 when every sum lies within
    tolerance/4 of 1.  Pairs at or beyond that radius satisfy
    eps*d + eps >= 2*s >= l1 (up to tolerance/2 when s = 1), so the two
    modes agree on pass/fail.
    """
    _require_finite(lam=lam, C=C)
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

    def run(positions):
        # an l1 is one row sum over all carrier columns, so its bits do not
        # depend on how pairs are grouped
        worst, witness, count = math.inf, None, 0
        for i, js, d in _partners(f.space, pts, restricted_radius, positions):
            if js.size:
                diff = mat[js]
                np.subtract(mat[i], diff, out=diff)
                slack = lam * d + C - np.abs(diff, out=diff).sum(axis=1)
                k = int(np.argmin(slack))
                count += js.size
                if slack[k] < worst:
                    worst, witness = float(slack[k]), (int(pts[i]), int(pts[js[k]]))
        return worst, witness, count

    if workers > 1:  # contiguous blocks of positions, reduced in block order
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, np.array_split(np.arange(len(pts)), workers)))
    else:
        results = [run(range(len(pts)))]
    worst, witness, _ = min(results, key=lambda r: r[0])  # the first of equal minima
    return LipschitzReport(lam, C, worst, witness, sum(r[2] for r in results), restricted_radius)


# ---------------------------------------------------------------------------
# coboundedness
# ---------------------------------------------------------------------------

def cobounded_check(f: PartitionOfUnity, M: float) -> CoboundedReport:
    """Check every star preimage has diameter at most M; names the worst vertex."""
    _require_finite(M=M)
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
    """Check cross-member pairs are at distance > R; witness the closest pair.

    The witness (x, y, s, t) has the least distance, then the least (s, t),
    x and y; it is rebuilt for the winning (s, t) from a scan of s's rows
    cut off at that distance.
    """
    fam = _as_family(family)
    best, win = math.inf, None
    for s, cross in enumerate(cross_minima(space, fam.members)):
        k = int(np.argmin(cross))
        if cross[k] < best:
            best, win = float(cross[k]), (s, s + 1 + k)
    if win is None or not best <= R:
        return DisjointReport(R=R, min_cross=best, witness=None)
    s, t = win
    dist, nearest = nearest_scan(space, fam.members[s].array(), best)
    ys = fam.members[t].array()
    ys = ys[dist[ys] == best]
    x = nearest[ys].min()  # nearest[y]: the least x in s at distance best from y
    return DisjointReport(R=R, min_cross=best, witness=(int(x), int(ys[nearest[ys] == x][0]), s, t))


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
    """Pass iff every open M-ball is contained in some cover member.

    The witness is the first point whose ball escapes every member.
    """
    fam = _as_family(cover)
    masks = _member_masks(space, fam)
    covered = masks.any(axis=0)
    if not covered.all():
        raise NotACoverError(int(np.flatnonzero(~covered)[0]))
    for lo, rows in row_blocks(space, np.arange(space.n), M):
        for x, row in enumerate(rows, lo):
            if not masks[:, np.flatnonzero(row < M)].all(axis=1).any():
                return LebesgueReport(M=M, witness_point=x)
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
