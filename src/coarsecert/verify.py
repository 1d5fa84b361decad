"""Independent verification of every claim a construction can make.

Each check here recomputes its property from the actual object, never
trusting how the object was built: by direct enumeration, or, for full
mode's far pairs, by a bound proved from the object's own weights.
Reports always carry witnesses so that failures are reproducible by hand,
and the slack tolerance (-1e-9) is recorded in every report.

Every pairwise check reads each source row once and keeps the first
minimum under strict <, so witnesses are lexicographically least.  The
Lipschitz kernel reads the pou's CSR arrays and never builds its dense
n x carrier matrix.  It takes the pairs (i, j) of domain positions, i < j,
closer than a radius, in (i, j) order from one mask over the later columns
of each block of rows on its ball (metric.ball_blocks, cut off at the
radius), in arrays of at most ROW_BLOCK_CELLS/16 pairs that run across
rows but not blocks.  The first strict minimum in (i, j) order does not
depend on where an array ends, and neither does any slack, so reports do
not either.  Each l1 has the bits of numpy's row sum of |f(x) - f(y)| over
the carrier: a sum adds exact zeros, so two single-entry rows give |u - v|
or u + v directly, and every other pair is scattered into buffers of
carrier-wide rows (ROW_BLOCK_CELLS/4 cells) and summed there, since numpy's
pairwise association makes a sum of 3 or more terms depend on its order.
Restricted mode's largest weight sum follows the same rule.

Restricted mode's radius is 2*s/eps - 1, and its report covers the pairs
closer than that.  Full mode reports the least slack over every pair in
O(n * ball) work: it scans the pairs closer than rho = L/lam, L a bound on
every computed l1 (2s times 1 + 4 * carrier * eps, for numpy's summation
error), and a pair it skips is at distance >= rho, so its computed slack
is at least lam*rho + C - L.  When that is strictly above the scanned
minimum, the scan holds the least slack and its first witness; otherwise
rho doubles, up to a scan of every pair (lipschitz_check).
R-disjointness takes one distance to each member (metric.cross_minima)
and scans the rows of one member only to name a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BadModeError, EmptySetError, InvalidInputError, NotACoverError
from .metric import (
    ROW_BLOCK_CELLS,
    FiniteMetricSpace,
    PointSubset,
    ball_blocks,
    concat_sets,
    cross_minima,
    diameters,
    nearest_scan,
    row_entries,
)
from .simplex import (
    PartitionOfUnity,
    VertexId,
    star_preimage_diameters,
    vertex_key,
)

SLACK_TOL = 1e-9


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
            "worst_slack": None if math.isinf(self.worst_slack) else self.worst_slack,
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


def _pairs(space: FiniteMetricSpace, pts: np.ndarray, radius: Optional[float]):
    """(i, j, d) arrays of 1 to ROW_BLOCK_CELLS/16 pairs each.

    The pairs of domain positions i < j (with a radius, only those with
    d(pts[i], pts[j]) < radius) in (i, j) order, and d their distances.
    Each ball block of rows (ball_blocks, cut off at the radius) is taken
    on the domain positions in its ball after its first row's position,
    masked once, and read in runs of whole rows of about ROW_BLOCK_CELLS/16
    pairs: a run's pairs are its mask's nonzero cells, each row's numbered
    from its count, handed out in slices of at most ROW_BLOCK_CELLS/16.
    """
    size = max(1, ROW_BLOCK_CELLS // 16)
    m = len(pts)
    for lo, ball, rows in ball_blocks(space, pts, math.inf if radius is None else radius):
        at = np.minimum(np.searchsorted(pts, ball), m - 1)
        hit = pts[at] == ball  # the ball's points in the domain, at positions at[hit]
        cols = at[hit]
        first = int(np.searchsorted(cols, lo, side="right"))  # positions after lo
        rows = rows[:, first:] if hit.all() else rows[:, np.flatnonzero(hit)[first:]]
        cols = cols[first:]
        h, w = rows.shape
        near = np.ones((h, w), dtype=bool) if radius is None else rows < radius
        later = np.searchsorted(cols, np.arange(lo, lo + h), side="right")  # each row's j > i
        t = int(later[-1])
        near[:, :t] &= np.arange(t) >= later[:, None]
        counts = near.sum(axis=1, dtype=np.int32)  # twice as fast as an intp count
        step = max(1, h * size // max(1, int(counts.sum())))
        for g in range(0, h, step):
            mask = near[g:g + step]
            r, c = np.repeat(np.arange(len(mask)), counts[g:g + step]), np.flatnonzero(mask)
            c -= r * w  # the run's flat cells, row by row, less each row's start
            c = cols[c]
            r += lo + g
            d = rows[g:g + step][mask]
            for a in range(0, r.size, size):
                yield r[a:a + size], c[a:a + size], d[a:a + size]


class _SlackKernel:
    """l1(f(x), f(y)) from f's CSR arrays, with the bits of a dense row sum.

    Single-entry rows keep their column and weight.  A pair with a wider
    row is summed over a carrier-wide difference: x's dense row, scattered
    once for the run of pairs that share x, minus y's entries subtracted in
    place (each column at most once per row, and a - 0.0 is a, so these are
    the bits of the dense subtraction).  Every call reuses the buffers, so
    a kernel serves one caller at a time.
    """

    def __init__(self, f: PartitionOfUnity):
        self.f = f
        width = max(1, len(f.carrier()))
        self.height = max(1, ROW_BLOCK_CELLS // 4 // width)
        self.single = np.diff(f.indptr) == 1
        lead = f.indptr[:-1][self.single]  # the entry of each single-entry row
        self.column = np.full(len(self.single), -1, dtype=np.intp)
        self.weight = np.zeros(len(self.single))
        self.column[self.single], self.weight[self.single] = f.columns[lead], f.weights[lead]
        self.bufs = np.zeros((2, self.height, width))

    def _cells(self, rows, block):
        """(the flat cell in block of each entry of f's rows at rows, the entries)."""
        kept, k = row_entries(self.f.indptr, rows)
        flat = np.repeat(np.arange(0, block.size, block.shape[1]), np.diff(kept))
        flat += self.f.columns[k]  # row-major
        return flat, k

    def _dense(self, rows, buf):
        """f's dense rows at rows, written over the first rows of buf."""
        block = buf[:len(rows)]
        block.fill(0.0)
        flat, k = self._cells(rows, block)
        block.reshape(-1)[flat] = self.f.weights[k]
        return block

    def row_sums_max(self) -> float:
        """The largest row sum of f's dense matrix, 0.0 without rows."""
        top = float(self.weight.max(initial=0.0))
        rows = np.flatnonzero(~self.single)
        for lo in range(0, len(rows), self.height):
            block = self._dense(rows[lo:lo + self.height], self.bufs[0])
            top = max(top, float(block.sum(axis=1).max()))
        return top

    def l1_max(self) -> float:
        """A bound L on every value of l1: 2 * row_sums_max() * (1 + 4 * width * eps).

        Weights are finite and non-negative, so each computed |a - b| is at
        most max(a, b) <= a + b, and a sum of w = width non-negative terms
        in any order of additions is within a factor (1 +- eps/2)^(w-1) of
        its exact value.  So an l1 is at most the two rows' exact sums
        times (1 + eps/2)^(w-1), each exact sum at most row_sums_max()
        over (1 - eps/2)^(w-1), and a single-entry pair's u + v within
        eps/2 of 2s; 4 * w * eps covers those factors and the two roundings
        of the bound itself.
        """
        width = self.bufs.shape[2]
        return 2.0 * self.row_sums_max() * (1.0 + 4 * width * float(np.finfo(np.float64).eps))

    def l1(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """l1 between the rows of each pair (ii[k], jj[k]) of domain positions."""
        wi, wj = self.weight[ii], self.weight[jj]
        out = np.where(self.column[ii] == self.column[jj], np.abs(wi - wj), wi + wj)
        other = np.flatnonzero(~(self.single[ii] & self.single[jj]))
        for lo in range(0, len(other), self.height):
            k = other[lo:lo + self.height]
            run = np.ones(len(k), dtype=bool)  # pairs come in (i, j) order
            np.not_equal(ii[k[1:]], ii[k[:-1]], out=run[1:])
            diff = np.take(self._dense(ii[k[run]], self.bufs[0]), np.cumsum(run) - 1, axis=0,
                           out=self.bufs[1][:len(k)])
            flat, e = self._cells(jj[k], diff)
            diff.reshape(-1)[flat] -= self.f.weights[e]
            out[k] = np.abs(diff, out=diff).sum(axis=1)
        return out


def _scan(kernel: _SlackKernel, lam: float, C: float, radius: Optional[float]):
    """(worst, witness, count) over the pairs of kernel.f's domain that _pairs gives at radius.

    worst is the least slack lam*d + C - l1, witness its first pair in (i, j)
    order, as point ids, and count the number of pairs: each array's first
    minimum replaces the running one only when strictly below it.
    """
    pts = kernel.f.domain.ids
    worst, witness, count = math.inf, None, 0
    for ii, jj, d in _pairs(kernel.f.space, pts, radius):
        count += ii.size
        slack = lam * d + C - kernel.l1(ii, jj)
        k = int(np.argmin(slack))
        if slack[k] < worst:
            worst, witness = float(slack[k]), (int(pts[ii[k]]), int(pts[jj[k]]))
    return worst, witness, count


def lipschitz_check(f: PartitionOfUnity, lam: float, C: float,
                    mode: str = "full") -> LipschitzReport:
    """Check d(f(x), f(y)) <= lam*d(x,y) + C over the domain.

    Full mode reports the least slack over every unordered pair, its first
    witness in (i, j) order, and every pair as checked.  It scans only the
    pairs closer than a radius rho, and bounds the rest: every l1 the
    kernel returns is at most L (_SlackKernel.l1_max), and a pair the scan
    skips has d >= rho (a row cut off at rho has the uncut row's bits
    wherever it is at most rho), so, rounding being monotone, its slack is
    at least lam*rho + C - L, evaluated in the slack's own order.  When that
    is strictly above the scanned minimum, the scanned pairs hold the least
    slack and its first witness.  rho starts at L/lam, or at twice the
    space's least gap if larger (no pair is closer than the gap), and
    doubles until the bound clears or a scan takes every pair, which is the
    plain scan; with lam <= 0 the plain scan runs at once.  An infinite
    minimum (no pair yet) never clears.

    Restricted mode requires lam == C == eps and checks only pairs with
    d(x, y) < 2*s/eps - 1, where s is the largest weight sum of the pou, or
    1 when every sum lies within tolerance/4 of 1.  Pairs at or beyond that
    radius satisfy eps*d + eps >= 2*s >= l1 (up to tolerance/2 when s = 1),
    so the two modes agree on pass/fail.
    """
    _require_finite(lam=lam, C=C)
    if mode == "restricted":
        if lam != C:
            raise BadModeError("restricted mode requires lambda == C")
        if lam <= 0:
            raise BadModeError("restricted mode requires epsilon > 0")
    elif mode != "full":
        raise BadModeError(f"unknown mode {mode!r}")

    kernel = _SlackKernel(f)
    if mode == "restricted":
        s_max = kernel.row_sums_max()
        s = s_max if s_max > 1.0 + SLACK_TOL / 4 else 1.0
        radius = 2.0 * s / lam - 1.0
        return LipschitzReport(lam, C, *_scan(kernel, lam, C, radius), radius)
    m = len(f.domain)
    total = m * (m - 1) // 2
    top = kernel.l1_max()
    radius = max(top / lam, 2.0 * f.space.least_gap()) if lam > 0 else None
    while True:
        worst, witness, count = _scan(kernel, lam, C, radius)
        if count == total or lam * radius + C - top > worst:
            return LipschitzReport(lam, C, worst, witness, total)
        radius *= 2.0


# ---------------------------------------------------------------------------
# coboundedness
# ---------------------------------------------------------------------------

def cobounded_check(f: PartitionOfUnity, M: float) -> CoboundedReport:
    """Check every star preimage has diameter at most M; names the least worst vertex."""
    _require_finite(M=M)
    diams = star_preimage_diameters(f)
    k = int(np.argmax(diams))
    return CoboundedReport(bound=float(M), tight_bound=float(diams[k]),
                           worst_vertex=f.carrier()[k], vertices_checked=len(diams))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def r_disjoint_check(space: FiniteMetricSpace, family, R: float) -> DisjointReport:
    """Check cross-member pairs are at distance > R; witness the closest pair.

    The witness (x, y, s, t) has the least distance, then the least (s, t),
    x and y; it is rebuilt for the winning (s, t) from a scan of s's rows
    cut off at that distance.
    """
    if math.isnan(R):  # no distance compares with NaN, which would read as a pass
        raise InvalidInputError(f"R = {R!r} is not a number")
    fam = _as_family(family)
    best, win = math.inf, None
    for s, cross in enumerate(cross_minima(space, fam.members)):
        k = int(np.argmin(cross))
        if cross[k] < best:
            best, win = float(cross[k]), (s, s + 1 + k)
    if win is None or not best <= R:
        return DisjointReport(R=R, min_cross=best, witness=None)
    s, t = win
    dist, nearest = nearest_scan(space, fam.members[s].ids, best)
    ys = fam.members[t].ids
    ys = ys[dist[ys] == best]
    x = nearest[ys].min()  # nearest[y]: the least x in s at distance best from y
    return DisjointReport(R=R, min_cross=best, witness=(int(x), int(ys[nearest[ys] == x][0]), s, t))


def uniformly_bounded_check(space: FiniteMetricSpace, family) -> BoundednessReport:
    """Exact max member diameter (the tight uniform bound)."""
    fam = _as_family(family)
    diams = diameters(space, *concat_sets(fam.members)).tolist()
    worst = int(np.argmax(diams))
    return BoundednessReport(bound=float(diams[worst]), worst_member=worst,
                             diameters=diams)


def _member_masks(space: FiniteMetricSpace, fam: CoverFamily) -> np.ndarray:
    masks = np.zeros((len(fam.members), space.n), dtype=bool)
    for k, member in enumerate(fam.members):
        masks[k, member.ids] = True
    return masks


def lebesgue_check(space: FiniteMetricSpace, cover, M: float) -> LebesgueReport:
    """Pass iff every open M-ball is contained in some cover member.

    The witness is the first point whose ball escapes every member.
    """
    if math.isnan(M):  # a NaN ball holds no point, which would read as a pass
        raise InvalidInputError(f"M = {M!r} is not a number")
    fam = _as_family(cover)
    masks = _member_masks(space, fam)
    covered = masks.any(axis=0)
    if not covered.all():
        raise NotACoverError(int(np.flatnonzero(~covered)[0]))
    for lo, ball, rows in ball_blocks(space, np.arange(space.n), M):
        for x, row in enumerate(rows, lo):
            if not masks[:, ball[row < M]].all(axis=1).any():
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
