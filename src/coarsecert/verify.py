"""Independent verification of a certificate: its Lipschitz and coboundedness claims.

These two checks are all that `coarsecert verify` runs.  Each recomputes
its property from the actual pou, never trusting how the pou was built:
by direct enumeration, or, for full mode's far pairs, by a bound proved
from the pou's own weights.  Reports always carry witnesses so that
failures are reproducible by hand, and the slack tolerance (-1e-9) is
recorded in every report.

The Lipschitz check reads each source row once and keeps the first
minimum under strict <, so its witness is lexicographically least.  Its
kernel reads the pou's CSR arrays and never builds its dense n x carrier
matrix.  It takes the pairs (i, j) of domain positions, i < j,
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BadModeError, InvalidInputError
from .metric import ROW_BLOCK_CELLS, FiniteMetricSpace, ball_blocks, row_entries
from .simplex import (
    PartitionOfUnity,
    VertexId,
    star_preimage_diameters,
    vertex_key,
)

SLACK_TOL = 1e-9


@dataclass
class LipschitzReport:
    lam: float
    C: float
    worst_slack: float
    witness_pair: Optional[Tuple[int, int]]
    pairs_checked: int
    restricted_radius: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -SLACK_TOL

    def to_json(self) -> dict:
        """The report as JSON, which has no infinity: any infinite worst slack is null.

        The witness tells the two apart.  It is null for +inf, when no pair
        was examined or every slack overflowed upwards (the claim holds, and
        pairs_checked says which); it is a pair for -inf, when a failing
        slack overflowed downwards.
        """
        return {
            "check": "lipschitz",
            "pass": self.passed,
            "lambda": self.lam,
            "C": self.C,
            "tolerance": SLACK_TOL,
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

    @property
    def passed(self) -> bool:
        return self.tight_bound <= self.bound + SLACK_TOL

    def to_json(self) -> dict:
        return {
            "check": "cobounded",
            "pass": self.passed,
            "bound": self.bound,
            "tolerance": SLACK_TOL,
            "tight_bound": self.tight_bound,
            "witness": vertex_key(self.worst_vertex) if self.worst_vertex else None,
            "vertices_checked": self.vertices_checked,
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
        with np.errstate(over="ignore"):  # an overflow gives the infinity of its sign: the verdict
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
