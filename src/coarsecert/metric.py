"""Finite metric spaces and the geometric primitives built on them.

A FiniteMetricSpace is n points with ids 0..n-1 and a validated metric.
Spaces come from three loaders (explicit matrix, weighted graph via
shortest paths, point cloud with an lp norm) and are immutable afterwards,
so every operation here is a pure function and safe under concurrent
readers.  A set of points is a PointSubset: one read-only, strictly
ascending intp array of ids, which the set primitives and their callers
index, mask and search as a whole, never one point at a time.

A graph's distance from x is its Dijkstra row from x, and a cloud's its lp
row (_lp_row).  A graph keeps no distances at any size: FiniteMetricSpace.row
computes one row and returns it, and a question that needs many rows asks
for them in blocks (FiniteMetricSpace.rows) cut off at the largest distance
it can use.  A block is one Dijkstra call from all of its sources with that
limit, and a distance to a set is one multi-source Dijkstra call
(FiniteMetricSpace.distances_to).  Both give the single-source rows' bits
wherever they answer: a vertex's Dijkstra distance is the least rounded
d(u) + w(u, v) over its neighbours u, whatever the order of the search.  A
graph's row may differ from its column in the last bits when float weights
are summed in different orders; nothing here assumes otherwise.

A block of rows cut off at a finite limit L is computed on its ball's own
subgraph (ball_blocks), or on the whole graph when the ball holds most of
it, with the same bits.  A Dijkstra value is the least
fixed point of d(v) = min over in-neighbours u of fl(d(u) + w(u, v)), with
d = 0 at the sources.  Rounding is monotone and w > 0, so fl(d(u) + w) >=
d(u): every in-neighbour that sets a value d(v) <= L has d(u) <= L, and
following those neighbours back from v reaches the source through points
within L of it.  The multi-source value is at most each single source's
value, since each single-source solution bounds the multi-source least
fixed point from above, so all those points lie in the block's ball
{x : multi-source d(x) <= L}.  The ball's subgraph keeps every edge between
points of the ball, so its search meets each such chain and gives every
value <= L the whole graph's bits; with fewer edges it gives no smaller
value anywhere, so it cuts off past L what the whole graph cuts off.
A matrix is its table.  A cloud of n <= 4096 points (DENSE_LIMIT) keeps its
lp rows stacked as a dense float64 table, the same rows bit for bit, since
its triangle check reads the table (below); a larger cloud keeps none, and
builds a block a coordinate at a time where that gives the rows' bits
(_lp_rows).  For a graph DENSE_LIMIT only decides how many rows are
certified at load.
Only FiniteMetricSpace reads a table, so whether a space has one is
decided inside that class alone.  The set primitives at the end of this
module keep a running minimum over ball blocks in ascending id order, so no
|A| x n block is ever built and a set query holds O(n) plus one block.

A graph's diameter reads a row only while it can raise the running
maximum: a read row v bounds every member w by ecc(v) + d(v, w), and w's
row is skipped once that bound times 1 + 4*n*eps is at most the maximum.
A Dijkstra entry is a rounded sum along a path of at most n - 1 edges, so
it lies within a factor (1 +- eps)^(n-1) of the graph distance, which obeys
the triangle inequality exactly; so a skipped row holds no larger entry,
and the diameter is the max over every row, bit for bit (_diameter_loop).  A
matrix or a cloud reads every row.  The diameters of many sets (diameters)
run that loop for all of them in lockstep, so a graph's many small sets,
such as star preimages, share one ball block (ball_blocks) of rows.  Each
set still picks exactly the rows it would pick alone, since its picks read
only its own rows, and each of those rows has the same bits from a block
cut off at a larger limit: a larger limit only makes more entries exact.
So every diameter keeps its bits.

Metric axioms are validated eagerly at load, unless the loader can prove
that every distance it will ever return is exact (below).  Each loader
checks what its construction does not already guarantee:

- load_matrix checks the table axioms (zero diagonal, symmetry, signs,
  positivity off the diagonal) in blocks of rows, allocating no n x n
  temporary;
- load_graph needs none of them: positive weights on a connected graph give
  a zero diagonal and positive distances elsewhere.  It checks its edges
  as arrays when they come as one table, and rules out overflowing
  distances, scanning rows only when the edges' total overflows;
- load_points rules out overflowing distances and points at distance 0
  (_check_distinct); |a - b| is exactly |b - a|, so its rows are symmetric.

The triangle inequality is then checked in one of two ways:

- a graph is checked against its own edges: every entry off the diagonal
  of a certified row must equal, within METRIC_TOL, the least
  d(x,u) + w(u,y) over the edges (u,y) into y.  A graph of n <= DENSE_LIMIT
  points certifies all its rows, in blocks, in O(n*E), which makes them
  its shortest-path metric; a larger one certifies the seeded pool of rows
  the sample draws;
- any other space gets the row check (_validate_triangles): for x and y
  among the checked rows and every z, d(x,z) <= d(x,y) + d(y,z) +
  METRIC_TOL.  A matrix, or another space of n <= DENSE_LIMIT points, with
  n <= 2000 checks all its rows, so every triple; otherwise a seeded pool
  of rows is checked (at least 10*n^2 triples).  The limits decide how
  many rows are checked, never what a verdict means.  A table within
  METRIC_TOL of its own shortest-path closure (Floyd-Warshall) passes
  every triple, since the closure of (x,z) is at most d(x,y) + d(y,z), so
  that is tried first, as a fast accept.

The tolerance of the graph check adds up per hop: each edge test allows
METRIC_TOL, so a certified row is within h*METRIC_TOL of the graph metric
on pairs joined by h-edge paths and satisfies the triangle inequality up to
METRIC_TOL per edge of the paths involved.  That argument needs every edge
weight above METRIC_TOL; a graph with a lighter edge gets the row check
instead.

Exact sums skip every check above (_exact_grid).  Let g be the least
exponent of the lowest set bit over the values, read from np.frexp, so
each value is an integer multiple of 2**g.  A float64 has a 53-bit
significand, so every integer multiple of 2**g below 2**53 * 2**g and at
most the largest float is a float, and a float sum or difference of two
such multiples is exact whenever the exact result is one of them.

- load_graph: the graph is exact when the sum over the stored weights,
  which is twice the edge total, is below 2**53 * 2**g and finite.  Every
  relaxation candidate d(u) + w(u, v) is then such a multiple: by
  induction d(u) is an exact shortest-path distance, which sums distinct
  edges, so both terms are at most the edge total.  So every float
  addition of Dijkstra is exact, and every row it returns (alone, in a
  block, from a cut-off query or a multi-source call) is the graph's
  shortest-path metric, which obeys every axiom exactly.
- load_points with p in {1, inf}: the cloud is exact when the coordinates'
  spreads (max - min per dimension), summed, are below 2**53 * 2**g and
  finite, g taken over the nonzero coordinates.  Every |a_k - b_k| is then
  a multiple of 2**g at most its spread, and every partial sum or max of
  them in _lp_row and _lp_rows is at most the summed spreads, so each row
  is the exact lp distance.

The sum of the values / 2**g is rounded, and compared with 2**53 strictly:
2**53 is a float and rounding is monotone, so the rounded sum is below it
only when the exact sum is, and then it is exact; scaled back by 2**g it
is finite only when the exact total is at most the largest float.  Any
other graph or cloud, and every matrix, gets the checks above unchanged.
The rule is decided in the loaders, not in _validate, because it covers
only rows that this module computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra, floyd_warshall
from scipy.sparse.csgraph import shortest_path  # noqa: F401  unused; bench/tracer.py wraps it

from .errors import (
    AsymmetryError,
    BadNormError,
    DisconnectedError,
    EmptySetError,
    InvalidInputError,
    MixedArityError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    ShortestPathViolationError,
    TriangleViolationError,
    ZeroOffDiagonalError,
)

METRIC_TOL = 1e-9
DENSE_LIMIT = 4096
EXHAUSTIVE_TRIANGLE_LIMIT = 2000
TRIANGLE_SAMPLE_SEED = 0x5EED
TABLE_CHUNK_CELLS = 1 << 19
ROW_BLOCK_CELLS = 1 << 16  # cells of one block of distance rows (512 KiB)
DIAMETER_MARGIN = 1e-6     # relative slack of the cut-off above twice an eccentricity


def as_int(value, what: str) -> int:
    """int(value), refusing a non-number, NaN, infinities and a value int() would change (1.5)."""
    if (not _real(value) or not (isinstance(value, (int, np.integer)) or math.isfinite(value))
            or int(value) != value):
        raise InvalidInputError(f"{what} {value!r} is not an integer")
    return int(value)


def _real(value) -> bool:
    """A real number: not a string or boolean, which float() and np.asarray read as
    numbers, nor a null, array or object, which they refuse with a bare TypeError."""
    return _real_kind(type(value))


def _real_kind(kind: type) -> bool:
    return issubclass(kind, (int, float, np.integer, np.floating)) and kind is not bool


def real_array(values: Sequence) -> Optional[np.ndarray]:
    """values as one float64 array if each is a real number (_real), else None.

    type() sorts the values, with no Python call per value; an int past
    every float gives None too.  Ints are rounded as float() rounds them.
    On None, the caller names the fault one value at a time (as_int,
    as_float).
    """
    if not all(map(_real_kind, set(map(type, values)))):
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def as_float(value, what: str) -> float:
    """float(value), refusing anything that is not a real number, or an int past every float."""
    if not _real(value):
        raise InvalidInputError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{what} {value!r} is too large for a float") from None


def row_entries(indptr: np.ndarray, rows: np.ndarray):
    """(indptr of the CSR rows at rows, kept one after another, and their entries)."""
    counts = indptr[rows + 1] - indptr[rows]
    kept = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=kept[1:])
    return kept, np.repeat(indptr[rows] - kept[:-1], counts) + np.arange(kept[-1])


def _refuse_non_numbers(rows, what: str) -> None:
    """Name the first entry that is not a real number in a sequence of rows of numbers."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        return
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not _real(value):
                raise InvalidInputError(f"{what} [{i}][{j}] {value!r} is not a number")


@dataclass(frozen=True, eq=False)
class PointSubset:
    """Point ids of a host space: `ids`, one read-only, strictly ascending intp array.

    Takes a tuple, list, range or integer array; iterating gives ints.  Ids not
    strictly ascending are sorted and deduplicated; a writeable array is copied.
    """

    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.intp)
        if (np.diff(ids) <= 0).any():
            ids = np.unique(ids)
        elif ids is self.ids and ids.flags.writeable:
            ids = ids.copy()
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)

    def validate_against(self, space: "FiniteMetricSpace") -> None:
        if len(self.ids) and (self.ids[0] < 0 or self.ids[-1] >= space.n):
            bad = self.ids[0] if self.ids[0] < 0 else self.ids[-1]
            raise InvalidInputError(f"point id {bad} outside space of size {space.n}")

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __contains__(self, x):
        i = np.searchsorted(self.ids, x)
        return bool(i < len(self.ids) and self.ids[i] == x)

    def __eq__(self, other):
        return isinstance(other, PointSubset) and np.array_equal(self.ids, other.ids)


class FiniteMetricSpace:
    """n points with a validated metric; the universe of every construction."""

    def __init__(self, n: int, provenance: str, dmat: Optional[np.ndarray] = None,
                 graph: Optional[csr_matrix] = None, coords: Optional[np.ndarray] = None,
                 p_norm: Optional[float] = None, meta: Optional[dict] = None):
        self.n = int(n)
        self.provenance = provenance
        self._dmat = dmat
        self._graph = graph
        self._coords = coords
        self._p_norm = p_norm
        self.meta = dict(meta or {})
        if dmat is not None:
            dmat.setflags(write=False)

    # -- distance queries ---------------------------------------------------

    @property
    def has_table(self) -> bool:
        return self._dmat is not None

    def d(self, x: int, y: int) -> float:
        return float(self.row(x)[y])

    def row(self, x: int) -> np.ndarray:
        """Distances from x to every point: a table row, or computed and not kept."""
        if self._dmat is not None:
            return self._dmat[x]
        return self._compute_row(x)

    def _compute_row(self, x: int) -> np.ndarray:
        if self._graph is not None:
            # load_graph stores both directions of every edge, so the directed
            # search sees the same graph without scipy symmetrizing it per call
            return dijkstra(self._graph, directed=True, indices=x)
        return _lp_row(self._coords, x, self._p_norm)

    def rows(self, ids: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """The rows of ids (an index array), stacked; exact wherever <= limit.

        An entry above limit is exact or inf: a graph runs one Dijkstra
        call from all of ids, cut off at limit.
        """
        if self._dmat is not None:
            return self._dmat[ids]
        if self._graph is not None:  # scipy refuses a negative limit
            return dijkstra(self._graph, directed=True, indices=ids, limit=max(limit, 0.0))
        return _lp_rows(self._coords, ids, self._p_norm)

    def distances_to(self, ids: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """dist(x, ids) for every x, the least entry of ids' rows; exact wherever <= limit.

        A graph answers by one multi-source Dijkstra call, a table or a cloud
        by a running minimum over blocks of rows.  Above limit, exact or inf.
        """
        if self._dmat is None and self._graph is not None:
            return dijkstra(self._graph, directed=True, indices=ids, min_only=True,
                            limit=max(limit, 0.0))
        out = np.full(self.n, math.inf)
        for _, _, block in ball_blocks(self, ids, limit):
            np.minimum(out, block.min(axis=0), out=out)
        return out

    def neighbors_within(self, x: int, radius: float) -> np.ndarray:
        """Ids y with d(x, y) < radius (strict), ascending; empty for radius <= 0."""
        return np.flatnonzero(self.rows(np.array([x], dtype=np.intp), radius)[0] < radius)

    def diameter(self) -> float:
        return diameter(self, self.all_points())

    def all_points(self) -> PointSubset:
        return PointSubset(np.arange(self.n))


def _lp_row(coords: np.ndarray, x: int, p: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow is named below instead
        diff = np.abs(coords - coords[x])
        if math.isinf(p):
            row = diff.max(axis=1)
        elif p == 1:
            row = diff.sum(axis=1)
        else:
            row = (diff ** p).sum(axis=1) ** (1.0 / p)
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        raise InvalidInputError(f"lp distance from point {x} to point {int(bad[0])} "
                                f"overflows for p={p}")
    return row


def _lp_rows(coords: np.ndarray, ids: np.ndarray, p: float) -> np.ndarray:
    """_lp_row of each of ids, stacked, with its bits, for a loaded cloud.

    With at most two coordinates, or p = inf, the block is built one
    coordinate at a time, several times faster than row by row: a sum of
    two non-negative terms, like a max, does not depend on the order.
    Otherwise it is built row by row.  load_points has ruled out overflow.
    """
    if coords.shape[1] > 2 and not math.isinf(p):
        return np.stack([_lp_row(coords, x, p) for x in ids])
    block = np.zeros((len(ids), len(coords)))
    diff = np.empty_like(block)
    for col in np.ascontiguousarray(coords.T):
        np.subtract(col[None, :], col[ids, None], out=diff)
        np.abs(diff, out=diff)
        if math.isinf(p):
            np.maximum(block, diff, out=block)
        else:
            if p != 1:
                diff **= p
            block += diff
    if not (math.isinf(p) or p == 1):
        block **= 1.0 / p
    return block


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _validate(space: FiniteMetricSpace) -> None:
    """Raise the first axiom violation found, with a concrete witness."""
    dmat, n, graph = space._dmat, space.n, space._graph
    if graph is None and space._coords is None:  # a table given as such
        _validate_table_axioms(dmat, n)
    # the size decides how many rows are checked, never whether a check runs;
    # a matrix has all its rows at hand
    every_row = n <= DENSE_LIMIT or dmat is not None
    # the edge certificate is sound only for edges heavier than its tolerance
    if graph is not None and graph.data.min(initial=math.inf) > METRIC_TOL:
        _validate_shortest_paths(space, np.arange(n) if every_row else _sample_pool(n))
    elif every_row and n <= EXHAUSTIVE_TRIANGLE_LIMIT:
        # closure(x,z) <= d(x,y) + d(y,z) as rounded, so a table within
        # tolerance of its closure passes every triple: a fast accept
        if dmat is None or not (dmat <= floyd_warshall(dmat) + METRIC_TOL).all():
            _validate_triangles(space, np.arange(n))
    else:
        _validate_triangles(space, _sample_pool(n))


def _exact_grid(values: np.ndarray, terms: np.ndarray) -> bool:
    """Whether values lie on one grid 2**g with terms summing to a float below 2**53 * 2**g.

    g is the least exponent of the lowest set bit over the nonzero values:
    |v| = m * 2**e with m * 2**53 an integer M, whose lowest set bit M & -M
    is read off by np.frexp again.  A term that scales past the largest
    float is inf, and so is a sum of terms past it, scaled back.

    Both arrays are read in blocks of TABLE_CHUNK_CELLS, and the verdict is
    the whole arrays' in any blocking.  g is a minimum.  The terms are
    non-negative multiples of 2**g (or inf), so scaled by 2**-g they are
    non-negative integers, and their float sum, in any order, is below 2**53
    exactly when their exact sum is: while every partial sum stays below
    2**53 each addition is exact, and once one reaches it no later one falls
    below it, since rounding is monotone and 2**53 is a float.  Below 2**53
    the sum is exact, so the scaled-back test sees the same number.
    """
    flat, step, lows = values.reshape(-1), TABLE_CHUNK_CELLS, []
    for lo in range(0, flat.size, step):
        mant = np.abs(flat[lo:lo + step])
        mant = mant[mant != 0]
        if mant.size:  # in place where it can be: a block's temporaries stay few
            exp = np.frexp(mant, out=(mant, np.empty(mant.size, dtype=np.int32)))[1]
            ints = np.ldexp(mant, 53, out=mant).astype(np.int64)
            del mant
            ints &= -ints  # 2**t, whose float's exponent field holds t + 1023
            lowest = ints.astype(np.float64).view(np.int64)
            del ints
            lowest >>= 52
            lowest += exp
            lows.append(int(lowest.min()) - 1023 - 53)
    g = min(lows, default=0)
    with np.errstate(over="ignore"):
        k = sum(np.ldexp(terms.reshape(-1)[lo:lo + step], -g).sum()
                for lo in range(0, terms.size, step))
        return bool(k < 2.0 ** 53 and np.isfinite(np.ldexp(k, g)))


def _sample_pool(n: int) -> np.ndarray:
    """The seeded sources, ascending: ceil(sqrt(10n)) of them, or all n if fewer."""
    rng = np.random.default_rng(TRIANGLE_SAMPLE_SEED)
    return np.sort(rng.choice(n, size=min(n, math.ceil(math.sqrt(10.0 * n))), replace=False))


def _validate_table_axioms(dmat: np.ndarray, n: int) -> None:
    """Zero diagonal, symmetry, signs and positivity off the diagonal.

    Row blocks of TABLE_CHUNK_CELLS cells; each witness is the one a
    whole-table scan names: the largest asymmetry (first in row-major order
    on ties), and the first row-major entry for the other checks.
    """
    diag = np.diagonal(dmat)
    bad = np.flatnonzero(diag != 0.0)
    if bad.size:
        x = int(bad[0])
        raise NonzeroDiagonalError(x, float(dmat[x, x]))

    step = max(1, TABLE_CHUNK_CELLS // n)
    worst, where = 0.0, None
    for lo in range(0, n, step):
        asym = np.abs(dmat[lo:lo + step] - dmat[:, lo:lo + step].T)
        k = int(np.argmax(asym))
        if asym.flat[k] > worst:
            worst, where = asym.flat[k], (lo + k // n, k % n)
    if where is not None:
        x, y = where
        raise AsymmetryError(x, y, float(dmat[x, y]), float(dmat[y, x]))

    for lo in range(0, n, step):
        neg = dmat[lo:lo + step] < 0.0
        if neg.any():
            x, y = divmod(int(np.argmax(neg)), n)
            raise NegativeDistanceError(lo + x, y, float(dmat[lo + x, y]))

    for lo in range(0, n, step):
        off_zero = dmat[lo:lo + step] == 0.0
        diag = np.arange(len(off_zero))
        off_zero[diag, lo + diag] = False
        if off_zero.any():
            x, y = divmod(int(np.argmax(off_zero)), n)
            raise ZeroOffDiagonalError(lo + x, y)


def _validate_shortest_paths(space: FiniteMetricSpace, ids: np.ndarray) -> None:
    """Certify the rows of ids (ascending) as the shortest-path metric of the edges.

    For every source x in ids and target y != x, with m(x,y) the least
    d(x,u) + w(u,y) over the edges (u,y) into y, two tests:

    - feasibility, d(x,y) <= m(x,y) + METRIC_TOL: no edge shortens a path;
    - tightness, d(x,y) >= m(x,y) - METRIC_TOL: some edge attains d(x,y).

    Feasibility along a shortest y-z path of h edges gives
    d(x,z) <= d(x,y) + d_G(y,z) + h*METRIC_TOL.  Following attaining edges
    back from z lowers d(y,.) by more than w_min - METRIC_TOL > 0 per step,
    so it reaches y after some k steps and gives d(y,z) >= d_G(y,z) -
    k*METRIC_TOL.  Together they give the triangle inequality up to
    (h + k)*METRIC_TOL when the rows of x and y are certified, for edge
    weights above METRIC_TOL.  A Dijkstra row passes exactly: each entry is
    the least rounded d(x,u) + w(u,y).  Rows come from space.rows in blocks
    of at most ROW_BLOCK_CELLS cells and TABLE_CHUNK_CELLS edge cells, so
    the temporaries stay a few MB; the cost is O(len(ids)*E).  The blocks
    are sized here, not by ball_blocks, because the edge gather
    (TABLE_CHUNK_CELLS // E sources) bounds them too.
    """
    n = space.n
    if n < 2:
        return
    into = space._graph.tocsc()  # column y lists the edges (u, y) into y
    starts, src, w = into.indptr[:-1], into.indices, into.data
    step = max(1, min(TABLE_CHUNK_CELLS // src.size, ROW_BLOCK_CELLS // n))
    for lo in range(0, len(ids), step):
        sources = ids[lo:lo + step]
        block = space.rows(sources)
        with np.errstate(over="ignore"):  # a sum above every float shortens nothing
            least = np.minimum.reduceat(block[:, src] + w, starts, axis=1)
        bad = ~(np.abs(block - least) <= METRIC_TOL)  # NaN is bad too
        bad[np.arange(len(block)), sources] = False
        if bad.any():
            i, y = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x, row = int(sources[i]), block[i]
            edges = np.arange(starts[y], into.indptr[y + 1])
            k = edges[int(np.argmin(row[src[edges]] + w[edges]))]
            u = int(src[k])
            raise ShortestPathViolationError(x, int(y), u, float(w[k]),
                                             float(row[y]), float(row[u]))


def _validate_triangles(space: FiniteMetricSpace, ids: np.ndarray) -> None:
    """Check d(x,z) <= d(x,y) + d(y,z) + METRIC_TOL for x, y in ids and every z.

    The witness is the first x of ids with a violation, its least z, and the
    first y of ids attaining the least d(x,y) + d(y,z).  The rows of ids are
    read block by block into one array; a block of x's rows then keeps a
    running minimum over y of d(x,y) + d(y,.), so every other temporary
    holds at most ROW_BLOCK_CELLS cells.
    """
    rows = np.empty((len(ids), space.n))
    for lo, _, block in ball_blocks(space, ids):
        rows[lo:lo + len(block)] = block
        del block  # not held while the next one is built
    step = max(1, ROW_BLOCK_CELLS // space.n)
    least = np.empty((min(step, len(ids)), space.n))  # reused: fresh blocks cost RSS
    through = np.empty_like(least)
    for lo in range(0, len(ids), step):
        d_x = rows[lo:lo + step]
        best, via = least[:len(d_x)], through[:len(d_x)]
        best.fill(math.inf)
        with np.errstate(over="ignore"):  # a sum above every float bounds anything
            for y, d_y in zip(ids, rows):
                np.add(d_x[:, y, None], d_y, out=via)
                np.minimum(best, via, out=best)
        best += METRIC_TOL
        bad = d_x > best
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            z = int(np.argmax(bad[i]))
            j = int(np.argmin(d_x[i, ids] + rows[:, z]))
            raise TriangleViolationError(int(ids[lo + i]), int(ids[j]), z, float(d_x[i, z]),
                                         float(d_x[i, ids[j]]), float(rows[j, z]))


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def load_matrix(matrix: Sequence[Sequence[float]], meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space from an explicit n x n distance grid, validating axioms."""
    _refuse_non_numbers(matrix, "matrix entry")
    dmat = np.asarray(matrix, dtype=np.float64)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {dmat.shape}")
    if not np.isfinite(dmat).all():
        raise InvalidInputError("matrix entries must be finite")
    n = dmat.shape[0]
    if n == 0:
        raise InvalidInputError("empty matrix")
    space = FiniteMetricSpace(n, "matrix", dmat=np.ascontiguousarray(dmat), meta=meta)
    _validate(space)
    return space


def load_graph(n: int, edges: Sequence[Sequence[float]], meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space whose metric is weighted shortest-path distance.

    edges holds [u, v, w] items: a list or tuple of them, or an (E, 3)
    float64 table of them in the same order.  Items become that table first
    (_edge_table), which is then checked as arrays: integral endpoints in
    range, finite non-negative weights, none zero off the diagonal.  Only
    when the conversion or a check fails are the items read one at a time
    (_name_edge_fault), to name the first faulty one.  The graph must be
    connected; the least id outside point 0's component is named otherwise.
    A zero-weight edge between distinct points (a zero distance off the
    diagonal) and a distance that overflows to inf are rejected outright.
    """
    n = as_int(n, "vertex count")
    if n <= 0:
        raise InvalidInputError("graph needs at least one vertex")
    if n >= 2 ** 53:  # no memory holds it, and endpoints past 2**53 round as floats
        raise InvalidInputError(f"graph of {n} vertices is too large")
    if not isinstance(edges, (list, tuple, np.ndarray)):
        raise InvalidInputError("space data is not an array")
    table = edges if isinstance(edges, np.ndarray) and edges.dtype == np.float64 else _edge_table(edges)
    if not _edges_hold(n, table):
        _name_edge_fault(n, edges.tolist() if isinstance(edges, np.ndarray) else edges)
        raise AssertionError("the per-edge check passed edges that the table check refused")
    adj = _symmetric_csr(n, *table.T)
    # adj holds both directions, so a directed search from 0 finds its component
    reached = np.zeros(n, dtype=bool)
    reached[breadth_first_order(adj, 0, return_predecessors=False)] = True
    if not reached.all():
        raise DisconnectedError(int(np.argmin(reached)))

    space = FiniteMetricSpace(n, "graph", graph=adj, meta=meta)
    with np.errstate(over="ignore"):  # each edge is stored both ways: twice the total
        total_finite = math.isfinite(adj.data.sum())
    # a distance sums distinct edges, so while twice their total is finite no
    # rounded sum overflows; otherwise name the first pair whose sum does
    if not total_finite:
        for lo, _, rows in ball_blocks(space, np.arange(n)):
            bad = np.argwhere(np.isinf(rows))  # row-major: the first is the least pair
            if bad.size:
                i, y = bad[0]
                raise InvalidInputError(f"graph distance from point {lo + i} to point {y} overflows")
    if not _exact_grid(adj.data, adj.data):  # exact sums make every row the graph metric
        _validate(space)
    return space


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> csr_matrix:
    """The n x n CSR matrix of the edges (u[k], v[k]) of weight w[k], stored both ways.

    Self-loops are dropped, and of parallel edges only the lightest is
    kept, where csr_matrix((data, (row, col))) would sum them.  The arrays
    are the ones that constructor builds from the kept entries, with its
    dtypes, made without its COO copies: one lexsort of both directions by
    (row, col, weight) puts each row's columns in ascending order, each
    pair's lightest weight first; indptr counts the rows' entries; and the
    index dtype is int32 while n and the entry count fit in it, as scipy
    picks it (csr_matrix narrows int64 arrays whose values fit).
    """
    e = len(u)
    idx = np.int32 if max(n, 2 * e) <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(2 * e, dtype=idx), np.empty(2 * e, dtype=idx)
    rows[:e], rows[e:], cols[:e], cols[e:] = u, v, v, u  # integral floats below n
    data = np.concatenate((w, w))
    order = np.lexsort((data, cols, rows))
    rows = rows[order]  # one at a time: fewer copies alive at once
    cols = cols[order]
    data = data[order]
    del order
    first = rows != cols  # self-loops change no distance
    first[1:] &= (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(rows[first], minlength=n), out=indptr[1:])
    return csr_matrix((data[first], cols[first], indptr), shape=(n, n))


def _edge_table(edges) -> Optional[np.ndarray]:
    """edges as an (E, 3) float64 table if each is a list, tuple or array of 3 real numbers."""
    if not (all(issubclass(kind, (list, tuple, np.ndarray)) for kind in set(map(type, edges)))
            and set(map(len, edges)) <= {3}):
        return None
    flat = real_array(list(chain.from_iterable(edges)))
    return None if flat is None else flat.reshape(-1, 3)


def _edges_hold(n: int, table: Optional[np.ndarray]) -> bool:
    """Whether table is an (E, 3) table of edges on n points: integral endpoints
    in range, finite non-negative weights, none zero off the diagonal."""
    if table is None or table.shape[1:] != (3,):
        return False
    u, v, w = table.T
    ends = table[:, :2]
    return bool(((ends >= 0) & (ends < n) & (ends == np.floor(ends))).all()
                and (np.isfinite(w) & (w >= 0) & ((w > 0) | (u == v))).all())


def _name_edge_fault(n: int, edges) -> None:
    """Name the first faulty [u, v, w] item of edges, in order; return if there is none."""
    for k, e in enumerate(edges):
        if not isinstance(e, (list, tuple, np.ndarray)):
            raise InvalidInputError(f"edge #{k} is not an array")
        if len(e) < 2:
            raise InvalidInputError(f"edge #{k} has {len(e)} fields, expected 3")
        u, v = as_int(e[0], "edge endpoint"), as_int(e[1], "edge endpoint")
        if len(e) != 3:
            raise InvalidInputError(f"edge ({u},{v}) has {len(e)} fields, expected 3")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
        w = as_float(e[2], f"edge ({u},{v}) weight")
        if not math.isfinite(w):
            raise InvalidInputError(f"edge ({u},{v}) has non-finite weight {w!r}")
        if w < 0:
            raise NegativeDistanceError(u, v, w)
        if w == 0.0 and u != v:
            raise ZeroOffDiagonalError(u, v)


def load_points(coords: Sequence[Sequence[float]], p: float, meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space with the lp metric on a coordinate cloud, p in [1, inf]."""
    if isinstance(p, str) and p.lower() in ("inf", "infinity"):
        p = math.inf
    elif not _real(p):
        raise InvalidInputError(f"p {p!r} is neither a number nor 'inf'")
    if not (p >= 1):
        raise BadNormError(f"p must be >= 1, got {p!r}")
    _refuse_non_numbers(coords, "coordinate")
    rows = [tuple(float(c) for c in pt) for pt in coords]
    if not rows:
        raise InvalidInputError("empty point cloud")
    arity = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != arity:
            raise MixedArityError(f"point {i} has arity {len(r)}, expected {arity}")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError("coordinates must be finite")
    n, p = arr.shape[0], float(p)
    try:  # each |a_k - b_k| is within coordinate k's spread, and _lp_row is monotone
        _lp_row(np.stack([arr.min(axis=0), arr.max(axis=0)]), 0, p)
    except InvalidInputError:  # some pair may overflow: name the first, uncached
        for x in range(n):
            _lp_row(arr, x, p)
    _check_distinct(arr, p)
    # |a - b| is exactly |b - a|, so the rows form a symmetric zero-diagonal
    # table, positive off the diagonal once the points are distinct
    dmat = np.stack([_lp_row(arr, x, p) for x in range(n)]) if n <= DENSE_LIMIT else None
    space = FiniteMetricSpace(n, "points", dmat=dmat, coords=arr, p_norm=p, meta=meta)
    # for p in {1, inf}, exact differences make every row the lp metric itself
    if not (p in (1.0, math.inf) and _exact_grid(arr, arr.max(axis=0) - arr.min(axis=0))):
        _validate(space)
    return space


def _check_distinct(arr: np.ndarray, p: float) -> None:
    """Name the first row-major pair of a cloud at lp distance 0, if any.

    Equal points are found exactly by sorting the rows, with -0.0 equal to
    0.0: x is the least id with a twin and y its least twin.  Distinct
    points differ in some coordinate by at least the least positive gap g
    of any coordinate, so for p in {1, inf} they are never at distance 0,
    nor for 1 < p < inf while g**p is a normal float.  Below that, a power
    may underflow to 0 and every row is scanned once instead.
    """
    key = arr + 0.0  # -0.0 + 0.0 is 0.0
    if 1 < p < math.inf:
        g = min((np.diff(np.unique(col)).min(initial=math.inf) for col in key.T),
                default=math.inf)
        if g < np.finfo(np.float64).tiny ** (1.0 / p):  # g**p may overflow
            for x in range(len(arr)):
                zero = np.flatnonzero(_lp_row(arr, x, p) == 0.0)
                if zero.size > 1:
                    raise ZeroOffDiagonalError(x, int(zero[zero != x][0]))
            return
    order = np.lexsort([np.arange(len(key)), *key.T[::-1]])  # twins by ascending id
    same = (key[order[1:]] == key[order[:-1]]).all(axis=1)
    first = np.flatnonzero(same & ~np.concatenate(([False], same[:-1])))
    if first.size:  # each run of twins starts at its least id
        k = first[np.argmin(order[first])]
        raise ZeroOffDiagonalError(int(order[k]), int(order[k + 1]))


# ---------------------------------------------------------------------------
# geometric primitives
# ---------------------------------------------------------------------------

def dist_to_set_all(space: FiniteMetricSpace, a: PointSubset,
                    limit: float = math.inf) -> np.ndarray:
    """dist(x, a) for every x, shape (n,): the least entry of a's rows.

    The one distance-to-set primitive: every set query reads the set's rows.
    Bit-equal to nearest_scan's dist wherever at most limit; an entry above
    limit is exact or inf.
    """
    if len(a) == 0:
        raise EmptySetError("dist_to_set_all of empty subset")
    return space.distances_to(a.ids, limit)


def closed_set_ball(space: FiniteMetricSpace, a: PointSubset, r: float) -> PointSubset:
    """The closed enlargement {x : dist(x, a) <= r}; r >= 0 allowed."""
    if len(a) == 0:
        raise EmptySetError("closed_set_ball of empty subset")
    if r < 0:
        raise InvalidInputError(f"ball radius must be >= 0, got {r!r}")
    return PointSubset(np.flatnonzero(dist_to_set_all(space, a, r) <= r))


def diameter(space: FiniteMetricSpace, a: PointSubset) -> float:
    """Max pairwise distance within a; 0 for a singleton (diameters)."""
    return float(diameters(space, [a])[0])


def diameters(space: FiniteMetricSpace, sets: Sequence[PointSubset]) -> np.ndarray:
    """The diameter of each of sets: the largest entry of its rows on it; 0 for singletons.

    Every set runs its own _diameter_loop, and all of them run in lockstep:
    each round reads the rows that every open set wants next through one
    ball_blocks call, each row cut off at its set's limit (a block at the
    largest of its rows'), and hands each set its rows on it, with inf
    where a member lies outside the block's ball.  Rows wanted uncut come
    last, so the blocks before them keep small balls.  A set's first row
    comes cut off at (|set| - 1) heaviest edges of a graph, and uncut if it
    misses a member there.  A set's picks depend only on its own rows, and
    a larger limit only makes more entries exact, so each set reads the
    rows it would read alone and its diameter has the same bits; a graph's
    many small sets share each block's two Dijkstra calls.
    """
    arrays = [a.ids for a in sets]
    if any(not ids.size for ids in arrays):
        raise EmptySetError("diameter of empty subset")
    out = np.zeros(len(arrays))
    step = max(1, ROW_BLOCK_CELLS // space.n)
    heaviest = math.inf if space._graph is None else float(space._graph.data.max(initial=0.0))
    loops = {s: _diameter_loop(space, ids, step, heaviest)
             for s, ids in enumerate(arrays) if ids.size > 1}
    wants = {s: next(loop) for s, loop in loops.items()}  # s: (positions in set s, limit)
    while wants:
        order = sorted(wants, key=lambda s: math.isinf(wants[s][1]))  # uncut rows last
        picks = [wants[s][0] for s in order]
        height = [len(k) for k in picks]
        sources = np.concatenate([arrays[s][k] for s, k in zip(order, picks)])
        limits = np.repeat([wants[s][1] for s in order], height)
        # row r of the round, on its set, goes to got[cells[r]:cells[r + 1]]
        members = np.concatenate([np.tile(arrays[s], len(k)) for s, k in zip(order, picks)])
        width = np.repeat([len(arrays[s]) for s in order], height)
        cells = np.zeros(len(width) + 1, dtype=np.intp)
        np.cumsum(width, out=cells[1:])
        got = np.empty(len(members))
        for lo, ball, rows in ball_blocks(space, sources, limits):
            a, b = cells[lo], cells[lo + len(rows)]
            at = np.minimum(np.searchsorted(ball, members[a:b]), len(ball) - 1)
            got[a:b] = rows[np.repeat(np.arange(len(rows)), width[lo:lo + len(rows)]), at]
            got[a:b][ball[at] != members[a:b]] = math.inf  # off the ball: past the limit
            del rows  # one block alive at a time (ball_blocks)
        for s, k, a in zip(order, picks, cells[np.cumsum([0] + height[:-1])]):
            try:
                wants[s] = loops[s].send(got[a:a + len(k) * len(arrays[s])].reshape(len(k), -1))
            except StopIteration as done:
                out[s] = done.value
                del wants[s]
    return out


def _diameter_loop(space: FiniteMetricSpace, ids: np.ndarray, step: int, heaviest: float):
    """One set's diameter, as a generator driven by diameters.

    It yields (k, limit): the positions in ids of the rows it reads next,
    and a cut-off for them.  It is sent those rows on ids, stacked, exact
    wherever at most limit, and returns the largest entry of every row.

    The first point's row (cut off a little above |ids| - 1 heaviest edges,
    or else uncut) gives its eccentricity e within the set, and every
    distance within the set is at most 2e, so the other rows may come cut
    off a little above 2e.  A row whose entries in the set do not all come
    back (rounding beyond the margin) is computed in full instead.

    A matrix or a point cloud reads every row: a matrix above
    EXHAUSTIVE_TRIANGLE_LIMIT points has only a pool of rows checked for
    the triangle inequality, and a cloud's diff ** p may underflow.  On a
    graph a row is read only while it can raise the running maximum, worst
    (the eccentricity bounds of Takes and Kosters).  A read row v with
    eccentricity ecc(v) within the set bounds every member w by ub[w] = min
    over read v of ecc(v) + d(v, w), and w's row is dropped once
    ub[w] * (1 + slack) <= worst, with slack = 4 * n * eps.

    That is exact.  A Dijkstra entry is a rounded sum along a path of at
    most n - 1 edges, and relaxation keeps it at most the rounded sum along
    a shortest path, so it lies within a factor (1 +- eps)^(n-1) of the graph
    distance.  The graph distance obeys the triangle inequality exactly, so
    every entry d(w, u) with u in the set is at most (ecc(v) + d(v, w)) times
    those factors, and slack covers them and the roundings of the bound
    itself.  A dropped row has no entry above worst, so the result is the
    max over every row, bit for bit.

    The pick order: after the first row, pairs of single rows, the open
    member of largest ub and then the one of least lower bound lb[w] = max
    over read v of max(d(v, w), ecc(v) - d(v, w)) (the most central), for as
    long as a pair closes some other member.  Then the open members in
    blocks of step rows, the bounds updated after each.  No row is read
    twice.  A set no row can prune, such as leaves of a star, reads each of
    its rows once, as a scan would.
    """
    first = np.array([0])
    rows = yield first, (len(ids) - 1) * heaviest * (1.0 + DIAMETER_MARGIN)
    if np.isinf(rows).any():
        rows = yield first, math.inf
    limit = 2.0 * float(rows.max()) * (1.0 + DIAMETER_MARGIN)
    prune = space._graph is not None
    slack = 4 * space.n * np.finfo(np.float64).eps
    worst = 0.0
    todo = np.ones(len(ids), dtype=bool)  # members whose rows may raise worst
    ub, lb = np.full(len(ids), math.inf), np.zeros(len(ids))

    def take(k, rows):  # rows: the rows of ids[k] on ids, cut off at limit or above
        nonlocal worst
        for i in np.flatnonzero(np.isinf(rows).any(axis=1)):
            rows[i] = space.row(ids[k[i]])[ids]
        todo[k] = False
        ecc = rows.max(axis=1)
        worst = max(worst, float(ecc.max()))
        if prune:
            np.minimum(ub, (rows + ecc[:, None]).min(axis=0), out=ub)
            np.maximum(lb, np.maximum(rows, ecc[:, None] - rows).max(axis=0), out=lb)
            todo[ub * (1.0 + slack) <= worst] = False

    take(first, rows)
    while prune and todo.any():
        before = np.count_nonzero(todo)
        for central in (False, True):
            open_ = np.flatnonzero(todo)
            if open_.size:
                i = np.argmin(lb[open_]) if central else np.argmax(ub[open_])
                k = open_[i:i + 1]
                take(k, (yield k, limit))
        if np.count_nonzero(todo) >= before - 2:
            break
    while todo.any():
        k = np.flatnonzero(todo)[:step]
        take(k, (yield k, limit))
    return worst


def ball_blocks(space: FiniteMetricSpace, ids: np.ndarray, limit=math.inf):
    """(lo, ball, rows) block by block: rows holds the rows of ids[lo:lo + len(rows)] on ball.

    ball lists, ascending, every point within limit of the block's sources,
    and rows are exact wherever at most limit; above it exact or inf, as in
    FiniteMetricSpace.rows.  limit is one number or one per id, and a block
    is cut off at the largest of its ids' limits.

    A table, a cloud, and ids all cut off at inf have every point as their
    ball, and blocks of ROW_BLOCK_CELLS // n whole rows (at least one) from
    FiniteMetricSpace.rows.  On a graph, a block's ball comes from one
    multi-source Dijkstra call, and its rows from one call on the ball's
    own subgraph (module docstring), split by sources past ROW_BLOCK_CELLS
    cells.  The search is O(n), so it runs once per block.  The first block
    takes as many sources as a block of whole rows, and each next one is
    sized from the last one's ball, taking the ball to grow like its
    sources, for rows of about max(n, ROW_BLOCK_CELLS/16) cells: the search
    at most doubles a block's cells, and a small graph's block holds about
    one of verify._pairs' slices of pairs.

    A block whose ball holds more than half the points, or that is cut off
    at inf, reads whole rows on the whole graph instead, through
    FiniteMetricSpace.rows and as many sources a call as a block of whole
    rows, and its ball is every point: rows cut off at the same limit have
    the same bits on any graph that holds the ball.  The blocks after it
    skip the search too, for as long as their rows reach more than half
    the points.

    No block is kept here once the caller resumes, so a caller that drops
    each block before asking for the next holds one at a time.
    """
    limits = np.broadcast_to(np.maximum(limit, 0.0), (len(ids),))  # scipy refuses a negative limit
    graph = space._graph
    everyone = np.arange(space.n)
    whole = max(1, ROW_BLOCK_CELLS // space.n)
    if space._dmat is not None or graph is None or np.isinf(limits).all():
        for lo in range(0, len(ids), whole):
            rows = space.rows(ids[lo:lo + whole])
            yield lo, everyone, rows
            del rows  # not held while the next block is computed
        return
    target = max(ROW_BLOCK_CELLS // 16, space.n)
    lo, size, wide = 0, whole, False
    while lo < len(ids):
        if math.isinf(limits[lo]):
            size = whole
        sources = ids[lo:lo + size]
        cut = float(limits[lo:lo + size].max())
        wide = wide or math.isinf(cut)
        if not wide:
            inside = np.isfinite(
                dijkstra(graph, directed=True, indices=sources, min_only=True, limit=cut))
            wide = 2 * np.count_nonzero(inside) > space.n
        if wide:
            inside = np.zeros(space.n, dtype=bool)
            for a in range(0, len(sources), whole):
                rows = space.rows(sources[a:a + whole], cut)
                inside |= np.isfinite(rows).any(axis=0)
                yield lo + a, everyone, rows
                del rows
        else:
            ball = np.flatnonzero(inside)
            sub, local = _ball_subgraph(graph, ball, inside), np.searchsorted(ball, sources)
            step = max(1, ROW_BLOCK_CELLS // len(ball))
            for a in range(0, len(local), step):
                yield lo + a, ball, dijkstra(sub, directed=True, indices=local[a:a + step], limit=cut)
        lo += len(sources)
        reach = np.count_nonzero(inside)
        wide = 2 * reach > space.n
        size = whole if wide else max(1, math.isqrt(target * len(sources) // reach))


def _ball_subgraph(graph: csr_matrix, ball: np.ndarray, inside: np.ndarray) -> csr_matrix:
    """graph's edges between points of ball, numbered by place in ball, from its CSR arrays.

    ball is ascending, and inside is the mask of its points over every point.
    """
    kept, k = row_entries(graph.indptr, ball)
    far = graph.indices[k]
    keep = inside[far]
    indptr = np.zeros(len(k) + 1, dtype=np.intp)  # kept edges before each entry
    np.cumsum(keep, out=indptr[1:])
    return csr_matrix((graph.data[k[keep]], np.searchsorted(ball, far[keep]), indptr[kept]),
                      shape=(len(ball), len(ball)))


def nearest_scan(space: FiniteMetricSpace, ids: np.ndarray, limit: float = math.inf):
    """(dist, nearest): dist(x, ids) and the smallest id attaining it.

    Both are exact wherever dist(x, ids) <= limit; elsewhere dist is above
    limit (or inf) and nearest means nothing (-1 where no row reached x).  A
    running minimum over ids' rows in ascending id order, one ball block at
    a time (ball_blocks; a row is inf off its block's ball): a row takes over
    an entry only where it is strictly smaller, so the smallest id keeps a
    tie, as argmin over the stacked block would.
    """
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
    ids = np.concatenate([m.ids for m in members])
    starts = np.cumsum([0] + [len(m) for m in members[:-1]])
    for s in range(len(members) - 1):
        dist = space.distances_to(members[s].ids)
        lo = starts[s + 1]
        yield np.minimum.reduceat(dist[ids[lo:]], starts[s + 1:] - lo)
