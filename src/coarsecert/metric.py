"""Finite metric spaces and the geometric primitives built on them.

A FiniteMetricSpace is n points with ids 0..n-1 and a validated metric.
Spaces come from three loaders (explicit matrix, weighted graph via all-pairs
shortest path, point cloud with an lp norm) and are immutable afterwards, so
every operation here is a pure function and safe under concurrent readers.

Distances are stored as a dense float64 table for n <= 4096.  Above that,
a space keeps no distances at all: FiniteMetricSpace.row computes one row
and returns it, and a question that needs many rows asks for them in blocks
(FiniteMetricSpace.rows) cut off at the largest distance it can use.  On a
table-free graph a block is one Dijkstra call from all of its sources with
that limit, and a distance to a set is one multi-source Dijkstra call
(FiniteMetricSpace.distances_to).  Both give the single-source rows' bits
wherever they answer: a vertex's Dijkstra distance is the least rounded
d(u) + w(u, v) over its neighbours u, whatever the order of the search.
A point cloud's block is built a coordinate at a time where that gives the
rows' bits (_lp_rows).
Only FiniteMetricSpace reads the table, so whether a space has one is
decided inside that class alone.  The set primitives at the end of this
module keep a running minimum over row blocks in ascending id order, so no
|A| x n block is ever built and a set query holds O(n) plus one block.

Metric axioms are validated eagerly at load, by one validator for all three
loaders.  The table axioms (zero diagonal, symmetry, positivity) are checked
on every table, in blocks of rows so that the check allocates no n x n
temporary.  The triangle inequality is then checked in one of three ways:

- a graph table (load_graph, n <= 4096) is checked against its own edges in
  O(n*E): every entry off the diagonal must equal, within METRIC_TOL, the
  least d(x,u) + w(u,y) over the edges (u,y) into y.  That makes the table
  the graph's shortest-path metric, so it is a metric;
- any other table of n <= 2000 (load_matrix, load_points) is compared with
  its own shortest-path closure (Floyd-Warshall), exhaustively;
- tables above 2000 points and table-free spaces get a seeded pool of rows
  checked against each other (at least 10*n^2 triples).
A point cloud's lp distances are all checked for overflow, table or not.

The tolerance of the graph check adds up per hop: each edge test allows
METRIC_TOL, so an accepted table is within h*METRIC_TOL of the graph metric
on pairs joined by h-edge paths and satisfies the triangle inequality up to
METRIC_TOL per edge of the paths involved.  That argument needs every edge
weight above METRIC_TOL; a graph with a lighter edge gets the closure check
or the sample instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, floyd_warshall, shortest_path

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
    """int(value), refusing a value that int() would change (1.5, "3")."""
    i = int(value)
    if i != value:
        raise InvalidInputError(f"{what} {value!r} is not an integer")
    return i


@dataclass(frozen=True)
class PointSubset:
    """An ascending, duplicate-free tuple of point ids of a host space."""

    ids: tuple

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        if list(ids) != sorted(set(ids)):
            ids = tuple(sorted(set(ids)))
        object.__setattr__(self, "ids", ids)

    @classmethod
    def of(cls, ids: Iterable[int], space: Optional["FiniteMetricSpace"] = None) -> "PointSubset":
        sub = cls(tuple(ids))
        if space is not None:
            sub.validate_against(space)
        return sub

    def validate_against(self, space: "FiniteMetricSpace") -> None:
        if self.ids and (self.ids[0] < 0 or self.ids[-1] >= space.n):
            bad = self.ids[0] if self.ids[0] < 0 else self.ids[-1]
            raise InvalidInputError(f"point id {bad} outside space of size {space.n}")

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, x):
        i = np.searchsorted(self.array(), x)
        return i < len(self.ids) and self.ids[i] == x

    def array(self) -> np.ndarray:
        return np.asarray(self.ids, dtype=np.intp)

    def union(self, other: "PointSubset") -> "PointSubset":
        return PointSubset(self.ids + other.ids)


@dataclass(frozen=True)
class Retraction:
    """A total map X -> A fixing A pointwise with d(x, p(x)) = dist(x, A).

    dist holds those distances for every x, so a caller needing both the
    nearest point and the distance to A streams A's rows once.
    """

    subset: PointSubset
    mapping: np.ndarray  # mapping[x] = p(x), length n
    dist: np.ndarray     # dist[x] = dist(x, A) = d(x, p(x)), length n

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])


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
        if self._coords is not None:
            return _lp_row(self._coords, x, self._p_norm)
        raise InvalidInputError("space has no backing data for row queries")

    def rows(self, ids: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """The rows of ids (an index array), stacked; exact wherever <= limit.

        An entry above limit is exact or inf: a table-free graph runs one
        Dijkstra call from all of ids, cut off at limit.
        """
        if self._dmat is not None:
            return self._dmat[ids]
        if self._graph is not None:  # scipy refuses a negative limit
            return dijkstra(self._graph, directed=True, indices=ids, limit=max(limit, 0.0))
        if self._coords is not None:
            return _lp_rows(self._coords, ids, self._p_norm)
        return np.stack([self._compute_row(x) for x in ids])

    def distances_to(self, ids: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """dist(x, ids) for every x, the least entry of ids' rows; exact wherever <= limit.

        A table-free graph answers by one multi-source Dijkstra call, others
        by a running minimum over blocks of rows.  Above limit, exact or inf.
        """
        if self._dmat is None and self._graph is not None:
            return dijkstra(self._graph, directed=True, indices=ids, min_only=True,
                            limit=max(limit, 0.0))
        out = np.full(self.n, math.inf)
        for _, block in row_blocks(self, ids, limit):
            np.minimum(out, block.min(axis=0), out=out)
        return out

    def neighbors_within(self, x: int, radius: float) -> np.ndarray:
        """Ids y with d(x, y) < radius (strict), ascending; empty for radius <= 0."""
        return np.flatnonzero(self.rows(np.array([x], dtype=np.intp), radius)[0] < radius)

    def diameter(self) -> float:
        return diameter(self, self.all_points())

    def all_points(self) -> PointSubset:
        return PointSubset(tuple(range(self.n)))


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
    dmat, n = space._dmat, space.n
    if dmat is None:
        _validate_triangle_sampled(space)
        return

    diag = np.diagonal(dmat)
    bad = np.flatnonzero(diag != 0.0)
    if bad.size:
        x = int(bad[0])
        raise NonzeroDiagonalError(x, float(dmat[x, x]))

    # row blocks of TABLE_CHUNK_CELLS cells; each witness is the one a
    # whole-table scan names: the largest asymmetry (first in row-major
    # order on ties), and the first row-major entry for the other checks
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

    graph = space._graph
    # the edge certificate is sound only for edges heavier than its tolerance
    if graph is not None and graph.data.min(initial=math.inf) > METRIC_TOL:
        _validate_shortest_paths(space)
    elif n <= EXHAUSTIVE_TRIANGLE_LIMIT:
        _validate_triangle_exhaustive(dmat, n)
    else:
        _validate_triangle_sampled(space)


def _validate_shortest_paths(space: FiniteMetricSpace) -> None:
    """Certify a graph table as the shortest-path metric of the graph's edges.

    For every source x and target y != x, with m(x,y) the least
    d(x,u) + w(u,y) over the edges (u,y) into y, two tests:

    - feasibility, d(x,y) <= m(x,y) + METRIC_TOL: no edge shortens a path;
    - tightness, d(x,y) >= m(x,y) - METRIC_TOL: some edge attains d(x,y).

    Feasibility along a shortest y-z path of h edges gives
    d(x,z) <= d(x,y) + d_G(y,z) + h*METRIC_TOL.  Following attaining edges
    back from z lowers d(y,.) by more than w_min - METRIC_TOL > 0 per step,
    so it reaches y after some k steps and gives d(y,z) >= d_G(y,z) -
    k*METRIC_TOL.  Together they give the triangle inequality up to
    (h + k)*METRIC_TOL, for edge weights above METRIC_TOL.  Sources go in
    chunks of TABLE_CHUNK_CELLS edge cells, so the temporaries stay a
    few MB; the cost is O(n*E).
    """
    dmat, n = space._dmat, space.n
    if n < 2:
        return
    into = space._graph.tocsc()  # column y lists the edges (u, y) into y
    starts, src, w = into.indptr[:-1], into.indices, into.data
    step = max(1, TABLE_CHUNK_CELLS // src.size)
    for lo in range(0, n, step):
        block = dmat[lo:lo + step]
        least = np.minimum.reduceat(block[:, src] + w, starts, axis=1)
        bad = ~(np.abs(block - least) <= METRIC_TOL)  # NaN is bad too
        diag = np.arange(len(block))
        bad[diag, lo + diag] = False
        if bad.any():
            i, y = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x = lo + int(i)
            edges = np.arange(starts[y], into.indptr[y + 1])
            k = edges[int(np.argmin(dmat[x, src[edges]] + w[edges]))]
            u = int(src[k])
            raise ShortestPathViolationError(x, int(y), u, float(w[k]),
                                             float(dmat[x, y]), float(dmat[x, u]))


def _validate_triangle_exhaustive(dmat: np.ndarray, n: int) -> None:
    if n < 3:
        return
    # A symmetric nonnegative matrix satisfies the triangle inequality iff it
    # equals its own shortest-path closure (up to tolerance).
    closure = floyd_warshall(dmat)
    gap = dmat - closure
    if gap.max() <= METRIC_TOL:
        return
    x, z = np.unravel_index(int(np.argmax(gap)), gap.shape)
    x, z = int(x), int(z)
    # hunt the one-step witness: the closure shrank, so a direct violating
    # triple exists somewhere; find one through x or fall back to a scan
    through = dmat[x] + dmat[:, z]
    y = int(np.argmin(through))
    if dmat[x, z] > through[y] + METRIC_TOL:
        raise TriangleViolationError(x, y, z, float(dmat[x, z]), float(dmat[x, y]), float(dmat[y, z]))
    for a in range(n):
        through = dmat[a][:, None] + dmat  # through[b, c] = d(a,b)+d(b,c)
        worst = through.min(axis=0)
        viol = np.flatnonzero(dmat[a] > worst + METRIC_TOL)
        if viol.size:
            c = int(viol[0])
            b = int(np.argmin(through[:, c]))
            raise TriangleViolationError(a, b, c, float(dmat[a, c]), float(dmat[a, b]), float(dmat[b, c]))
    raise TriangleViolationError(x, y, z, float(dmat[x, z]), float(dmat[x, y]), float(dmat[y, z]))


def _validate_triangle_sampled(space: FiniteMetricSpace) -> None:
    """Sampled triangle validation over distance rows.

    Draws a pool of ceil(sqrt(10n)) seeded sources so that checking every
    (x, y) pool pair against every z covers at least 10*n^2 triples while
    computing only pool-many distance rows.
    """
    n = space.n
    rng = np.random.default_rng(TRIANGLE_SAMPLE_SEED)
    pool_size = min(n, int(math.ceil(math.sqrt(10.0 * n))))
    pool = np.sort(rng.choice(n, size=pool_size, replace=False))
    rows = {int(s): space.row(int(s)) for s in pool}
    for x in pool:
        row_x = rows[int(x)]
        for y in pool:
            row_y = rows[int(y)]
            rhs = row_x[int(y)] + row_y
            bad = np.flatnonzero(row_x > rhs + METRIC_TOL)
            if bad.size:
                z = int(bad[0])
                raise TriangleViolationError(int(x), int(y), z, float(row_x[z]),
                                             float(row_x[int(y)]), float(row_y[z]))


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def load_matrix(matrix: Sequence[Sequence[float]], meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space from an explicit n x n distance grid, validating axioms."""
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


def load_graph(n: int, edges: Iterable[Sequence[float]], meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space whose metric is weighted shortest-path distance.

    The graph must be connected; a stranded component representative is named
    otherwise.  A zero-weight edge between distinct points would force a zero
    off-diagonal distance and is rejected outright.
    """
    n = as_int(n, "vertex count")
    if n <= 0:
        raise InvalidInputError("graph needs at least one vertex")
    us, vs, ws = [], [], []
    for e in edges:
        u, v, w = as_int(e[0], "edge endpoint"), as_int(e[1], "edge endpoint"), float(e[2])
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) out of range for n={n}")
        if not math.isfinite(w):
            raise InvalidInputError(f"edge ({u},{v}) has non-finite weight {w!r}")
        if w < 0:
            raise NegativeDistanceError(u, v, w)
        if u == v:
            continue
        if w == 0.0:
            raise ZeroOffDiagonalError(u, v)
        us.append(u)
        vs.append(v)
        ws.append(w)
    # parallel edges: keep the minimum weight before building the matrix
    # (sparse constructors sum duplicates)
    if us:
        u_arr = np.minimum(us, vs)
        v_arr = np.maximum(us, vs)
        w_arr = np.asarray(ws)
        order = np.lexsort((w_arr, v_arr, u_arr))
        u_arr, v_arr, w_arr = u_arr[order], v_arr[order], w_arr[order]
        first = np.ones(len(u_arr), dtype=bool)
        first[1:] = (u_arr[1:] != u_arr[:-1]) | (v_arr[1:] != v_arr[:-1])
        u_arr, v_arr, w_arr = u_arr[first], v_arr[first], w_arr[first]
        adj = csr_matrix(
            (np.concatenate([w_arr, w_arr]),
             (np.concatenate([u_arr, v_arr]), np.concatenate([v_arr, u_arr]))),
            shape=(n, n))
    else:
        adj = csr_matrix((n, n))
    if n > 1:
        ncomp, labels = connected_components(adj, directed=False)
        if ncomp > 1:
            stranded = int(np.flatnonzero(labels != labels[0])[0])
            raise DisconnectedError(stranded)

    dmat = None
    if n <= DENSE_LIMIT:
        weights = adj.data
        unweighted = weights.size > 0 and np.all(weights == weights[0])
        if unweighted:
            dmat = shortest_path(adj, method="D", directed=False, unweighted=True)
            dmat *= weights[0]  # in place: the table is shortest_path's own
        else:
            dmat = shortest_path(adj, method="D", directed=False)
            # per-source Dijkstra rounds path sums in different orders; both
            # directions are valid path weights, keep the shorter.  In place
            # by row blocks: a row already lowered still holds the minimum
            step = max(1, TABLE_CHUNK_CELLS // n)
            for lo in range(0, n, step):
                block = dmat[lo:lo + step]
                np.minimum(block, dmat[:, lo:lo + step].T, out=block)
    space = FiniteMetricSpace(n, "graph", dmat=dmat, graph=adj, meta=meta)
    _validate(space)
    return space


def load_points(coords: Sequence[Sequence[float]], p: float, meta: Optional[dict] = None) -> FiniteMetricSpace:
    """Build a space with the lp metric on a coordinate cloud, p in [1, inf]."""
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            p = math.inf
        else:
            p = float(p)
    if not (p >= 1):
        raise BadNormError(f"p must be >= 1, got {p!r}")
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
    # |a - b| is exactly |b - a|, so the rows form a symmetric zero-diagonal table
    dmat = np.stack([_lp_row(arr, x, p) for x in range(n)]) if n <= DENSE_LIMIT else None
    space = FiniteMetricSpace(n, "points", dmat=dmat, coords=arr, p_norm=p, meta=meta)
    _validate(space)
    return space


# ---------------------------------------------------------------------------
# geometric primitives
# ---------------------------------------------------------------------------

def dist_to_set(space: FiniteMetricSpace, x: int, a: PointSubset) -> float:
    """min over points of a of d(x, .); zero exactly when x is in a."""
    if not a.ids:
        raise EmptySetError("dist_to_set of empty subset")
    return float(space.row(x)[a.array()].min())


def dist_to_set_all(space: FiniteMetricSpace, a: PointSubset,
                    limit: float = math.inf) -> np.ndarray:
    """dist(x, a) for every x, shape (n,): the least entry of a's rows (symmetry).

    Bit-equal to nearest_point_retraction's dist field wherever at most
    limit; an entry above limit is exact or inf.
    """
    if not a.ids:
        raise EmptySetError("dist_to_set of empty subset")
    return space.distances_to(a.array(), limit)


def set_ball(space: FiniteMetricSpace, a: PointSubset, r: float) -> PointSubset:
    """The open ball {x : dist(x, a) < r} around a set, r > 0."""
    if not a.ids:
        raise EmptySetError("set_ball of empty subset")
    if r <= 0:
        raise InvalidInputError(f"ball radius must be > 0, got {r!r}")
    return PointSubset(tuple(np.flatnonzero(dist_to_set_all(space, a, r) < r)))


def closed_set_ball(space: FiniteMetricSpace, a: PointSubset, r: float) -> PointSubset:
    """The closed enlargement {x : dist(x, a) <= r}; r >= 0 allowed."""
    if not a.ids:
        raise EmptySetError("closed_set_ball of empty subset")
    if r < 0:
        raise InvalidInputError(f"ball radius must be >= 0, got {r!r}")
    return PointSubset(tuple(np.flatnonzero(dist_to_set_all(space, a, r) <= r)))


def diameter(space: FiniteMetricSpace, a: PointSubset) -> float:
    """Max pairwise distance within a; 0 for singletons.

    The first point's row gives its eccentricity e within a, and every
    distance within a is at most 2e; the other rows come in blocks cut off
    a little above 2e.  A row whose entries in a do not all come back
    (rounding beyond the margin) is computed in full instead.
    """
    if not a.ids:
        raise EmptySetError("diameter of empty subset")
    if len(a.ids) == 1:
        return 0.0
    ids = a.array()
    cols = ids if len(ids) < space.n else slice(None)  # the whole space: no gather
    worst = float(space.row(ids[0])[cols].max())
    rest = ids[1:]
    for lo, rows in row_blocks(space, rest, 2.0 * worst * (1.0 + DIAMETER_MARGIN)):
        maxima = rows[:, cols].max(axis=1)
        for k in np.flatnonzero(np.isinf(maxima)):
            maxima[k] = space.row(rest[lo + k])[cols].max()
        worst = max(worst, float(maxima.max()))
    return worst


def row_blocks(space: FiniteMetricSpace, ids: np.ndarray, limit: float = math.inf):
    """(lo, rows) block by block: rows holds the rows of ids[lo:lo + len(rows)].

    A block holds at most ROW_BLOCK_CELLS cells (at least one row) and is
    cut off at limit, so its entries above limit may be inf.
    """
    step = max(1, ROW_BLOCK_CELLS // space.n)
    for lo in range(0, len(ids), step):
        yield lo, space.rows(ids[lo:lo + step], limit)


def nearest_scan(space: FiniteMetricSpace, ids: np.ndarray, limit: float = math.inf):
    """(dist, nearest): dist(x, ids) and the smallest id attaining it.

    Both are exact wherever dist(x, ids) <= limit; elsewhere dist is above
    limit (or inf) and nearest means nothing (-1 where no row reached x).  A
    running minimum over ids' rows in ascending id order, one block of rows
    at a time: a row takes over an entry only where it is strictly smaller,
    so the smallest id keeps a tie, as argmin over the stacked block would.
    """
    dist = np.full(space.n, math.inf)
    nearest = np.full(space.n, -1, dtype=np.intp)
    closer = np.empty(space.n, dtype=bool)
    for lo, rows in row_blocks(space, ids, limit):
        for i, row in zip(ids[lo:lo + len(rows)], rows):
            np.less(row, dist, out=closer)
            np.minimum(dist, row, out=dist)
            nearest[closer] = i
    return dist, nearest


def cross_minima(space: FiniteMetricSpace, members: Sequence[PointSubset]):
    """cross per nonempty member s but the last, in order.

    cross[k] is the least distance from members[s] to members[s + 1 + k]
    over members[s]'s rows: the minimum of dist_to_set_all(members[s]) over
    the later member, bit-equal to the minimum over the two members' block.
    """
    if len(members) < 2:
        return
    ids = np.concatenate([m.array() for m in members])
    starts = np.cumsum([0] + [len(m) for m in members[:-1]])
    for s in range(len(members) - 1):
        dist = space.distances_to(members[s].array())
        lo = starts[s + 1]
        yield np.minimum.reduceat(dist[ids[lo:]], starts[s + 1:] - lo)


def nearest_point_retraction(space: FiniteMetricSpace, a: PointSubset) -> Retraction:
    """p(x) = smallest-id point of a realizing dist(x, a); fixes a pointwise.

    One scan over a's rows (nearest_scan) gives both the mapping, with the
    smallest id winning ties, and dist(x, a) for every x, returned as the
    retraction's dist field.
    """
    if not a.ids:
        raise EmptySetError("retraction onto empty subset")
    ids = a.array()
    dist, mapping = nearest_scan(space, ids)
    mapping[ids] = ids  # fixes a exactly (d=0 is already the unique min)
    mapping.setflags(write=False)
    dist.setflags(write=False)
    return Retraction(subset=a, mapping=mapping, dist=dist)
