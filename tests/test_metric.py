import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from coarsecert.errors import (
    AsymmetryError,
    BadNormError,
    DisconnectedError,
    EmptySetError,
    InvalidInputError,
    MetricError,
    MixedArityError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    ShortestPathViolationError,
    TriangleViolationError,
    ZeroOffDiagonalError,
)
from coarsecert import metric
from coarsecert.metric import (
    METRIC_TOL,
    FiniteMetricSpace,
    PointSubset,
    closed_set_ball,
    diameter,
    dist_to_set,
    dist_to_set_all,
    load_graph,
    load_matrix,
    load_points,
    nearest_point_retraction,
    set_ball,
)
from .conftest import integer_graph, path_space, weighted_graph


class TestLoadMatrix:
    def test_two_point_space(self):
        sp = load_matrix([[0, 1], [1, 0]])
        assert sp.n == 2
        assert sp.d(0, 1) == 1.0

    def test_asymmetry(self):
        with pytest.raises(AsymmetryError):
            load_matrix([[0, 1], [2, 0]])

    def test_triangle_violation(self):
        # d(0,2)=3 > d(0,1)+d(1,2) = 2
        with pytest.raises(TriangleViolationError):
            load_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_big_table_gets_sampled_triangle_check(self):
        # above the exhaustive limit the table is checked by the pooled-row
        # sample; d(i, j) = (i - j)^2 violates the triangle inequality
        idx = np.arange(2100, dtype=np.float64)
        with pytest.raises(TriangleViolationError) as err:
            load_matrix((idx[:, None] - idx[None, :]) ** 2)
        x, y, z = err.value.triple
        assert (x - z) ** 2 > (x - y) ** 2 + (y - z) ** 2 + 1e-9

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError):
            load_matrix([[1, 1], [1, 0]])

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonalError):
            load_matrix([[0, 0], [0, 0]])

    def test_negative(self):
        with pytest.raises(NegativeDistanceError):
            load_matrix([[0, -1], [-1, 0]])

    def test_not_square(self):
        with pytest.raises(InvalidInputError):
            load_matrix([[0, 1, 2], [1, 0, 1]])

    def test_not_finite(self):
        with pytest.raises(InvalidInputError):
            load_matrix([[0, math.inf], [math.inf, 0]])

    @given(st.integers(3, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_oracle(self, n, seed):
        # oracle: exhaustive triple loop over a random symmetric grid
        rng = np.random.default_rng(seed)
        m = np.round(rng.uniform(0.5, 3.0, (n, n)), 3)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        ok = all(
            m[x, z] <= m[x, y] + m[y, z] + 1e-9
            for x in range(n) for y in range(n) for z in range(n)
        )
        if ok:
            assert load_matrix(m).n == n
        else:
            with pytest.raises(TriangleViolationError):
                load_matrix(m)


class TestLoadGraph:
    def test_path(self):
        sp = load_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert sp.d(0, 2) == 2.0

    def test_cycle(self, cycle4):
        assert cycle4.d(0, 2) == 2.0
        assert cycle4.d(0, 1) == 1.0
        assert cycle4.d(0, 3) == 1.0

    def test_disconnected(self):
        with pytest.raises(DisconnectedError) as err:
            load_graph(2, [])
        assert err.value.representative == 1

    def test_zero_weight_edge(self):
        with pytest.raises(ZeroOffDiagonalError):
            load_graph(2, [(0, 1, 0.0)])

    def test_parallel_edges_take_min(self):
        sp = load_graph(2, [(0, 1, 5.0), (0, 1, 2.0)])
        assert sp.d(0, 1) == 2.0

    def test_weighted(self):
        sp = load_graph(3, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 10.0)])
        assert sp.d(0, 2) == 4.0

    def test_unweighted_path_is_exact(self):
        sp = path_space(137)
        idx = np.arange(137)
        expect = np.abs(idx[:, None] - idx[None, :])
        assert np.array_equal(np.stack([sp.row(x) for x in idx]), expect)

    def test_edge_out_of_range(self):
        with pytest.raises(InvalidInputError):
            load_graph(2, [(0, 5, 1.0)])


def random_graph(rng, n):
    """A connected graph on n points: a random tree plus up to 2n extra edges,
    weights log-uniform in [1e-3, 1e3]."""
    edges = [(int(rng.integers(0, i)), i, float(10 ** rng.uniform(-3, 3))) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        u, v = rng.integers(0, n, 2)
        edges.append((int(u), int(v), float(10 ** rng.uniform(-3, 3))))
    return load_graph(n, edges)


def with_table(sp, table):
    """A graph space with sp's edges and the given table, not validated."""
    return FiniteMetricSpace(sp.n, "graph", dmat=table, graph=sp._graph)


def corrupted(sp, x, y, factor):
    table = sp._dmat.copy()
    table[x, y] = table[y, x] = table[x, y] * factor
    return table


class TestGraphCertificate:
    """Graph tables are checked against their own edges, not by a closure."""

    # raised: the entry is above a way in; lowered: a neighbor of the entry
    # is now above a way in through it; slightly lowered: the entry is below
    # every way in
    @pytest.mark.parametrize("factor, test", [(1.25, "feasibility"), (0.8, "feasibility"),
                                              (0.999, "tightness")])
    def test_corrupted_entry_names_witness(self, factor, test):
        sp = random_graph(np.random.default_rng(17), 60)
        a, b = 23, 41
        bad = with_table(sp, corrupted(sp, a, b, factor))
        with pytest.raises(ShortestPathViolationError) as err:
            metric._validate(bad)
        assert isinstance(err.value, MetricError)
        (x, y), (u, y_in) = err.value.pair, err.value.edge
        d = bad._dmat
        w = err.value.weight
        assert y_in == y and sp._graph[u, y] == w
        assert err.value.values == (d[x, y], d[x, u])
        if test == "feasibility":
            assert d[x, y] > d[x, u] + w + METRIC_TOL
        else:  # below the least way in, which the edge attains
            into = sp._graph[:, y].tocoo()
            assert d[x, y] < d[x, u] + w - METRIC_TOL
            assert d[x, u] + w == min(d[x, v] + wv for v, wv in zip(into.row, into.data))
        # the first bad row is the corrupted pair's, and the witness reads it
        assert {(x, y), (x, u)} & {(a, b), (b, a)}

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_certificate_rejects_what_closure_rejects(self, n, seed):
        rng = np.random.default_rng(seed)
        sp = random_graph(rng, n)  # the loader's own table is accepted
        metric._validate_shortest_paths(sp)
        x, y = (int(v) for v in rng.choice(n, 2, replace=False))
        rel = 10 ** rng.uniform(-6, 0) * rng.choice([-1.0, 1.0])
        table = corrupted(sp, x, y, 1.0 + rel)
        try:
            metric._validate_triangle_exhaustive(table, n)
            closure_rejects = False
        except TriangleViolationError:
            closure_rejects = True
        # one changed entry is off by more than the per-edge tolerance from
        # the edges into it, whether or not it breaks a triangle
        if closure_rejects or abs(table[x, y] - sp._dmat[x, y]) > 2 * METRIC_TOL:
            with pytest.raises(ShortestPathViolationError):
                metric._validate_shortest_paths(with_table(sp, table))

    def test_edges_below_tolerance_get_the_closure_check(self):
        # three pairs joined by an edge of weight 1e-10, each pair 1 from a
        # hub 6.  With so light an edge the per-edge tests accept a table
        # whose pair-to-pair distances are made up: here pairs 0 and 1, and
        # pairs 0 and 2, sit 0.01 apart while pairs 1 and 2 sit 2 apart
        eps = 1e-10
        sp = load_graph(7, [(0, 1, eps), (2, 3, eps), (4, 5, eps),
                            (0, 6, 1.0), (2, 6, 1.0), (4, 6, 1.0)])
        table = sp._dmat.copy()
        for p, q in ((0, 1), (0, 2)):
            block = np.ix_(range(2 * p, 2 * p + 2), range(2 * q, 2 * q + 2))
            table[block] = 0.01
            table.T[block] = 0.01
        bad = with_table(sp, table)
        metric._validate_shortest_paths(bad)  # not sound here, so not used
        with pytest.raises(TriangleViolationError):
            metric._validate(bad)

    def test_graph_tables_skip_closure_and_sample(self, monkeypatch):
        def boom(*args):
            raise AssertionError("graph tables are certified by their edges")

        monkeypatch.setattr(metric, "floyd_warshall", boom)
        monkeypatch.setattr(metric, "_validate_triangle_sampled", boom)
        for n in (300, 3000):  # both sides of the old exhaustive limit
            sp = load_graph(n, [(i, i + 1, 1.0 + (i % 3) / 2) for i in range(n - 1)])
            assert sp.has_table
            assert sp.d(0, 3) == 4.5


class TestLoadPoints:
    def test_euclidean_345(self):
        sp = load_points([(0, 0), (3, 4)], p=2)
        assert sp.d(0, 1) == pytest.approx(5.0)

    def test_l1(self):
        assert load_points([(0, 0), (3, 4)], p=1).d(0, 1) == 7.0

    def test_linf(self):
        assert load_points([(0, 0), (3, 4)], p=math.inf).d(0, 1) == 4.0
        assert load_points([(0, 0), (3, 4)], p="inf").d(0, 1) == 4.0

    def test_mixed_arity(self):
        with pytest.raises(MixedArityError):
            load_points([(0, 0), (1,)], p=2)

    def test_bad_norm(self):
        with pytest.raises(BadNormError):
            load_points([(0, 0), (1, 1)], p=0.5)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("coords", [[[0.0], [1e200]], [[0.0], [1e200], [2e200]]])
    def test_overflowing_distance_rejected(self, monkeypatch, dense, coords):
        # (1e200)**2 overflows; the third point used to surface as a
        # TriangleViolationError between two infinite distances
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        with pytest.raises(InvalidInputError, match="point 0 to point 1 overflows for p=2.0"):
            load_points(coords, p=2)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_overflowing_box_without_overflowing_pair(self, monkeypatch, dense):
        # the spread box's diagonal overflows (2 * 1.69e308), no pair's does
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        w = 1.3e154
        sp = load_points([[0.0, w / 2], [w, w / 2], [w / 2, 0.0], [w / 2, w]], p=2)
        assert sp.d(0, 1) == w and sp.d(2, 3) == w and sp.d(0, 2) == math.hypot(w / 2, w / 2)

    def test_overflow_off_the_sampled_rows_rejected(self):
        # a table-free cloud whose only overflowing pair is 4198-4199, which
        # the seeded triangle sample does not reach
        coords = [[float(x)] for x in range(4198)] + [[-1e154], [1e154]]
        with pytest.raises(InvalidInputError,
                           match="point 4198 to point 4199 overflows for p=2.0"):
            load_points(coords, p=2)

    def test_cloud_radius_queries_cache_no_rows(self):
        sp = load_points([[float(x)] for x in range(4200)], p=2)
        assert not sp.has_table
        near = {}
        tracemalloc.start()
        try:
            for x in range(4200):
                ball = sp.neighbors_within(x, 5.0)
                if x in (0, 2100):
                    near[x] = ball
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 8 * sp.n  # not one row kept (all 4200 were 141 MB)
        assert near[2100].tolist() == list(range(2096, 2105))
        assert near[0].tolist() == list(range(5))

    @given(st.integers(1, 4), st.integers(1, 40), st.integers(0, 10_000),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=80, deadline=None)
    def test_cloud_row_blocks_match_rows(self, d, n, seed, p):
        # a block is built a coordinate at a time up to two coordinates (and
        # for p = inf), row by row otherwise: the same bits either way
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((n, d)) * 10 ** rng.uniform(-3, 6)
        if d > 1:
            coords[:, 0] = np.round(coords[:, 0])  # zero differences in one coordinate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "DENSE_LIMIT", 0)
            sp = load_points(coords.tolist(), p)
        ids = rng.choice(n, size=int(rng.integers(1, n + 1)))
        assert np.array_equal(sp.rows(ids), np.stack([sp.row(int(x)) for x in ids]))

    @pytest.mark.parametrize("p", [1, math.inf])
    def test_huge_coordinates_without_power(self, p):
        sp = load_points([[0.0], [1e200], [2e200]], p=p)
        assert sp.d(0, 1) == 1e200 and sp.d(0, 2) == 2e200

    def test_duplicate_points_rejected(self):
        with pytest.raises(ZeroOffDiagonalError):
            load_points([(1, 1), (1, 1)], p=2)

    @given(st.integers(2, 12), st.integers(0, 10_000),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_lp_clouds_always_valid(self, n, seed, p):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(n, 3)) * 10
        coords[1:] += np.arange(1, n)[:, None]  # avoid exact duplicates
        sp = load_points(coords.tolist(), p=p)
        assert sp.n == n


class TestPrimitives:
    def test_dist_to_set_member(self, p5):
        a = PointSubset((0, 2))
        assert dist_to_set(p5, 2, a) == 0.0

    def test_dist_to_set_path(self, p5):
        assert dist_to_set(p5, 3, PointSubset((0,))) == 3.0

    def test_dist_to_set_whole_space(self, p5):
        a = p5.all_points()
        assert all(dist_to_set(p5, x, a) == 0.0 for x in range(5))

    def test_dist_to_set_empty(self, p5):
        with pytest.raises(EmptySetError):
            dist_to_set(p5, 0, PointSubset(()))

    def test_set_ball_strict(self, p10):
        assert set_ball(p10, PointSubset((0,)), 3.0).ids == (0, 1, 2)

    def test_set_ball_small_radius(self, p10):
        a = PointSubset((3, 7))
        assert set_ball(p10, a, 1.0).ids == a.ids

    def test_set_ball_whole(self, p10):
        assert set_ball(p10, PointSubset((0,)), 100.0).ids == tuple(range(10))

    def test_closed_ball(self, p10):
        assert closed_set_ball(p10, PointSubset((0,)), 3.0).ids == (0, 1, 2, 3)

    def test_set_ball_monotone(self, p10):
        a = PointSubset((2, 9))
        prev = set()
        for r in [0.5, 1.0, 2.5, 4.0, 9.5]:
            cur = set(set_ball(p10, a, r).ids)
            assert prev <= cur
            assert set(a.ids) <= cur
            prev = cur

    def test_diameter(self, p10, cycle4):
        assert diameter(p10, PointSubset((4,))) == 0.0
        assert diameter(p10, PointSubset((2, 5, 7))) == 5.0
        assert diameter(cycle4, cycle4.all_points()) == 2.0

    def test_retraction_fixes_and_ties(self, p5):
        a = PointSubset((0, 4))
        p = nearest_point_retraction(p5, a)
        assert p(0) == 0 and p(4) == 4
        assert p(2) == 0  # tie at distance 2: smaller id wins
        assert p(3) == 4

    def test_retraction_exact_and_idempotent(self, p100):
        rng = np.random.default_rng(3)
        ids = sorted(rng.choice(100, size=17, replace=False).tolist())
        a = PointSubset(tuple(ids))
        p = nearest_point_retraction(p100, a)
        dist = dist_to_set_all(p100, a)
        for x in range(100):
            assert p100.d(x, p(x)) == dist[x]
            assert p(p(x)) == p(x)

    def test_retraction_empty(self, p5):
        with pytest.raises(EmptySetError):
            nearest_point_retraction(p5, PointSubset(()))


@pytest.fixture(scope="module")
def big_path():
    n = 4200
    return load_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestBigSpaceLane:
    """Graph spaces beyond the dense-table limit answer queries on demand."""

    def test_no_table(self, big_path):
        assert not big_path.has_table

    def test_rows_match_formula(self, big_path):
        for x in (0, 1234, 4199):
            row = big_path.row(x)
            assert np.array_equal(row, np.abs(np.arange(4200) - x))

    def test_neighbors_within(self, big_path):
        near = big_path.neighbors_within(2100, 5.0)
        assert near.tolist() == list(range(2096, 2105))

    def test_neighbors_within_nonpositive_radius(self, big_path, p100):
        # scipy's Dijkstra refuses a negative limit; both lanes answer empty
        for sp in (big_path, p100):
            for radius in (-1.0, 0.0):
                near = sp.neighbors_within(3, radius)
                assert near.size == 0 and near.dtype == np.intp

    def test_primitives(self, big_path):
        a = PointSubset((0, 4000))
        assert dist_to_set(big_path, 1000, a) == 1000.0
        assert set_ball(big_path, PointSubset((0,)), 2.0).ids == (0, 1)
        p = nearest_point_retraction(big_path, a)
        assert p(1999) == 0 and p(2001) == 4000 and p(2000) == 0

    def test_set_queries_stream_rows(self, big_path):
        # 2000 points two apart: every point between two of them ties
        a = PointSubset(tuple(range(100, 4100, 2)))
        tracemalloc.start()
        try:
            p = nearest_point_retraction(big_path, a)
            dist = dist_to_set_all(big_path, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stacked |a| x n block was 2000 * 4200 * 8 bytes = 67 MB
        assert peak < 40 * 8 * big_path.n
        assert p(101) == 100 and p(4099) == 4098 and p(0) == 100 and p(4199) == 4098
        assert dist[101] == 1.0 and dist[0] == 100.0 and np.array_equal(dist, p.dist)


class TestStreamedScan:
    """The row scan behind the set primitives equals the block formulas."""

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_equal_to_block_argmin(self, monkeypatch, dense, seed):
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        sp = integer_graph(rng, n)
        assert sp.has_table == dense
        ties = 0
        for size in sorted({1, 2, max(1, n // 3), n}):
            a = PointSubset(tuple(rng.choice(n, size=size, replace=False).tolist()))
            ids = a.array()
            # reference: the stacked |a| x n block, reduced down its columns
            block = np.stack([sp.row(x) for x in ids])
            k = np.argmin(block, axis=0)
            mapping = ids[k]
            mapping[ids] = ids
            ties += int(((block == block.min(axis=0)).sum(axis=0) > 1).sum())
            p = nearest_point_retraction(sp, a)
            assert np.array_equal(p.mapping, mapping) and p.mapping.dtype == mapping.dtype
            assert np.array_equal(p.dist, block[k, np.arange(n)])
            assert not p.mapping.flags.writeable and not p.dist.flags.writeable
            assert np.array_equal(dist_to_set_all(sp, a), block.min(axis=0))
        assert ties > 0 or n < 4


class TestCutOffQueries:
    """Multi-source and cut-off Dijkstra against stacked single-source rows.

    The brute force keeps the first minimum under strict <, so the smallest
    id wins a tie.  Spaces are table-free graphs with integral weights
    (ties) or non-integral ones (rows that differ from their transposes).
    """

    @given(st.integers(2, 30), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_against_full_rows(self, n, seed, integral):
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral)
        assert not sp.has_table
        full = np.stack([sp.row(x) for x in range(n)])
        assert sp.diameter() == full.max()
        for _ in range(4):
            ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            a = PointSubset(tuple(ids.tolist()))
            block = full[ids]
            least = block.min(axis=0)
            first = ids[np.argmin(block, axis=0)]
            assert np.array_equal(dist_to_set_all(sp, a), least)
            assert diameter(sp, a) == block[:, ids].max()
            with pytest.MonkeyPatch.context() as mp:  # cut off below the diameter: rows fall back
                mp.setattr(metric, "DIAMETER_MARGIN", -0.75)
                assert diameter(sp, a) == block[:, ids].max()
            for limit in (float(rng.choice(least)), float(rng.uniform(0.0, full.max()))):
                dist, nearest = metric.nearest_scan(sp, ids, limit)
                inside = least <= limit
                assert np.array_equal(dist[inside], least[inside])
                assert np.array_equal(nearest[inside], first[inside])
                assert (dist[~inside] > limit).all()
                cut = dist_to_set_all(sp, a, limit)
                assert np.array_equal(cut[inside], least[inside]) and (cut[~inside] > limit).all()
                assert closed_set_ball(sp, a, limit).ids == tuple(np.flatnonzero(inside))
                if limit > 0:
                    assert set_ball(sp, a, limit).ids == tuple(np.flatnonzero(least < limit))
            p = nearest_point_retraction(sp, a)
            assert np.array_equal(p.dist, least)
            assert np.array_equal(p.mapping, first) and np.array_equal(p.mapping[ids], ids)


def table_space(table):
    """A matrix space over the given table, not validated."""
    return FiniteMetricSpace(len(table), "matrix", dmat=table)


def first_witness(mask):
    """The first row-major True of a boolean table, as a pair."""
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(mask)), mask.shape))


class TestAxiomBlocks:
    """The table-axiom checks run over row blocks and name whole-table witnesses."""

    @pytest.fixture
    def base(self, monkeypatch):
        monkeypatch.setattr(metric, "TABLE_CHUNK_CELLS", 3 * 10)  # 3 rows of 10
        return np.abs(np.arange(10.0)[:, None] - np.arange(10.0)[None, :])

    @pytest.mark.parametrize("edits, expect", [
        # the largest asymmetry sits in row block 1, its mirror in block 2
        ({(1, 8): 0.5, (7, 4): 2.0}, (4, 7)),
        # a tie of the largest: the first in row-major order wins
        ({(7, 4): 2.0, (0, 9): 2.0, (9, 3): 1.0}, (0, 9)),
        # a larger one in the last block beats an earlier block's
        ({(1, 2): 0.25, (9, 5): 0.75}, (5, 9)),
    ])
    def test_asymmetry_witness_across_blocks(self, base, edits, expect):
        for (x, y), add in edits.items():
            base[x, y] += add
        asym = np.abs(base - base.T)
        assert first_witness(asym == asym.max()) == expect
        with pytest.raises(AsymmetryError) as err:
            metric._validate(table_space(base))
        assert err.value.pair == expect

    def test_negative_and_zero_witnesses_across_blocks(self, base):
        neg = base.copy()
        for x, y in ((7, 5), (4, 8)):
            neg[x, y] = neg[y, x] = -1.0
        with pytest.raises(NegativeDistanceError) as err:
            metric._validate(table_space(neg))
        assert err.value.pair == first_witness(neg < 0) == (4, 8)
        zero = base.copy()
        for x, y in ((9, 8), (5, 6)):
            zero[x, y] = zero[y, x] = 0.0
        with pytest.raises(ZeroOffDiagonalError) as err:
            metric._validate(table_space(zero))
        assert err.value.pair == first_witness((zero == 0) & ~np.eye(10, dtype=bool)) == (5, 6)

    def test_graph_tables_equal_whole_table_formulas(self, base):
        rng = np.random.default_rng(4)
        sp = random_graph(rng, 10)  # built with 3-row blocks
        raw = shortest_path(sp._graph, method="D", directed=False)
        assert np.array_equal(sp._dmat, np.minimum(raw, raw.T))
        scaled = load_graph(10, [(i, i + 1, 0.3) for i in range(9)])
        assert np.array_equal(scaled._dmat, base * 0.3)
