import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, floyd_warshall, shortest_path

from coarsecert.errors import (
    AsymmetryError,
    BadNormError,
    CoarseCertError,
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
from coarsecert import construct, metric, verify
from coarsecert.metric import (
    METRIC_TOL,
    FiniteMetricSpace,
    PointSubset,
    diameter,
    load_graph,
    load_matrix,
    load_points,
)
from coarsecert.extend import nearest_point_retraction
from coarsecert.construct import barycentric_pou, closed_set_ball, dist_to_set_all, nearest_scan
from coarsecert.simplex import star_preimage_diameters
from .conftest import (
    dijkstra_table,
    graph_space,
    integer_graph,
    path_space,
    weighted_graph,
    with_table,
)


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

    def test_triangle_witness_past_every_float(self):
        # d(3, .) + d(., 3) overflows while the witness is searched, too
        b = 1.5e308
        with pytest.raises(TriangleViolationError) as err:
            load_matrix([[0, 1, 3, b], [1, 0, 1, b], [3, 1, 0, b], [b, b, b, 0]])
        assert err.value.triple == (0, 1, 2)

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

    @given(st.integers(3, 12), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce_oracle(self, n, seed, near):
        # oracle: exhaustive triple loop over a random symmetric grid, or over
        # a random metric with a few entries moved by about the tolerance
        rng = np.random.default_rng(seed)
        m = np.round(rng.uniform(0.5, 3.0, (n, n)), 3)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        if near:
            m = shortest_path(m)
            for _ in range(int(rng.integers(1, 4))):
                x, y = (int(v) for v in rng.choice(n, 2, replace=False))
                m[x, y] += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-10, math.log10(3e-9))
                m[y, x] = m[x, y]
        witness = oracle_witness(m, range(n))
        if witness is None:
            assert load_matrix(m).n == n
        else:
            with pytest.raises(TriangleViolationError) as err:
                load_matrix(m)
            assert err.value.triple == witness

    @pytest.mark.parametrize("n", [8, 2100])
    def test_chain_loads_on_both_sides_of_the_limit(self, n):
        # every triple holds within 9e-10, though d(0, n-1) is (n - 1)*4.5e-10
        # above the path of unit steps
        sp = load_matrix(chain_matrix(n))
        assert (n <= metric.EXHAUSTIVE_TRIANGLE_LIMIT) == (n == 8)
        assert sp.d(0, n - 1) > (n - 1) + METRIC_TOL

    @pytest.mark.parametrize("n, seed", [(20, 0), (40, 1), (60, 2)])
    def test_sampled_witness_is_the_oracles(self, monkeypatch, n, seed):
        # the rows of the seeded pool are checked against every z, with the
        # witness rule of the exhaustive check
        monkeypatch.setattr(metric, "EXHAUSTIVE_TRIANGLE_LIMIT", 0)
        rng = np.random.default_rng(seed)
        m = np.round(rng.uniform(0.5, 3.0, (n, n)), 3)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        pool = metric._sample_pool(n)
        assert len(pool) < n
        witness = oracle_witness(m, pool)
        assert witness is not None
        with pytest.raises(TriangleViolationError) as err:
            load_matrix(m)
        assert err.value.triple == witness

    def test_valid_tables_pass_by_the_closure(self, monkeypatch):
        # a matrix, or a cloud's stacked rows, equal to its closure skips the triple loop
        def boom(*args):
            raise AssertionError("a table equal to its closure needs no triple check")

        monkeypatch.setattr(metric, "_check_triples", boom)
        closure = counted(monkeypatch, "floyd_warshall")
        rng = np.random.default_rng(5)
        coords = rng.uniform(0.0, 100.0, (300, 2))
        table = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        assert load_matrix(table).n == 300
        assert load_points(coords.tolist(), p=2)._dmat is None
        assert len(closure) == 2


# entries that float() rounds or keeps: ints past 2**53 and int64, -0.0, a subnormal
TABLE_ENTRIES = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(-1e15, 1e15),
                          st.sampled_from([-0.0, 2 ** 53 + 1, -(2 ** 63) - 1, 5e-324]))


def square_rows(k_max):
    return st.integers(1, k_max).flatmap(
        lambda k: st.lists(st.lists(TABLE_ENTRIES, min_size=k, max_size=k), min_size=k, max_size=k))


class TestRealTable:
    """Rows convert as one table, to the bits float() gives each entry."""

    @staticmethod
    def floats_of(rows):
        return np.array([[float(v) for v in row] for row in rows])

    @given(st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(st.one_of(TABLE_ENTRIES, st.floats()), min_size=k, max_size=k),
        min_size=1, max_size=6)), st.sampled_from([list, tuple, np.array]))
    @settings(max_examples=200, deadline=None)
    def test_table_has_the_bits_of_float(self, rows, form):
        table = metric._real_table(np.array(rows) if form is np.array
                                   else form(map(form, rows)))
        expect = self.floats_of(rows)
        assert table.dtype == np.float64 and table.shape == expect.shape
        assert table.tobytes() == expect.tobytes()

    @given(square_rows(5), st.sampled_from([list, tuple, np.array]))
    @settings(max_examples=60, deadline=None)
    def test_loaders_keep_the_bits_of_float(self, rows, form):
        expect = self.floats_of(rows)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_validate_table_axioms", "_validate_triangles"):
                mp.setattr(metric, name, lambda *args: None)  # any square table loads
            matrix = load_matrix(np.array(rows) if form is np.array else form(map(form, rows)))
            cloud = [[i, *row] for i, row in enumerate(rows)]  # distinct points
            points = load_points(np.array(cloud) if form is np.array
                                 else form(map(form, cloud)), p=math.inf)
        assert matrix._dmat.tobytes() == expect.tobytes()
        assert points._coords.tobytes() == self.floats_of(cloud).tobytes()

    def test_no_call_per_entry(self):
        # a matrix or a cloud converts as a whole; only p is checked alone
        with pytest.MonkeyPatch.context() as mp:
            reals, floats = counted(mp, "_real"), counted(mp, "as_float")
            load_matrix([[abs(i - j) for j in range(300)] for i in range(300)])
            assert not reals and not floats
            load_points([[x, x % 7] for x in range(2000)], p=1)
            assert len(reals) == 2 and len(floats) == 1  # p: _real, then as_float

    @pytest.mark.parametrize("rows, message", [
        ([[0, 1], 5], "matrix row 1 is not an array"),
        ([[0, "1"], [1], 5], r"matrix entry \[0\]\[1\] '1' is not a number"),
        ([[0, 1], [1], [0, 10 ** 400]], "matrix row 1 has 1 entries, expected 2"),
        ([[0, 10 ** 400], [1]], r"matrix entry \[0\]\[1\] 1000.* is too large for a float")])
    def test_matrix_fault_named_row_major(self, rows, message):
        with pytest.raises(InvalidInputError, match=message):
            load_matrix(rows)


def chain_matrix(n):
    """d(i, i±1) = 1 and d(i, j) = |i - j|*(1 + 4.5e-10) otherwise."""
    idx = np.arange(n, dtype=np.float64)
    m = np.abs(idx[:, None] - idx[None, :]) * (1.0 + 4.5e-10)
    step = np.arange(n - 1)
    m[step, step + 1] = m[step + 1, step] = 1.0
    return m


def oracle_witness(m, ids):
    """The first violating triple by a plain loop: the least x of ids with a
    violation, its least z, and the least y of ids attaining the least
    d(x,y) + d(y,z); None if every triple holds within METRIC_TOL."""
    ids = [int(v) for v in ids]
    for x in ids:
        for z in range(len(m)):
            through = [m[x, y] + m[y, z] for y in ids]
            least = min(through)
            if m[x, z] > least + METRIC_TOL:
                return x, ids[through.index(least)], z
    return None


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

    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_disconnected_names_least_stranded_id(self, n, k, seed):
        # random edges inside k random parts, so a part may split further:
        # the witness is the least id whose component is not point 0's
        rng = np.random.default_rng(seed)
        part = rng.integers(0, k, n)
        edges = []
        for x in range(n):
            same = np.flatnonzero(part[:x] == part[x])
            if same.size and rng.random() < 0.95:  # mostly to an earlier point of its part
                edges.append((int(rng.choice(same)), x, float(rng.integers(1, 4))))
            elif rng.random() < 0.5:
                edges.append((x, x, 1.0))  # a loop joins nothing
        for _ in range(n // 3):
            u, v = rng.integers(0, n, 2)
            if part[u] == part[v]:
                edges.append((int(u), int(v), 0.5))
        u, v = (np.array([e[i] for e in edges], dtype=int) for i in (0, 1))
        labels = connected_components(csr_matrix((np.ones(len(edges)), (u, v)), shape=(n, n)),
                                      directed=False)[1]
        stranded = np.flatnonzero(labels != labels[0])
        if stranded.size:
            with pytest.raises(DisconnectedError) as err:
                load_graph(n, edges)
            assert err.value.representative == int(stranded[0])
        else:
            assert load_graph(n, edges).n == n

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

    def test_edge_list_checked_as_one_table(self, monkeypatch):
        # a list of edges converts to the table a file's data becomes, with
        # no converter call per field; only a fault sends it edge by edge
        calls = []
        for name in ("as_int", "as_float"):
            real = getattr(metric, name)
            monkeypatch.setattr(metric, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        sp = load_graph(500, [(x, x + 1, 1) for x in range(498)] + [[498, 499.0, np.float32(0.5)]])
        assert calls == ["as_int"] and sp.d(0, 499) == 498.5  # the vertex count
        with pytest.raises(InvalidInputError, match=r"edge \(3,4\) weight '1' is not a number"):
            load_graph(500, [(x, x + 1, 1) for x in range(3)] + [(3, 4, "1"), (4, 5, True)])
        assert calls.count("as_float") == 4

    def test_vertex_count_past_two_to_the_53_refused(self):
        # its endpoints would not be exact as floats, and no memory holds it
        with pytest.raises(InvalidInputError, match=f"graph of {2 ** 53} vertices is too large"):
            load_graph(2 ** 53, [])

    @pytest.mark.parametrize("edge, message", [
        ((0, 1), r"edge \(0,1\) has 2 fields, expected 3"),
        ((0, 1, 1.0, 7), r"edge \(0,1\) has 4 fields, expected 3"),
        ((0,), "edge #1 has 1 fields, expected 3"),
        ((), "edge #1 has 0 fields, expected 3")])
    def test_edge_field_count_named(self, edge, message):
        # the count is checked before the weight is read: no IndexError
        with pytest.raises(InvalidInputError, match=message):
            load_graph(3, [(1, 2, 1.0), edge])

    @pytest.mark.parametrize("n, light, dense", [
        (4, 1e-10, True), (4, 1e-10, False), (4, 1.0, True), (4, 1.0, False),
        (4200, 1.0, False)])  # 4200 points are above the table limit
    def test_overflowing_distance_rejected(self, monkeypatch, dense, n, light):
        # d(0, 2) = 1e308 + 1e308: it used to load as inf when the light edge
        # sent the graph to the row check (inf > inf is false), and otherwise
        # to fail the edge check on inf - inf with three RuntimeWarnings
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        edges = [(0, 1, 1e308), (1, 2, 1e308), (2, 3, light)] + [(x, x + 1, 1.0)
                                                                  for x in range(3, n - 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match="graph distance from point 0 to point 2 overflows"):
                load_graph(n, edges)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("light", [1.0, 1e-10])
    def test_overflowing_total_loads(self, monkeypatch, dense, light):
        # the edges sum past the largest float, but no distance does
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = load_graph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, light)])
        expect = [[0.0, 1e308, light], [1e308, 0.0, 1e308], [light, 1e308, 0.0]]
        assert not sp.has_table and [sp.row(x).tolist() for x in range(3)] == expect
        if dense:  # every row was checked at load; they are the all-pairs table's
            assert dijkstra_table(sp).tolist() == expect


    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                               st.sampled_from([0.5, 1.0, 2.0, 3.0])
                                               | st.floats(1e-3, 1e3)),
                                     max_size=40),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_csr_equals_the_coo_built_matrix(self, n, raw, integral):
        # parallel edges of different weights, self-loops, float and integer
        # weights: the arrays are those csr_matrix((data, (row, col))) makes of
        # the lightest edge of each pair, stored both ways
        edges = [(u % n, v % n, float(round(w)) or 1.0 if integral else w) for u, v, w in raw]
        edges += [(x, x + 1, 7.0) for x in range(n - 1)]  # connected
        lightest = {}
        for u, v, w in edges:
            if u != v:
                key = (min(u, v), max(u, v))
                lightest[key] = min(w, lightest.get(key, math.inf))
        pairs = sorted(lightest)
        row = [u for u, v in pairs] + [v for u, v in pairs]
        col = [v for u, v in pairs] + [u for u, v in pairs]
        data = [lightest[p] for p in pairs] * 2
        want = (csr_matrix((np.array(data), (np.array(row, dtype=np.intp),
                                             np.array(col, dtype=np.intp))), shape=(n, n))
                if pairs else csr_matrix((n, n)))
        got = load_graph(n, edges)._graph
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


def random_graph(rng, n):
    """A connected graph on n points: a random tree plus up to 2n extra edges,
    weights log-uniform in [1e-3, 1e3]."""
    edges = [(int(rng.integers(0, i)), i, float(10 ** rng.uniform(-3, 3))) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        u, v = rng.integers(0, n, 2)
        edges.append((int(u), int(v), float(10 ** rng.uniform(-3, 3))))
    return load_graph(n, edges)


def corrupted(sp, x, y, factor):
    """The all-pairs Dijkstra table of sp with d(x, y) and d(y, x) scaled by factor."""
    table = dijkstra_table(sp)
    table[x, y] = table[y, x] = table[x, y] * factor
    return table


def rows_from(mp, table):
    """Make every FiniteMetricSpace.rows call answer from table, as a faulty search would."""
    mp.setattr(FiniteMetricSpace, "rows", lambda self, ids, limit=math.inf: table[ids])


class TestGraphCertificate:
    """Graph rows are checked against their own edges, not by a closure.

    A faulty row is injected through FiniteMetricSpace.rows, which every
    check reads its rows from.
    """

    # raised: the entry is above a way in; lowered: a neighbor of the entry
    # is now above a way in through it; slightly lowered: the entry is below
    # every way in
    @pytest.mark.parametrize("factor, test", [(1.25, "feasibility"), (0.8, "feasibility"),
                                              (0.999, "tightness")])
    def test_corrupted_entry_names_witness(self, monkeypatch, factor, test):
        sp = random_graph(np.random.default_rng(17), 60)
        a, b = 23, 41
        d = corrupted(sp, a, b, factor)
        rows_from(monkeypatch, d)
        with pytest.raises(ShortestPathViolationError) as err:
            random_graph(np.random.default_rng(17), 60)  # the same graph, loaded again
        assert isinstance(err.value, MetricError)
        (x, y), (u, y_in) = err.value.pair, err.value.edge
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
        sp = random_graph(rng, n)  # the loader's own rows are accepted
        metric._validate_shortest_paths(sp, np.arange(n))
        x, y = (int(v) for v in rng.choice(n, 2, replace=False))
        rel = 10 ** rng.uniform(-6, 0) * rng.choice([-1.0, 1.0])
        table = corrupted(sp, x, y, 1.0 + rel)
        closure_rejects = n >= 3 and (table - floyd_warshall(table)).max() > METRIC_TOL
        # one changed entry is off by more than the per-edge tolerance from
        # the edges into it, whether or not it breaks a triangle
        if closure_rejects or abs(table[x, y] - dijkstra_table(sp)[x, y]) > 2 * METRIC_TOL:
            with pytest.MonkeyPatch.context() as mp:
                rows_from(mp, table)
                with pytest.raises(ShortestPathViolationError):
                    metric._validate_shortest_paths(sp, np.arange(n))

    def test_edges_below_tolerance_get_the_closure_check(self, monkeypatch):
        # three pairs joined by an edge of weight 1e-10, each pair 1 from a
        # hub 6.  With so light an edge the per-edge tests accept rows
        # whose pair-to-pair distances are made up: here pairs 0 and 1, and
        # pairs 0 and 2, sit 0.01 apart while pairs 1 and 2 sit 2 apart.
        # The row check over every row rejects them
        eps = 1e-10
        edges = [(0, 1, eps), (2, 3, eps), (4, 5, eps), (0, 6, 1.0), (2, 6, 1.0), (4, 6, 1.0)]
        sp = load_graph(7, edges)
        table = dijkstra_table(sp)
        for p, q in ((0, 1), (0, 2)):
            block = np.ix_(range(2 * p, 2 * p + 2), range(2 * q, 2 * q + 2))
            table[block] = 0.01
            table.T[block] = 0.01
        rows_from(monkeypatch, table)
        metric._validate_shortest_paths(sp, np.arange(7))  # not sound here, so not used
        with pytest.raises(TriangleViolationError):
            load_graph(7, edges)

    @given(st.integers(2, 40), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_table_is_stacked_table_free_rows(self, n, seed, integral):
        # the rows are the all-pairs Dijkstra table, bit for bit, on either lane
        table = weighted_graph(np.random.default_rng(seed), n, integral, table=True)
        free = weighted_graph(np.random.default_rng(seed), n, integral)
        assert table.has_table and not free.has_table
        assert np.array_equal(table._dmat, np.stack([free.row(x) for x in range(n)]))

    def test_graph_tables_skip_table_axiom_scans(self, monkeypatch):
        # float-weighted rows may differ from their columns in the last
        # bits; the table scans would name that
        def boom(*args):
            raise AssertionError("positive weights make the table axioms hold")

        monkeypatch.setattr(metric, "_validate_table_axioms", boom)
        sp = random_graph(np.random.default_rng(4), 60)
        full = sp.rows(np.arange(60))
        assert not np.array_equal(full, full.T)
        assert np.allclose(full, full.T, rtol=1e-12, atol=0)

    def test_graph_tables_skip_closure_and_sample(self, monkeypatch):
        def boom(*args):
            raise AssertionError("graph tables are certified by their edges")

        monkeypatch.setattr(metric, "floyd_warshall", boom)
        monkeypatch.setattr(metric, "_validate_triangles", boom)
        # both sides of the old exhaustive limit, and above the dense limit
        for n in (300, 3000, 4200):
            sp = load_graph(n, [(i, i + 1, 1.0 + (i % 3) / 2) for i in range(n - 1)])
            assert not sp.has_table
            assert sp.d(0, 3) == 4.5

    @pytest.mark.parametrize("factor, test", [(1.25, "feasibility"), (0.999, "tightness")])
    def test_corrupted_pool_row_names_witness(self, monkeypatch, factor, test):
        # above the dense limit a graph certifies the seeded pool's rows
        # against its edges
        sp = random_graph(np.random.default_rng(17), 60)
        pool = metric._sample_pool(60)
        a, b = int(pool[3]), 41
        table = dijkstra_table(sp)
        table[a, b] *= factor  # row a only
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        rows_from(monkeypatch, table)
        with pytest.raises(ShortestPathViolationError) as err:
            random_graph(np.random.default_rng(17), 60)  # the same graph, loaded again
        (x, y), (u, y_in) = err.value.pair, err.value.edge
        w = err.value.weight
        d = table[x]
        assert x == a and y_in == y and sp._graph[u, y] == w
        assert err.value.values == (d[y], d[u])
        if test == "feasibility":
            assert d[y] > d[u] + w + METRIC_TOL
        else:  # below the least way in, which the edge attains
            into = sp._graph[:, y].tocoo()
            assert d[y] < d[u] + w - METRIC_TOL
            assert d[u] + w == min(d[v] + wv for v, wv in zip(into.row, into.data))

    def test_light_edges_table_free_get_the_sample(self, monkeypatch):
        # an edge at or below METRIC_TOL breaks the certificate's proof, so a
        # table-free graph with one falls back to the triangle sample
        def boom(*args):
            raise AssertionError("the edge certificate is not sound here")

        sampled = []
        real = metric._validate_triangles
        monkeypatch.setattr(metric, "_validate_shortest_paths", boom)
        monkeypatch.setattr(metric, "_validate_triangles",
                            lambda space, ids: sampled.append(space.n) or real(space, ids))
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        sp = load_graph(7, [(0, 1, 1e-10), (2, 3, 1.0), (4, 5, 1.0),
                            (0, 6, 1.0), (2, 6, 1.0), (4, 6, 1.0)])
        assert not sp.has_table and sampled == [7]

    @given(st.integers(2, 40), st.integers(0, 10_000), st.floats(0.0, 8.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_lanes_agree_at_any_weight_scale(self, n, seed, exponent):
        # near 1e8 a distance's last bit is above METRIC_TOL, which a flat
        # tolerance on triangles would reject on one lane and not the other
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        edges = [(int(rng.integers(0, i)), i, scale * rng.uniform(0.5, 1.5)) for i in range(1, n)]
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            u, v = rng.integers(0, n, 2)
            edges.append((int(u), int(v), scale * rng.uniform(0.5, 1.5)))
        outcomes = []
        for limit in (metric.DENSE_LIMIT, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metric, "DENSE_LIMIT", limit)
                try:
                    load_graph(n, edges)
                    outcomes.append(None)
                except CoarseCertError as exc:
                    outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] is None  # a Dijkstra row passes its certificate exactly


def fraction_distances(n, edges):
    """Floyd-Warshall over Fractions on the loader's edges: the exact graph metric."""
    d = [[Fraction(0) if x == y else math.inf for y in range(n)] for x in range(n)]
    for u, v, w in edges:
        if u != v:
            d[u][v] = d[v][u] = min(d[u][v], Fraction(w))
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if d[x][k] + d[k][y] < d[x][y]:
                    d[x][y] = d[x][k] + d[k][y]
    return d


def fraction_exact(n, edges):
    """The exact-sum rule worked in Fractions: twice the edge total below 2**53 grains."""
    best = {}
    for u, v, w in edges:
        if u != v:
            key = (min(u, v), max(u, v))
            best[key] = min(best.get(key, math.inf), Fraction(w))
    grain = min(Fraction(w.numerator & -w.numerator, w.denominator) for w in best.values())
    return 2 * sum(best.values()) / grain < 2 ** 53


def counted(monkeypatch, name):
    """Replace metric.<name> by a wrapper that counts its calls."""
    calls, real = [], getattr(metric, name)
    monkeypatch.setattr(metric, name, lambda *args: calls.append(1) or real(*args))
    return calls


def boom(*args):
    raise AssertionError("an exact space needs no metric check")


def cloud_lane(monkeypatch, dense):
    """Set up one of a cloud's two row-check lanes.  A cloud keeps no table on
    either: the "dense" lane may pass by the dense Floyd-Warshall closure of
    its rows, and the "table-free" lane refuses that accept, so the triple
    loop (_check_triples) over the same rows gives the verdict."""
    if not dense:
        monkeypatch.setattr(metric, "floyd_warshall", lambda rows: np.full_like(rows, -np.inf))


class TestExactSums:
    """Graphs and lp clouds whose every float sum is exact skip the metric checks."""

    @given(st.integers(2, 12), st.integers(0, 10_000),
           st.sampled_from(["small", "eighths", "boundary"]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_the_exact_metric(self, n, seed, kind, table):
        # weights in {1, 2, 3}, in k/8, or integers scaled by 2**s whose stored
        # total lands near 2**53 grains, so on either side of the rule
        rng = np.random.default_rng(seed)
        scale = 2.0 ** int(rng.integers(-20, 21))
        high = int(2.0 ** 53 / (2 * n - 1) * 2.0 ** rng.uniform(-0.5, 1.5))

        def weight():
            if kind == "small":
                return float(rng.integers(1, 4))
            if kind == "eighths":
                return int(rng.integers(1, 80)) / 8
            return int(rng.integers(1, high)) * scale

        edges = [(int(rng.integers(0, i)), i, weight()) for i in range(1, n)]
        edges += [(int(u), int(v), weight()) for u, v in rng.integers(0, n, (n, 2))]
        exact = fraction_exact(n, edges)
        assert exact or kind == "boundary"
        with pytest.MonkeyPatch.context() as mp:
            paths, rows = counted(mp, "_validate_shortest_paths"), counted(mp, "_validate_triangles")
            sp = graph_space(n, edges, table)
        assert sp.has_table == table and len(paths) + len(rows) == (not exact)
        if exact:
            d = fraction_distances(n, edges)
            assert all(sp.row(x).tolist() == d[x] for x in range(n))
            assert np.array_equal(sp.rows(np.arange(n)), np.stack([sp.row(x) for x in range(n)]))

    @pytest.mark.parametrize("values, exact", [
        ([2.0 ** 53 - 1, 1.0], False),   # a total of exactly 2**53 grains
        ([2.0 ** 53, 1.0], False),       # one grain above it, rounded to 2**53
        ([2.0 ** 53 - 2, 1.0], True),    # one grain below it
        ([(2.0 ** 53 - 1) / 8, 1 / 8], False),  # the same with a grain of 2**-3
        ([(2.0 ** 53 - 2) / 8, 1 / 8], True),
        ([0.1] * 4, False),              # 0.1 is 3602879701896397 * 2**-55
        ([0.1] * 2, True),               # ... and twice is below 2**53 of them
        ([5e-324, 1e-323, 1.5e-323], True),  # subnormal: grain 2**-1074
        ([5e-324, 1.0], False),          # 1.0 is 2**1074 grains: inf, not an error
        ([1e308, 1e308], False),         # the sum overflows, though not in grains
        ([2.0 ** 1023, 2.0 ** 1023], False),  # 2 grains of 2**1023, past the largest float
        ([2.0 ** 1023, 2.0 ** 1022], True),   # 3 grains of 2**1022, a float
        ([1e308, 0.5], False),           # 1e308 / 2**-1 overflows
        ([1e-10, 1.0], False),           # the light edge's grain is far below 1.0's
        ([], True),
    ])
    def test_predicate(self, values, exact):
        values = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metric._exact_grid(values, values) == exact

    @given(st.lists(st.sampled_from([0.0, 1.0, 3.0, 0.375, 2.0 ** -40, 2.0 ** 50, 2.0 ** 51,
                                     2.0 ** 52 - 1, 2.0 ** 53 - 2, 1e308, 5e-324]),
                    max_size=12),
           st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_blocks_give_the_whole_arrays_verdict(self, values, cells):
        # totals on either side of 2**53 grains, in blocks of 1 to 7 cells
        values = np.array(values)
        terms = np.abs(values)
        whole = metric._exact_grid(values, terms)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "TABLE_CHUNK_CELLS", cells)
            assert metric._exact_grid(values, terms) == whole
            two_d = np.resize(values, (len(values), 2))  # a cloud's coordinates
            mp.setattr(metric, "TABLE_CHUNK_CELLS", 1 << 19)
            expect = metric._exact_grid(two_d, terms)
            mp.setattr(metric, "TABLE_CHUNK_CELLS", cells)
            assert metric._exact_grid(two_d, terms) == expect

    @pytest.mark.parametrize("cells", range(1, 8))
    def test_blocks_straddling_two_to_the_53(self, monkeypatch, cells):
        # 2**53 - 1 grains pass and 2**53 fail, whichever block holds the last one
        monkeypatch.setattr(metric, "TABLE_CHUNK_CELLS", cells)
        below = np.array([2.0 ** 50] * 7 + [2.0 ** 50 - 2, 1.0])
        assert metric._exact_grid(below, below)
        at = np.array([2.0 ** 50] * 7 + [2.0 ** 50 - 1, 1.0])
        assert not metric._exact_grid(at, at)

    @pytest.mark.parametrize("table", [True, False], ids=["dense", "table-free"])
    def test_boundary_graph_on_both_sides(self, table):
        # a 3-point path whose stored weights sum to 2**53 grains gets the
        # certificate; one grain of edge total less, and it needs none
        checks = []
        for big, expect in ((2.0 ** 52 - 1, 1), (2.0 ** 52 - 2, 0)):
            with pytest.MonkeyPatch.context() as mp:
                calls = counted(mp, "_validate_shortest_paths")
                sp = graph_space(3, [(0, 1, big / 8), (1, 2, 1 / 8)], table)
            checks.append(len(calls))
            assert sp.d(0, 2) == (big + 1) / 8
        assert checks == [1, 0]

    @pytest.mark.parametrize("table", [True, False], ids=["dense", "table-free"])
    def test_subnormal_and_huge_weights_load_without_warnings(self, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = graph_space(4, [(0, 1, 5e-324), (1, 2, 1e-323), (2, 3, 5e-324)], table)
            huge = graph_space(3, [(0, 1, 1e308), (1, 2, 0.5)], table)
        assert tiny.d(0, 3) == 2e-323 and huge.d(0, 2) == 1e308

    @pytest.mark.parametrize("table", [True, False], ids=["dense", "table-free"])
    def test_light_edge_beside_unit_keeps_the_row_check(self, monkeypatch, table):
        # a graph keeps no table, so it passes the row check by its rows: on
        # either lane every row of 3 points, which meet the closure once and
        # pass by it, with no triple loop
        monkeypatch.setattr(metric, "_validate_shortest_paths", boom)
        monkeypatch.setattr(metric, "_check_triples", boom)
        closure = counted(monkeypatch, "floyd_warshall")
        checked, real = [], metric._validate_triangles
        monkeypatch.setattr(metric, "_validate_triangles",
                            lambda space, ids: checked.append(ids) or real(space, ids))
        sp = graph_space(3, [(0, 1, 1e-10), (1, 2, 1.0)], table)
        assert sp.d(0, 2) == 1.0 + 1e-10
        assert len(closure) == 1 and len(checked) == 1
        assert np.array_equal(checked[0], np.arange(3))

    @pytest.mark.parametrize("table", [True, False], ids=["dense", "table-free"])
    def test_exact_graph_skips_every_check(self, monkeypatch, table):
        for name in ("_validate_shortest_paths", "_validate_triangles", "floyd_warshall"):
            monkeypatch.setattr(metric, name, boom)
        sp = weighted_graph(np.random.default_rng(8), 300, integral=True, table=table)
        assert sp.has_table == table

    @pytest.mark.parametrize("table", [True, False], ids=["dense", "table-free"])
    def test_float_graph_keeps_the_certificate(self, monkeypatch, table):
        calls = counted(monkeypatch, "_validate_shortest_paths")
        sp = weighted_graph(np.random.default_rng(8), 300, integral=False, table=table)
        assert sp.has_table == table and len(calls) == 1

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("p", [1, math.inf])
    def test_integer_grid_cloud_skips_the_row_check(self, monkeypatch, dense, p):
        cloud_lane(monkeypatch, dense)
        for name in ("_validate_triangles", "floyd_warshall", "_check_triples"):
            monkeypatch.setattr(metric, name, boom)
        grid = [[float(x), float(y)] for x in range(50) for y in range(30)]
        sp = load_points(grid, p=p)
        assert sp._dmat is None and sp.d(0, 1499) == (49 + 29 if p == 1 else 49)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("step, p", [(1.0, 2), (0.1, 1)])
    def test_other_clouds_keep_the_row_check(self, monkeypatch, dense, step, p):
        # every one of the 1500 rows reaches the closure accept on the dense
        # lane, and the triple loop on the table-free lane
        class Reached(Exception):
            pass

        def reached(rows, *args):
            assert rows.shape == (1500, 1500)
            raise Reached

        cloud_lane(monkeypatch, dense)
        monkeypatch.setattr(metric, "floyd_warshall" if dense else "_check_triples", reached)
        grid = [[x * step, y * step] for x in range(50) for y in range(30)]
        with pytest.raises(Reached):
            load_points(grid, p=p)

    @given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 10_000),
           st.sampled_from([1.0, math.inf]), st.integers(-30, 30))
    @settings(max_examples=80, deadline=None)
    def test_exact_cloud_rows_equal_the_exact_metric(self, n, d, seed, p, s):
        rng = np.random.default_rng(seed)
        coords = (rng.permutation(40 * n)[:n, None] + 40 * n * rng.integers(-3, 4, (n, d)))
        coords = (coords * 2.0 ** s).tolist()
        exact = [[Fraction(c) for c in pt] for pt in coords]
        with pytest.MonkeyPatch.context() as mp:
            checks = counted(mp, "_validate_triangles")
            sp = load_points(coords, p)
        assert not checks
        for x in range(n):
            diffs = [[abs(a - b) for a, b in zip(exact[x], pt)] for pt in exact]
            expect = [sum(r) if p == 1 else max(r) for r in diffs]
            assert sp.row(x).tolist() == expect


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
        cloud_lane(monkeypatch, dense)
        with pytest.raises(InvalidInputError, match="point 0 to point 1 overflows for p=2.0"):
            load_points(coords, p=2)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_overflowing_box_without_overflowing_pair(self, monkeypatch, dense):
        # the spread box's diagonal overflows (2 * 1.69e308), no pair's does
        cloud_lane(monkeypatch, dense)
        w = 1.3e154
        sp = load_points([[0.0, w / 2], [w, w / 2], [w / 2, 0.0], [w / 2, w]], p=2)
        assert sp.d(0, 1) == w and sp.d(2, 3) == w and sp.d(0, 2) == math.hypot(w / 2, w / 2)

    def test_overflow_off_the_sampled_rows_rejected(self):
        # a cloud whose only overflowing pair is 4198-4199, which the seeded
        # triangle sample does not reach
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

    def test_clouds_hold_no_table(self):
        # a cloud keeps only its coordinates: a table of 3000 points would
        # hold 72 MB, and an exact cloud computes no row at all to load
        coords = np.random.default_rng(4).uniform(0.0, 100.0, (3000, 3)).tolist()
        grid = [[float(x), float(y)] for x in range(40) for y in range(40)]
        tracemalloc.start()
        try:
            cloud = load_points(coords, p=2)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            tracemalloc.start()
            exact = load_points(grid, p=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud._dmat is None and exact._dmat is None
        assert held < 2**20 and peak < 2**20

    def test_triangle_check_reads_rows_in_blocks(self):
        # the pool's rows go into one array block by block; one rows call
        # for the whole pool would hold a second pool-sized block as well
        n = 5000
        coords = np.random.default_rng(3).uniform(0.0, 100.0, (n, 2))
        sp = FiniteMetricSpace(n, "points", coords=coords, p_norm=2.0)
        pool = metric._sample_pool(n)
        tracemalloc.start()
        try:
            metric._validate_triangles(sp, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (len(pool) * n + 4 * metric.ROW_BLOCK_CELLS)

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

    def test_table_free_duplicate_rejected(self):
        # no sampled row need meet the pair, so the rows are sorted instead
        coords = [[float(x)] for x in range(4199)] + [[0.0]]
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_points(coords, p=2)
        assert err.value.pair == (0, 4199)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_negative_zero_is_a_duplicate(self, monkeypatch, dense):
        cloud_lane(monkeypatch, dense)
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_points([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]], p=math.inf)
        assert err.value.pair == (0, 2)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_points_without_coordinates_coincide(self, monkeypatch, dense):
        cloud_lane(monkeypatch, dense)
        assert load_points([[]], p=2).n == 1
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_points([[], [], []], p=2)
        assert err.value.pair == (0, 1)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_underflowing_distance_rejected(self, monkeypatch, dense):
        # (1e-200)**2 underflows to 0: distinct points at lp distance 0
        cloud_lane(monkeypatch, dense)
        coords = [[1.0], [0.0], [1e-200]]
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_points(coords, p=2)
        assert err.value.pair == (1, 2)
        assert load_points(coords, p=1).d(1, 2) == 1e-200

    @given(st.integers(2, 30), st.integers(1, 3), st.integers(0, 10_000),
           st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    @settings(max_examples=80, deadline=None)
    def test_duplicate_witness_is_first_row_major_zero(self, n, d, seed, p):
        # the witness a scan of the whole table names
        rng = np.random.default_rng(seed)
        coords = rng.integers(-2, 3, size=(n, d)).astype(float)
        coords[rng.random((n, d)) < 0.3] *= -1.0  # -0.0 as well as 0.0
        if rng.random() < 0.3:  # distinct points; most other clouds repeat one
            coords[:, 0] += np.arange(n)
        zero = (np.abs(coords[:, None] - coords[None, :]).max(axis=2) == 0) & ~np.eye(n, dtype=bool)
        if not zero.any():
            assert load_points(coords.tolist(), p).n == n
            return
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_points(coords.tolist(), p)
        assert err.value.pair == first_witness(zero)

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
    @given(st.lists(st.integers(-5, 40), max_size=12),
           st.sampled_from(["tuple", "list", "array", "int32"]))
    @settings(max_examples=150, deadline=None)
    def test_point_subset_contract(self, ids, form):
        given_ids = {"tuple": tuple, "list": list, "array": np.array,
                     "int32": lambda v: np.array(v, dtype=np.int32)}[form](ids)
        expect = sorted(set(ids))
        a = PointSubset(given_ids)
        assert a.ids.dtype == np.intp and not a.ids.flags.writeable
        assert a.ids.tolist() == expect and (np.diff(a.ids) > 0).all()
        assert len(a) == len(expect) and list(a) == expect
        assert all(type(x) is int for x in a)
        for x in range(-6, 42):
            assert (x in a) == (x in expect)
        assert a == PointSubset(expect) and a != PointSubset(expect + [99])
        assert (a == PointSubset(range(len(expect)))) == (expect == list(range(len(expect))))
        if form == "array":  # the caller's array is neither frozen nor shared
            given_ids[:] = 0
            assert a.ids.tolist() == expect

    def test_point_subset_shares_a_read_only_array(self):
        ids = np.arange(5)
        ids.setflags(write=False)
        assert PointSubset(ids).ids is ids
        assert PointSubset(range(3)).ids.tolist() == [0, 1, 2] and len(PointSubset(())) == 0

    def test_dist_to_set_member(self, p5):
        a = PointSubset((0, 2))
        assert dist_to_set_all(p5, a)[2] == 0.0

    def test_dist_to_set_path(self, p5):
        assert dist_to_set_all(p5, PointSubset((0,)))[3] == 3.0

    def test_dist_to_set_whole_space(self, p5):
        a = p5.all_points()
        assert all(dist_to_set_all(p5, a)[x] == 0.0 for x in range(5))

    def test_dist_to_set_empty(self, p5):
        with pytest.raises(EmptySetError):
            dist_to_set_all(p5, PointSubset(()))[0]

    def test_closed_ball(self, p10):
        assert closed_set_ball(p10, PointSubset((0,)), 3.0).ids.tolist() == [0, 1, 2, 3]

    def test_nan_radius_and_limit_refused(self, p5):
        # no distance compares with NaN: the ball came back empty, the searches all far
        a = PointSubset((0, 3))
        for search in (lambda: closed_set_ball(p5, a, math.nan),
                       lambda: dist_to_set_all(p5, a, math.nan),
                       lambda: nearest_scan(p5, a.ids, math.nan)):
            with pytest.raises(InvalidInputError, match="nan"):
                search()

    def test_diameter(self, p10, cycle4):
        assert diameter(p10, PointSubset((4,))) == 0.0
        assert diameter(p10, PointSubset((2, 5, 7))) == 5.0
        assert diameter(cycle4, cycle4.all_points()) == 2.0

    @pytest.mark.parametrize("ids, bad", [((7, 12), 12), ((-1, 7), -1)])
    def test_diameter_names_an_id_outside(self, p10, ids, bad):
        with pytest.raises(InvalidInputError, match=f"point id {bad} outside"):
            diameter(p10, PointSubset(ids))

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


class TestSetSearches:
    """The set searches live in construct, and each calls metric.dijkstra."""

    MOVED = ("dist_to_set_all", "closed_set_ball", "nearest_scan", "cross_minima")

    def test_metric_keeps_no_set_search(self):
        assert [name for name in self.MOVED if hasattr(metric, name)] == []
        assert not hasattr(FiniteMetricSpace, "distances_to")
        assert all(callable(getattr(construct, name)) for name in self.MOVED)

    def test_every_search_calls_metric_dijkstra(self, monkeypatch):
        sp = path_space(6)
        assert not sp.has_table
        calls, real = [], metric.dijkstra

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(metric, "dijkstra", counted)
        a, b = PointSubset((0, 1)), PointSubset((4, 5))
        searches = {
            "dist_to_set_all": lambda: construct.dist_to_set_all(sp, a)[3],
            "closed_set_ball": lambda: construct.closed_set_ball(sp, a, 1.0).ids.tolist(),
            "nearest_scan": lambda: construct.nearest_scan(sp, a.ids)[1][3],
            "cross_minima": lambda: [c.tolist() for c in construct.cross_minima(sp, [a, b])],
        }
        expect = {"dist_to_set_all": 2.0, "closed_set_ball": [0, 1, 2], "nearest_scan": 1,
                  "cross_minima": [[3.0]]}
        for name, search in searches.items():
            before = len(calls)
            assert search() == expect[name], name
            assert len(calls) > before, name


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
        assert dist_to_set_all(big_path, a)[1000] == 1000.0
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
        if dense:  # the oracle lane: an all-pairs table built here
            sp = with_table(sp)
        assert sp.has_table == dense
        ties = 0
        for size in sorted({1, 2, max(1, n // 3), n}):
            a = PointSubset(tuple(rng.choice(n, size=size, replace=False).tolist()))
            ids = a.ids
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
                dist, nearest = nearest_scan(sp, ids, limit)
                inside = least <= limit
                assert np.array_equal(dist[inside], least[inside])
                assert np.array_equal(nearest[inside], first[inside])
                assert (dist[~inside] > limit).all()
                cut = dist_to_set_all(sp, a, limit)
                assert np.array_equal(cut[inside], least[inside]) and (cut[~inside] > limit).all()
                assert np.array_equal(closed_set_ball(sp, a, limit).ids, np.flatnonzero(inside))
            p = nearest_point_retraction(sp, a)
            assert np.array_equal(p.dist, least)
            assert np.array_equal(p.mapping, first) and np.array_equal(p.mapping[ids], ids)


def rows_read(monkeypatch):
    """Every source whose row FiniteMetricSpace.row or metric.ball_blocks gives, in order."""
    sources = []
    row, blocks = FiniteMetricSpace.row, metric.ball_blocks

    def counted_row(self, x):
        sources.append(int(x))
        return row(self, x)

    def counted_blocks(space, ids, limit=math.inf):
        for lo, ball, rows in blocks(space, ids, limit):
            sources.extend(int(x) for x in ids[lo:lo + len(rows)])
            yield lo, ball, rows

    monkeypatch.setattr(FiniteMetricSpace, "row", counted_row)
    monkeypatch.setattr(metric, "ball_blocks", counted_blocks)
    return sources


class TestPrunedDiameter:
    """A graph's diameter reads only rows that can raise it, and equals the full scan."""

    @given(st.integers(2, 40), st.integers(0, 10_000), st.booleans(), st.booleans(),
           st.sampled_from(["random", "star", "cycle"]), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_equals_max_of_every_row(self, n, seed, integral, table, shape, block):
        rng = np.random.default_rng(seed)

        def weight():
            return float(rng.integers(1, 4)) if integral else float(rng.uniform(0.05, 10.0))
        if shape == "random":
            sp = weighted_graph(rng, n, integral, table=table)
            sets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    for _ in range(4)]
        elif shape == "star":  # the leaves: no row prunes another, and the centre is outside
            sp = graph_space(n + 1, [(0, i, weight()) for i in range(1, n + 1)], table)
            sets = [np.arange(1, n + 1), rng.choice(np.arange(1, n + 1), size=min(n, 3),
                                                       replace=False)]
        else:  # a cycle: every point is as central as any other
            sp = graph_space(n + 1, [(i, (i + 1) % (n + 1), weight()) for i in range(n + 1)],
                             table)
            sets = [np.arange(n + 1), np.arange(0, n + 1, 2), rng.choice(n + 1, size=n // 2 + 1,
                                                                        replace=False)]
        assert sp.has_table == table
        full = np.stack([sp.row(x) for x in range(sp.n)])
        with pytest.MonkeyPatch.context() as mp:  # blocks of 1 to 4 rows, the bounds updated after each
            mp.setattr(metric, "ROW_BLOCK_CELLS", block * sp.n)
            for ids in sets:
                ids = np.sort(ids)
                assert diameter(sp, PointSubset(tuple(ids.tolist()))) == full[np.ix_(ids, ids)].max()
            assert sp.diameter() == full.max()

    def test_path_interval_reads_few_rows(self, monkeypatch):
        sp = graph_space(1500, [(i, i + 1, 1.0) for i in range(1499)], table=False)
        sources = rows_read(monkeypatch)
        assert diameter(sp, PointSubset(tuple(range(200, 1200)))) == 999.0
        assert len(sources) <= 8 and len(set(sources)) == len(sources)

    @pytest.mark.parametrize("table", [True, False], ids=["table", "table-free"])
    def test_star_leaves_read_each_row_once(self, monkeypatch, table):
        sp = graph_space(301, [(0, i, 1.0) for i in range(1, 301)], table)
        sources = rows_read(monkeypatch)
        assert diameter(sp, PointSubset(tuple(range(1, 301)))) == 2.0
        assert sorted(sources) == list(range(1, 301))

    def test_clouds_and_matrices_read_every_row(self):
        cloud = load_points([[float(x), float(x % 7)] for x in range(40)], 2)
        matrix = load_matrix([[abs(i - j) for j in range(40)] for i in range(40)])
        for sp in (cloud, matrix):
            expect = max(sp.d(x, y) for x in range(5, 35) for y in range(5, 35))
            with pytest.MonkeyPatch.context() as mp:
                sources = rows_read(mp)
                assert diameter(sp, PointSubset(tuple(range(5, 35)))) == expect
            assert sorted(sources) == list(range(5, 35))


class TestDiameters:
    """diameters runs every set's pruned loop at once, over flat arrays, with diameter's bits."""

    @given(st.integers(2, 40), st.integers(0, 10_000), st.integers(1, 4), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_equals_max_over_an_oracle_table(self, n, seed, block, cut):
        # weights in {0.1, 0.2, 0.3}: sums that round, and many ties
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, i)), i, 0.1 * int(rng.integers(1, 4))) for i in range(1, n)]
        edges += [(int(u), int(v), 0.1 * int(rng.integers(1, 4)))
                  for u, v in rng.integers(0, n, (n, 2))]
        sp = load_graph(n, edges)
        table = dijkstra_table(sp)
        sets = [np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                for _ in range(int(rng.integers(1, 8)))]
        sets += [np.array([int(rng.integers(0, n))]), np.arange(n)]
        rng.shuffle(sets)
        expect = np.array([table[np.ix_(ids, ids)].max() for ids in sets])
        with pytest.MonkeyPatch.context() as mp:
            # blocks of 1 to 4 rows, so a set's picks may straddle two blocks;
            # a cut-off below the diameter makes rows come back incomplete
            mp.setattr(metric, "ROW_BLOCK_CELLS", block * n)
            if cut:
                mp.setattr(metric, "DIAMETER_MARGIN", -0.75)
            got = metric.diameters(
                sp, *metric.concat_sets([PointSubset(tuple(ids.tolist())) for ids in sets]))
        assert got.dtype == np.float64 and np.array_equal(got, expect)

    def test_matrices_and_clouds_equal_per_set_diameter(self):
        rng = np.random.default_rng(6)
        cloud = load_points(rng.normal(size=(60, 3)).tolist(), 2)
        matrix = load_matrix([[abs(i - j) ** 0.5 for j in range(60)] for i in range(60)])
        for sp in (cloud, matrix):
            sets = [PointSubset(tuple(rng.choice(60, size=k, replace=False).tolist()))
                    for k in (1, 2, 7, 30, 60)]
            got = metric.diameters(sp, *metric.concat_sets(sets))
            assert got.tolist() == [diameter(sp, a) for a in sets]
            assert got.tolist() == [max(sp.d(x, y) for x in a for y in a) for a in sets]

    def test_empty_set_raises(self, p10):
        with pytest.raises(EmptySetError):
            metric.diameters(p10, *metric.concat_sets([PointSubset((1, 2)), PointSubset(())]))

    @given(st.integers(0, 10_000), st.sampled_from(["float", "tenths", "vanishing", "matrix",
                                                    "cloud"]),
           st.sampled_from([1, 3, 64]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_many_tiny_sets_equal_the_oracle_table(self, seed, kind, cells, cut):
        # many sets of two to four points among singletons and a few large
        # sets, as the stars of a pou give them, passed as flat arrays
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        if kind in ("matrix", "cloud"):
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, math.inf]))
            sp = load_points(rng.normal(size=(n, 2)).tolist(), p)
            if kind == "matrix":
                sp = load_matrix(np.stack([sp.row(x) for x in range(n)]).tolist())
        else:
            sp = rounding_graph(rng, n, kind)
        table = np.stack([sp.row(x) for x in range(n)])
        sizes = rng.choice([1, 2, 3, 4, n], size=int(rng.integers(1, 80)),
                           p=[0.2, 0.3, 0.2, 0.2, 0.1])
        sets = [np.sort(rng.choice(n, size=min(k, n), replace=False)) for k in sizes]
        indptr = np.cumsum([0] + [len(s) for s in sets])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "ROW_BLOCK_CELLS", cells * n)
            if cut:  # rows come back incomplete, first rows and later ones
                mp.setattr(metric, "DIAMETER_MARGIN", -0.75)
            got = metric.diameters(sp, np.concatenate(sets), indptr)
        expect = np.array([table[np.ix_(s, s)].max() for s in sets])
        assert got.dtype == np.float64 and np.array_equal(got, expect)

    @pytest.mark.parametrize("lane, rows, calls", [("tablefree-p6000", 58, 4),
                                                   ("dense-p2000", 22, 4),
                                                   ("verify-wide", 1500, 3)])
    def test_bench_star_rows_pinned(self, monkeypatch, lane, rows, calls):
        # the rows each benchmark lane's star preimages read, and the rounds
        # (ball_blocks calls) that read them
        from coarsecert.covers import brick_tree
        from coarsecert.extend import build_certificate, parse_modulus
        if lane == "verify-wide":
            sp = path_space(1500)
            f = barycentric_pou(sp, [PointSubset(np.arange(x, x + 3)) for x in range(0, 1500, 3)])
        else:
            sp = path_space(6000 if lane == "tablefree-p6000" else 2000)
            f = build_certificate(sp, brick_tree(sp, [159.0], 160.0), 0.2,
                                  parse_modulus("linear:4")).pou
        read, real = [], metric.ball_blocks
        monkeypatch.setattr(metric, "ball_blocks", lambda space, ids, limit=math.inf:
                            read.append(len(ids)) or real(space, ids, limit))
        star_preimage_diameters(f)
        assert (sum(read), len(read)) == (rows, calls)

    def test_small_stars_hold_little_memory(self):
        # 5000 three-point stars: flat arrays, no per-star objects (14 MB when
        # each star ran its own loop)
        sp = path_space(15000)
        f = barycentric_pou(sp, [PointSubset(np.arange(x, x + 3)) for x in range(0, 15000, 3)])
        tracemalloc.start()
        try:
            diams = star_preimage_diameters(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diams.tolist() == [2.0] * 5000
        assert peak < 4 << 20, peak

    def test_star_diameters_share_dijkstra_calls(self, monkeypatch):
        # 500 three-point blocks: one call per row was over 1500 calls; each
        # first row comes cut off at twice the heaviest edge, which holds the
        # other two points of its preimage, so no call computes a full row
        sp = path_space(1500)
        f = barycentric_pou(sp, [PointSubset(tuple(range(x, x + 3))) for x in range(0, 1500, 3)])
        limits, real = [], metric.dijkstra
        monkeypatch.setattr(metric, "dijkstra", lambda *args, limit=math.inf, **kw:
                            limits.append(limit) or real(*args, limit=limit, **kw))
        assert star_preimage_diameters(f).tolist() == [2.0] * 500
        assert 0 < len(limits) <= 100 and max(limits) < math.inf


def rounding_graph(rng, n, kind):
    """A connected table-free graph on n points whose sums round, with many ties.

    kind "float": weights from [0.05, 10); "tenths": weights in {0.1, 0.2,
    0.3}, whose sums round and tie; "vanishing": weights 1e20 and 1.0, so
    that 1e20 + 1 is 1e20 and an edge adds nothing to a path past it.
    """
    def weight():
        if kind == "float":
            return float(rng.uniform(0.05, 10.0))
        if kind == "tenths":
            return 0.1 * int(rng.integers(1, 4))
        return 1e20 if rng.random() < 0.5 else 1.0
    edges = [(int(rng.integers(0, i)), i, weight()) for i in range(1, n)]
    edges += [(int(u), int(v), weight()) for u, v in rng.integers(0, n, (n, 2))]
    return graph_space(n, edges, table=False)


def drawn_limit(rng, full, kind):
    """A cut-off: 0, an attained distance, or a value drawn between the distances."""
    if kind == "zero":
        return 0.0
    if kind == "attained":
        return float(rng.choice(full.ravel()))
    return float(rng.uniform(0.0, full.max()))


class TestBallBlocks:
    """ball_blocks gives the bits of full rows wherever they are within the limit."""

    graphs = st.sampled_from(["float", "tenths", "vanishing"])
    limits = st.sampled_from(["zero", "attained", "between"])

    @given(st.integers(1, 30), st.integers(0, 10_000), graphs, limits, st.booleans(),
           st.sampled_from([1, 4, 64]))
    @settings(max_examples=150, deadline=None)
    def test_rows_within_the_limit_are_full_rows(self, n, seed, kind, limit_kind, per_id, cells):
        rng = np.random.default_rng(seed)
        sp = rounding_graph(rng, n, kind)
        full = np.stack([sp.row(x) for x in range(n)])
        # any order, gaps between ids, and one limit per id or one for all
        ids = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        limit = (np.array([drawn_limit(rng, full, limit_kind) for _ in ids]) if per_id
                 else drawn_limit(rng, full, limit_kind))
        limits = np.broadcast_to(limit, ids.shape)
        with pytest.MonkeyPatch.context() as mp:  # calls of one row up to whole balls
            mp.setattr(metric, "ROW_BLOCK_CELLS", cells * n)
            blocks = list(metric.ball_blocks(sp, ids, limit))
        heights = [len(rows) for _, _, rows in blocks]  # the blocks cover ids in order
        assert [lo for lo, _, _ in blocks] == np.cumsum([0] + heights[:-1]).tolist()
        assert sum(heights) == len(ids)
        for lo, ball, rows in blocks:
            assert np.array_equal(ball, np.unique(ball)) and rows.shape == (len(rows), len(ball))
            for x, lim, row in zip(ids[lo:lo + len(rows)], limits[lo:lo + len(rows)], rows):
                want = full[x]
                assert set(np.flatnonzero(want <= lim)) <= set(ball.tolist())
                # exact within the limit; above it exact or inf
                assert ((row == want[ball]) | (np.isinf(row) & (want[ball] > lim))).all()

    @given(st.integers(2, 30), st.integers(0, 10_000), graphs, limits)
    @settings(max_examples=100, deadline=None)
    def test_routed_callers_keep_full_row_bits(self, n, seed, kind, limit_kind):
        rng = np.random.default_rng(seed)
        sp = rounding_graph(rng, n, kind)
        full = np.stack([sp.row(x) for x in range(n)])
        limit = drawn_limit(rng, full, limit_kind)
        ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        # restricted pairs: every pair closer than the limit, in (i, j) order, with its bits
        got = [(int(i), int(j), d) for ii, jj, dd in verify._pairs(sp, ids, limit)
               for i, j, d in zip(ii, jj, dd)]
        expect = [(i, j, full[ids[i], ids[j]]) for i in range(len(ids))
                  for j in range(i + 1, len(ids)) if full[ids[i], ids[j]] < limit]
        assert got == expect
        # nearest_scan: the running minimum and its least id, wherever within the limit
        block = full[ids]
        least, first = block.min(axis=0), ids[np.argmin(block, axis=0)]
        dist, nearest = nearest_scan(sp, ids, limit)
        inside = least <= limit
        assert np.array_equal(dist[inside], least[inside]) and (dist[~inside] > limit).all()
        assert np.array_equal(nearest[inside], first[inside])
        # diameters: each set's cut-off rows keep every diameter's bits
        sets = [ids, np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))]
        got = metric.diameters(
            sp, *metric.concat_sets([PointSubset(tuple(s.tolist())) for s in sets]))
        assert got.tolist() == [full[np.ix_(s, s)].max() for s in sets]


    def test_one_block_alive_at_a_time(self, monkeypatch):
        # every Dijkstra call of rows comes once the last block is dropped, in
        # ball_blocks and in the callers that drop each block they read
        n = 300
        sp = path_space(n)
        monkeypatch.setattr(metric, "ROW_BLOCK_CELLS", 4 * n)
        blocks, real = [], metric.dijkstra

        def tracked(*args, **kwargs):
            assert all(block() is None for block in blocks)
            out = real(*args, **kwargs)
            if out.ndim == 2:
                blocks.append(weakref.ref(out))
            return out

        monkeypatch.setattr(metric, "dijkstra", tracked)
        ids = np.arange(0, n, 7)
        for limit in (math.inf, 250.0, 20.0):  # whole rows, wide balls, small balls
            for lo, ball, rows in metric.ball_blocks(sp, ids, limit):
                del rows
            assert nearest_scan(sp, ids, limit)[0][0] == 0.0
        sets = [PointSubset(np.arange(a, a + 40)) for a in range(0, n - 40, 20)]
        assert metric.diameters(sp, *metric.concat_sets(sets)).tolist() == [39.0] * len(sets)
        assert len(blocks) > 20

    def test_wide_balls_read_whole_rows(self, monkeypatch):
        # the table-free bench lane's certificate: 19 star preimages of about
        # 360 points on a 6000-point path, whose first balls hold most of the
        # graph.  Those blocks and the ones after them read whole rows with
        # no ball search: 11 calls here, 28 when every block searched
        from coarsecert.covers import brick_tree
        from coarsecert.extend import build_certificate, parse_modulus
        sp = path_space(6000)
        res = build_certificate(sp, brick_tree(sp, [159.0], 160.0), 0.2, parse_modulus("linear:4"))
        calls, real = [], metric.dijkstra
        monkeypatch.setattr(metric, "dijkstra", lambda *a, **k: calls.append(1) or real(*a, **k))
        report = verify.cobounded_check(res.pou, res.bound)
        assert report.vertices_checked == 19 and len(calls) < 28
        stars = [res.pou.star_preimage(v).ids for v in res.pou.carrier()]
        assert star_preimage_diameters(res.pou).tolist() == [float(s[-1] - s[0]) for s in stars]


class TestGraphsKeepNoTable:
    """A graph keeps no distance table at any size; the dense limit sets how many rows are certified."""

    @staticmethod
    def float_path(n):
        rng = np.random.default_rng(2)
        return [(i, i + 1, float(rng.uniform(1.0, 2.0))) for i in range(n - 1)]

    def test_every_row_certified_below_the_dense_limit(self, monkeypatch):
        certified, real = [], metric._validate_shortest_paths
        monkeypatch.setattr(metric, "_validate_shortest_paths",
                            lambda space, ids: certified.append(ids) or real(space, ids))
        sp = load_graph(3000, self.float_path(3000))
        assert not sp.has_table and 3000 <= metric.DENSE_LIMIT
        assert len(certified) == 1 and np.array_equal(certified[0], np.arange(3000))

    def test_corrupted_row_outside_the_pool_named(self, monkeypatch):
        # the pool alone would never read row a
        edges = self.float_path(3000)
        a = int(np.setdiff1d(np.arange(1500, 3000), metric._sample_pool(3000))[0])
        b = a + 700  # raised, it also puts b + 1 below its least way in, later in row a
        real = FiniteMetricSpace.rows

        def corrupt(self, ids, limit=math.inf):
            rows = real(self, ids, limit)
            rows[np.asarray(ids) == a, b] *= 1.25
            return rows

        monkeypatch.setattr(FiniteMetricSpace, "rows", corrupt)
        with pytest.raises(ShortestPathViolationError) as err:
            load_graph(3000, edges)
        assert err.value.pair == (a, b)

    def test_load_and_diameter_hold_no_table(self):
        tracemalloc.start()
        try:
            sp = path_space(4000)
            assert sp.diameter() == 3999.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # a table alone would be 4000 * 4000 * 8 bytes = 128 MB


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
            load_matrix(base)
        assert err.value.pair == expect

    def test_negative_and_zero_witnesses_across_blocks(self, base):
        neg = base.copy()
        for x, y in ((7, 5), (4, 8)):
            neg[x, y] = neg[y, x] = -1.0
        with pytest.raises(NegativeDistanceError) as err:
            load_matrix(neg)
        assert err.value.pair == first_witness(neg < 0) == (4, 8)
        zero = base.copy()
        for x, y in ((9, 8), (5, 6)):
            zero[x, y] = zero[y, x] = 0.0
        with pytest.raises(ZeroOffDiagonalError) as err:
            load_matrix(zero)
        assert err.value.pair == first_witness((zero == 0) & ~np.eye(10, dtype=bool)) == (5, 6)

    def test_graph_tables_equal_whole_table_formulas(self):
        # a graph's rows are the directed all-pairs Dijkstra as it comes, not
        # min(d, d.T), and uniform weights are summed edge by edge, not hop
        # counts times the weight (6 * 0.3 differs from 0.3 + ... + 0.3)
        sp = random_graph(np.random.default_rng(4), 10)
        all_rows = np.arange(10)
        assert np.array_equal(sp.rows(all_rows), shortest_path(sp._graph, method="D", directed=True))
        scaled = load_graph(10, [(i, i + 1, 0.3) for i in range(9)])
        sums = np.cumsum([0.0] + [0.3] * 9)
        hops = np.abs(all_rows[:, None] - all_rows[None, :])
        assert np.array_equal(scaled.rows(all_rows), sums[hops]) and sums[6] != 6 * 0.3
