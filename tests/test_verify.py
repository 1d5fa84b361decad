import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecert import metric, verify
from coarsecert.covers import greedy_decomposition
from coarsecert.errors import BadModeError, EmptySetError, InvalidInputError, NotACoverError
from coarsecert.metric import PointSubset, diameter, load_graph, load_matrix, load_points
from coarsecert.construct import (
    CoverFamily,
    barycentric_pou,
    lebesgue_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)
from coarsecert.simplex import PartitionOfUnity
from coarsecert.verify import cobounded_check, lipschitz_check
from .conftest import dijkstra_table, integer_graph, path_space, weighted_graph, with_table
from .genutil import random_lipschitz_pou

A, B = (0, 0), (0, 1)


def blocks(*ranges):
    return [PointSubset(tuple(range(lo, hi + 1))) for lo, hi in ranges]


class TestLipschitz:
    def test_constant_pou_passes(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        rep = lipschitz_check(f, 0.0, 0.7)
        assert rep.passed
        assert rep.worst_slack == 0.7  # lambda = 0: slack is exactly C
        rep2 = lipschitz_check(f, 0.3, 0.7)
        assert rep2.passed
        assert rep2.worst_slack == pytest.approx(0.3 * 1 + 0.7)  # min at d = 1

    def test_integer_metric_eps_one_always_passes(self, p10, grid20):
        # d >= 1 between distinct points makes eps*d + eps >= 2 >= any l1 gap
        rng = np.random.default_rng(0)
        for space in (p10, grid20):
            for seed in range(5):
                f = random_lipschitz_pou(space, range(space.n), 2.0,
                                         np.random.default_rng(seed))
                rep = lipschitz_check(f, 1.0, 1.0)
                assert rep.passed
                assert rep.worst_slack >= 0.0

    @pytest.mark.parametrize("lam, C", [(math.nan, math.nan), (0.4, math.nan),
                                        (math.inf, 0.4), (0.4, -math.inf)])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_non_finite_claim_rejected(self, p10, lam, C, mode):
        # NaN fails every comparison (no slack is ever below it), and an
        # infinite claim passes every pair: neither is a claim to check
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        with pytest.raises(InvalidInputError, match="not finite"):
            lipschitz_check(f, lam, C, mode=mode)

    def test_p2_delta_pair_worst_slack(self):
        p2 = load_graph(2, [(0, 1, 1.0)])
        f = PartitionOfUnity(p2, {0: {A: 1.0}, 1: {B: 1.0}})
        rep = lipschitz_check(f, 0.5, 0.5)
        assert not rep.passed
        assert rep.worst_slack == pytest.approx(0.5 * 1 + 0.5 - 2.0)  # -1
        assert rep.witness_pair == (0, 1)

    def test_bad_mode(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        with pytest.raises(BadModeError):
            lipschitz_check(f, 0.5, 0.6, mode="restricted")

    def test_single_point_domain_trivial(self, p10):
        f = PartitionOfUnity(p10, {3: {A: 1.0}})
        rep = lipschitz_check(f, 1.0, 1.0)
        assert rep.passed and rep.pairs_checked == 0

    def test_restricted_equals_full_on_sums_above_one(self):
        # sums of 1 + 9e-10 load (within SUM_TOL) and push l1 to 2 + 1.8e-9,
        # past what eps*d + eps = 2 covers at d = 2/eps - 1 = 3
        p2 = load_graph(2, [(0, 1, 3.0)])
        w = 1.0 + 9e-10
        f = PartitionOfUnity(p2, {0: {A: w}, 1: {B: w}})
        full = lipschitz_check(f, 0.5, 0.5, mode="full")
        rest = lipschitz_check(f, 0.5, 0.5, mode="restricted")
        assert not full.passed and not rest.passed
        assert rest.pairs_checked == 1
        assert rest.worst_slack == full.worst_slack

    def test_restricted_equals_full_passfail(self, p200):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            f = random_lipschitz_pou(p200, range(200), 0.25, rng)
            for eps in (0.1, 0.5, 1.0):
                full = lipschitz_check(f, eps, eps, mode="full")
                rest = lipschitz_check(f, eps, eps, mode="restricted")
                assert full.passed == rest.passed
                # oracle: direct dense evaluation over the restricted pair set
                pts, _, mat = f.dense()
                radius = 2.0 / eps - 1.0
                dsub = np.stack([p200.row(x)[pts] for x in pts])
                worst = math.inf
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        if dsub[i, j] < radius:
                            l1 = float(np.abs(mat[i] - mat[j]).sum())
                            worst = min(worst, eps * dsub[i, j] + eps - l1)
                assert rest.worst_slack == worst
                assert rest.restricted_radius == radius

    def test_restricted_same_on_both_lanes(self, p200, monkeypatch):
        # the pair gather reads an all-pairs table built here and runs
        # limited Dijkstra on the space; the pairs and the report must not differ
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        free = path_space(200)
        p200 = with_table(p200)
        assert p200.has_table and not free.has_table
        f = random_lipschitz_pou(p200, range(200), 0.3, np.random.default_rng(5))
        g = PartitionOfUnity(free, dict(f.items()))
        a = lipschitz_check(f, 0.2, 0.2, mode="restricted")
        b = lipschitz_check(g, 0.2, 0.2, mode="restricted")
        assert a.pairs_checked > 0 and a.to_json() == b.to_json()
        pts = f.dense()[0]
        for got, expect in zip(verify._pairs(free, pts, a.restricted_radius),
                               verify._pairs(p200, pts, a.restricted_radius), strict=True):
            for x, y in zip(got, expect):
                assert np.array_equal(x, y) and x.dtype == y.dtype
            ii, jj, d = got
            assert np.array_equal(d, [p200.d(int(pts[i]), int(pts[j])) for i, j in zip(ii, jj)])

    def test_restricted_reads_balls_not_whole_rows(self, monkeypatch):
        # a whole cut-off row per position returns n**2 cells; ball blocks
        # return one O(n) ball search per block plus rows on its ball, and
        # blocks of about sqrt(n) sources balance the two at about 2n*sqrt(n)
        n = 20000
        sp = path_space(n)
        f = barycentric_pou(sp, [PointSubset(tuple(range(x, x + 4))) for x in range(0, n, 4)])
        cells, real = [], metric.dijkstra

        def counted(*args, **kw):
            out = real(*args, **kw)
            cells.append(out.size)
            return out

        monkeypatch.setattr(metric, "dijkstra", counted)
        rep = lipschitz_check(f, 0.2, 0.2, mode="restricted")
        assert rep.witness_pair == (3, 4) and rep.restricted_radius == 9.0  # the first block edge
        assert rep.pairs_checked == 8 * n - 36  # the pairs 1 to 8 apart
        assert sum(cells) < 4 * n * math.isqrt(n)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_gather_on_subset_domain(self, monkeypatch, dense):
        # a 60-point domain in a 4150-point path: most neighbours are not in it
        big = load_graph(4150, [(i, i + 1, 1.0) for i in range(4149)])
        if dense:  # the oracle lane: an all-pairs table built here
            big = with_table(big)
        assert big.has_table == dense
        rng = np.random.default_rng(9)
        ids = sorted(rng.choice(4150, size=60, replace=False).tolist())
        f = random_lipschitz_pou(big, ids, 0.5, rng)
        rep = lipschitz_check(f, 0.05, 0.05, mode="restricted")
        # oracle: python loop over the same pair set
        pts, _, mat = f.dense()
        radius = 2.0 / 0.05 - 1.0
        worst = math.inf
        count = 0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = big.d(int(pts[i]), int(pts[j]))
                if d < radius:
                    count += 1
                    l1 = float(np.abs(mat[i] - mat[j]).sum())
                    worst = min(worst, 0.05 * d + 0.05 - l1)
        assert rep.pairs_checked == count
        assert rep.worst_slack == worst

    def test_spread_domain_always_passes(self, p100):
        # every pair at distance >= 2/eps - 1: the additive slack alone
        # covers the maximal simplex distance, any pou passes
        eps = 0.5  # radius 3: domain spaced 4 apart
        ids = list(range(0, 100, 4))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = PartitionOfUnity(p100, {
                x: {(0, int(rng.integers(0, 50))): 1.0} for x in ids
            })
            rep = lipschitz_check(f, eps, eps)
            assert rep.passed
            assert rep.worst_slack >= 0.0


def random_pou(space, n_vertices, rng):
    """A pou on every point with random supports of 1 to n_vertices vertices."""
    out = {}
    for x in range(space.n):
        k = int(rng.integers(1, n_vertices + 1))
        verts = rng.choice(n_vertices, size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        out[x] = {(0, int(v)): float(wv) for v, wv in zip(verts, w) if wv > 0}
    return PartitionOfUnity(space, out)


def distance_block(space, pts):
    """d(pts[i], pts[j]) for every pair of positions, one row() at a time."""
    return np.stack([space.row(x)[pts] for x in pts])


def block_slack(f, lam, C, pairs_i, pairs_j, chunk):
    """The whole-block slack formula: one chunk x carrier block per chunk of pairs."""
    pts, _, mat = f.dense()
    dsub = distance_block(f.space, pts)
    worst, witness = math.inf, None
    for lo in range(0, len(pairs_i), chunk):
        ii = pairs_i[lo:lo + chunk]
        jj = pairs_j[lo:lo + chunk]
        l1 = np.abs(mat[ii] - mat[jj]).sum(axis=1)
        slack = lam * dsub[ii, jj] + C - l1
        k = int(np.argmin(slack))
        if slack[k] < worst:
            worst, witness = float(slack[k]), (int(pts[ii[k]]), int(pts[jj[k]]))
    return worst, witness


def brute_pairs(space, pts, radius):
    """(i, j) positions with i < j, and with d(pts[i], pts[j]) < radius if given."""
    m = len(pts)
    return [(i, j) for i in range(m) for j in range(i + 1, m)
            if radius is None or space.d(int(pts[i]), int(pts[j])) < radius]


class TestStreamedSlackKernel:
    """The streamed kernel equals the whole-block formula, bit for bit."""

    # 7 columns sum sequentially, 9 with numpy's 8 accumulators, 130 with its
    # recursive pairwise split; the oracle sums blocks of `chunk` pairs, a
    # height that has nothing to do with how the kernel groups pairs, and the
    # kernel's pair blocks and buffers are cut to 1/`cut` of their size
    @pytest.mark.parametrize("carrier", [7, 9, 130])
    @pytest.mark.parametrize("chunk", [65536, 997])
    @pytest.mark.parametrize("cut", [1, 2])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_bit_equal_to_block_formula(self, p400, carrier, chunk, cut, mode, monkeypatch):
        rng = np.random.default_rng(carrier)
        f = random_pou(p400, carrier, rng)
        pts, verts, mat = f.dense()
        assert len(verts) == carrier
        eps = 0.05
        monkeypatch.setattr(verify, "ROW_BLOCK_CELLS", metric.ROW_BLOCK_CELLS // cut)
        rep = lipschitz_check(f, eps, eps, mode=mode)
        if mode == "full":
            pairs_i, pairs_j = np.triu_indices(len(pts), k=1)
        else:
            near = distance_block(p400, pts) < rep.restricted_radius
            pairs_i, pairs_j = np.nonzero(np.triu(near, k=1))
        assert len(pairs_i) > chunk or mode == "restricted"  # full mode: >= 2 chunks
        worst, witness = block_slack(f, eps, eps, pairs_i, pairs_j, chunk)
        assert rep.worst_slack == worst
        assert rep.witness_pair == witness
        assert rep.pairs_checked == len(pairs_i)

    @pytest.mark.parametrize("carrier", [9, 130])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_partner_blocks_bit_equal_to_block_formula(self, p400, carrier, mode, monkeypatch):
        # blocks of 3 partners: the first minimum survives the cuts
        rng = np.random.default_rng(carrier)
        f = random_pou(p400, carrier, rng)
        pts = f.dense()[0]
        eps = 0.05
        expect = lipschitz_check(f, eps, eps, mode=mode)
        monkeypatch.setattr(verify, "ROW_BLOCK_CELLS", 3 * carrier + 1)
        rep = lipschitz_check(f, eps, eps, mode=mode)
        assert (rep.worst_slack, rep.witness_pair, rep.pairs_checked) == (
            expect.worst_slack, expect.witness_pair, expect.pairs_checked)
        if mode == "full":
            pairs_i, pairs_j = np.triu_indices(len(pts), k=1)
            assert block_slack(f, eps, eps, pairs_i, pairs_j, 997) == (
                rep.worst_slack, rep.witness_pair)

    def test_partner_blocks_bound_memory(self):
        # 599 partners x a 1000-vertex carrier is 4.8 MB per position; a
        # block of them holds at most 2^16 cells, 0.5 MB
        sp = path_space(600)
        f = random_pou(sp, 1000, np.random.default_rng(3))
        dense = f.dense()
        f.dense = lambda: dense  # measure the kernel, not the weight matrix it reads
        tracemalloc.start()
        try:
            rep = lipschitz_check(f, 0.1, 0.1, mode="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == 600 * 599 // 2
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("m", [2, 3, 17, 400])
    def test_pair_chunks_follow_triu_order(self, m, p400, monkeypatch):
        # the pairs, in order, are the brute-force enumeration, on both lanes
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        free = path_space(400)
        p400 = with_table(p400)
        assert p400.has_table and not free.has_table
        pts = np.arange(0, 400, 400 // m)[:m]
        for radius in (None, 0.5, 30.0, 1e9):  # every pair, none, some, every pair
            expect = brute_pairs(p400, pts, radius)
            for space in (p400, free):
                got = [(int(i), int(j), dj) for ii, jj, d in verify._pairs(space, pts, radius)
                       for i, j, dj in zip(ii, jj, d)]
                assert [(i, j) for i, j, _ in got] == expect
                assert all(dj == p400.d(int(pts[i]), int(pts[j])) for i, j, dj in got)

    @given(st.integers(2, 40), st.integers(0, 10_000), st.booleans(),
           st.integers(1, 4), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_pairs_span_blocks(self, n, seed, limited, height, size):
        # blocks of `height` whole rows (or ball blocks split past height * n
        # cells) and arrays of at most `size` pairs: the arrays, joined, are
        # the enumeration
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral=False)
        pts = np.flatnonzero(rng.random(n) < 0.6)
        radius = float(rng.uniform(0.0, 20.0)) if limited else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "ROW_BLOCK_CELLS", height * n)
            mp.setattr(verify, "ROW_BLOCK_CELLS", 16 * size)
            arrays = [[z.copy() for z in a] for a in verify._pairs(sp, pts, radius)]
        assert all(0 < len(ii) <= size for ii, _, _ in arrays)
        ii, jj, d = (np.concatenate(z) for z in zip(*arrays)) if arrays else ([], [], [])
        assert list(zip(ii, jj)) == brute_pairs(sp, pts, radius)
        assert [sp.d(int(pts[i]), int(pts[j])) for i, j in zip(ii, jj)] == list(d)

    def test_full_mode_memory(self):
        sp = path_space(600)
        f = random_pou(sp, 200, np.random.default_rng(2))
        dense = f.dense()
        f.dense = lambda: dense  # measure the kernel, not the weight matrix it reads
        tracemalloc.start()
        try:
            rep = lipschitz_check(f, 0.1, 0.1, mode="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == 600 * 599 // 2
        # one 65536-pair x 200 block of float64 is 105 MB, and the block
        # formula held three at once; a position's partners x 200 is 1 MB
        assert peak < 16 * 2**20


def mixed_pou(space, carrier, rng, multi_sum=1.0):
    """Single-vertex points mixed with points of 2 to `carrier` vertices.

    A single weight lies within 2e-10 of 1 and is seldom exactly 1.0; the
    single points sit on a quarter of the carrier, so many pairs share a
    vertex with unequal weights.  Multi-vertex weights sum to multi_sum.
    """
    out = {}
    for x in range(space.n):
        if rng.random() < 0.5:
            v = int(rng.integers(0, max(1, carrier // 4)))
            out[x] = {(0, v): 1.0 + float(rng.integers(-2, 3)) * 1e-10}
        else:
            k = int(rng.integers(2, carrier + 1))
            verts = rng.choice(carrier, size=k, replace=False)
            w = rng.dirichlet(np.ones(k)) * multi_sum
            out[x] = {(0, int(v)): float(wv) for v, wv in zip(verts, w) if wv > 0}
    return PartitionOfUnity(space, out)


class TestCsrSlackKernel:
    """The kernel reads the CSR arrays and keeps the bits of the dense formula."""

    @pytest.mark.parametrize("carrier", [7, 9, 130])
    def test_l1_bit_equal_to_dense_rows(self, p400, carrier):
        f = mixed_pou(p400, carrier, np.random.default_rng(carrier))
        pts, verts, mat = f.dense()
        assert len(verts) == carrier
        ii, jj = np.triu_indices(len(pts), k=1)
        got = verify._SlackKernel(f).l1(ii, jj)
        for lo in range(0, len(ii), 4096):
            expect = np.abs(mat[ii[lo:lo + 4096]] - mat[jj[lo:lo + 4096]]).sum(axis=1)
            assert np.array_equal(got[lo:lo + 4096], expect)
        # single-vertex pairs on one vertex with unequal weights: l1 = |u - v| > 0
        single = np.diff(f.indptr) == 1
        col, w = f.columns[f.indptr[:-1]], f.weights[f.indptr[:-1]]
        shared = single[ii] & single[jj] & (col[ii] == col[jj]) & (w[ii] != w[jj])
        assert shared.any() and (got[shared] > 0).all()
        assert (w[single] != 1.0).any() and (w[single] == 1.0).any()

    @pytest.mark.parametrize("carrier", [7, 9, 130])
    @pytest.mark.parametrize("cut", [1, 2])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_mixed_supports_bit_equal_to_block_formula(self, p400, carrier, cut, mode,
                                                       monkeypatch):
        # pair blocks and kernel buffers cut to 1/cut of their size keep every bit
        f = mixed_pou(p400, carrier, np.random.default_rng(carrier))
        pts = f.dense()[0]
        eps = 0.05
        monkeypatch.setattr(verify, "ROW_BLOCK_CELLS", metric.ROW_BLOCK_CELLS // cut)
        rep = lipschitz_check(f, eps, eps, mode=mode)
        if mode == "full":
            pairs_i, pairs_j = np.triu_indices(len(pts), k=1)
        else:
            near = distance_block(p400, pts) < rep.restricted_radius
            pairs_i, pairs_j = np.nonzero(np.triu(near, k=1))
        assert block_slack(f, eps, eps, pairs_i, pairs_j, 997) == (rep.worst_slack, rep.witness_pair)
        assert rep.pairs_checked == len(pairs_i)

    @pytest.mark.parametrize("carrier", [9, 130])
    @pytest.mark.parametrize("cut", [1, 2])
    def test_restricted_radius_from_multi_entry_sums(self, p400, carrier, cut, monkeypatch):
        # single weights stay within 2e-10 of 1, below tolerance/4, so the
        # largest sum, and the radius, come from the multi-vertex rows, read
        # in blocks cut to 1/cut of their size
        monkeypatch.setattr(verify, "ROW_BLOCK_CELLS", metric.ROW_BLOCK_CELLS // cut)
        f = mixed_pou(p400, carrier, np.random.default_rng(carrier + 1), multi_sum=1 + 8e-10)
        pts, _, mat = f.dense()
        sums = mat.sum(axis=1)
        k = int(np.argmax(sums))
        assert sums[k] > 1 + verify.SLACK_TOL / 4 and f.indptr[k + 1] - f.indptr[k] > 1
        eps = 0.05
        rep = lipschitz_check(f, eps, eps, mode="restricted")
        assert rep.restricted_radius == 2.0 * float(sums[k]) / eps - 1.0
        near = distance_block(p400, pts) < rep.restricted_radius
        pairs_i, pairs_j = np.nonzero(np.triu(near, k=1))
        assert block_slack(f, eps, eps, pairs_i, pairs_j, 997) == (rep.worst_slack, rep.witness_pair)
        assert rep.pairs_checked == len(pairs_i)
        assert lipschitz_check(f, eps, eps, mode="full").passed == rep.passed

    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_dense_matrix_never_built(self, monkeypatch, mode):
        # the dense matrix of this pou alone is 600 x 1000 floats, 4.8 MB
        sp = path_space(600)
        f = random_pou(sp, 1000, np.random.default_rng(3))
        assert len(f.carrier()) == 1000

        def refuse(self):
            raise AssertionError("the kernel read the dense matrix")

        monkeypatch.setattr(PartitionOfUnity, "dense", refuse)
        tracemalloc.start()
        try:
            rep = lipschitz_check(f, 0.1, 0.1, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == 600 * 599 // 2 or mode == "restricted"
        assert rep.pairs_checked > 0
        assert peak < 600 * 1000 * 8


def partial_pou(space, ids, n_vertices, rng):
    """A pou on ids with random supports of 1 to n_vertices vertices."""
    out = {}
    for x in ids:
        k = int(rng.integers(1, n_vertices + 1))
        verts = rng.choice(n_vertices, size=k, replace=False)
        out[x] = {(0, int(v)): float(w) for v, w in zip(verts, rng.dirichlet(np.ones(k))) if w > 0}
    return PartitionOfUnity(space, out)


def plain_scan(f, lam, C):
    """(worst, witness, pairs) of the scan over every pair, the full-mode oracle."""
    return verify._scan(verify._SlackKernel(f), lam, C, None)


class TestFullModeBound:
    """Full mode scans near pairs and bounds the rest: the plain scan's report, bit for bit."""

    @given(st.sampled_from(["float", "ties", "table", "cloud", "matrix", "gap"]),
           st.integers(2, 30), st.integers(0, 10_000), st.floats(0.3, 1.0),
           st.sampled_from([0.0, 1e-9, 1.0, 5.0]), st.sampled_from([-1.0, 0.0, 0.5, 3.0]))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_equals_plain_scan(self, kind, n, seed, share, lam, C):
        rng = np.random.default_rng(seed)
        if kind in ("float", "ties", "table"):
            sp = weighted_graph(rng, n, integral=kind == "ties", table=kind == "table")
        elif kind == "cloud":
            cells = rng.choice(64, size=n, replace=False)
            coords = np.stack([cells // 8, cells % 8], axis=1) + 0.4 * rng.random((n, 2))
            sp = load_points(coords.tolist(), float(rng.choice([1.0, 2.0, math.inf])))
        elif kind == "matrix":  # an integer graph's table: exact, symmetric, with ties
            sp = load_matrix(dijkstra_table(integer_graph(rng, n)).tolist())
        else:
            # two unit paths one edge of (2 + t)/lam apart, each on its own
            # vertex: the worst pair crosses the gap, past the first radius
            k, t = int(rng.integers(0, n - 1)), float(rng.random())
            gap = (2.0 + t) / lam if lam > 0 else 2.0 + t
            sp = load_graph(n, [(i, i + 1, gap if i == k else 1.0) for i in range(n - 1)])
        ids = np.flatnonzero(rng.random(n) < share).tolist() or [0]
        if kind == "gap":
            f = PartitionOfUnity(sp, {x: {(0, int(x > k)): 1.0} for x in ids})
        else:
            f = partial_pou(sp, ids, int(rng.integers(1, 7)), rng)
        rep = lipschitz_check(f, lam, C, mode="full")
        worst, witness, count = plain_scan(f, lam, C)
        assert (rep.worst_slack, rep.witness_pair, rep.pairs_checked) == (worst, witness, count)
        assert rep.restricted_radius is None

    def test_far_worst_pair_found(self):
        # the jump (4, 5) of 2.5 lies past the first radius L/lam, a little
        # above 2: the first scan's minimum is 1 (unit steps within a side),
        # which the bound lam*L/lam + C - L = 0 does not clear, and the
        # second scan, at twice the radius, finds 0.5 at the jump
        sp = load_graph(10, [(i, i + 1, 2.5 if i == 4 else 1.0) for i in range(9)])
        f = PartitionOfUnity(sp, {x: {(0, int(x > 4)): 1.0} for x in range(10)})
        kernel = verify._SlackKernel(f)
        assert 2.0 < kernel.l1_max() < 2.5
        assert verify._scan(kernel, 1.0, 0.0, kernel.l1_max())[:2] == (1.0, (0, 1))
        rep = lipschitz_check(f, 1.0, 0.0)
        assert (rep.worst_slack, rep.witness_pair, rep.pairs_checked) == (0.5, (4, 5), 45)
        assert plain_scan(f, 1.0, 0.0) == (0.5, (4, 5), 45)

    def test_large_lam_starts_past_the_lightest_edge(self, monkeypatch):
        # rho starts at twice the least edge, not at L/lam: no pair is closer
        # than the edge, so with lam = 1e12 the doubling from L/lam made 40
        # scans; now the first takes the adjacent pairs and the bound clears
        n = 300
        sp = path_space(n)
        f = barycentric_pou(sp, [PointSubset(tuple(range(x, x + 3))) for x in range(0, n, 3)])
        radii, real = [], verify._scan
        monkeypatch.setattr(verify, "_scan", lambda *args: radii.append(args[3]) or real(*args))
        rep = lipschitz_check(f, 1e12, 0.5)
        assert len(radii) <= 2 and radii[0] == 2.0
        assert json.dumps(rep.to_json(), sort_keys=True) == (
            '{"C": 0.5, "check": "lipschitz", "lambda": 1000000000000.0, "pairs_checked": 44850, '
            '"pass": true, "restricted_radius": null, "tolerance": 1e-09, "witness": [2, 3], '
            '"worst_slack": 999999999998.5}')

    def test_near_pairs_only(self, monkeypatch):
        # 2 * 10**8 pairs in all, of which full mode may hand at most 50 per
        # point to the kernel; past that it would be the plain scan
        n = 20000
        sp = path_space(n)
        f = barycentric_pou(sp, [PointSubset(tuple(range(x, min(x + 3, n)))) for x in range(0, n, 3)])
        seen, real = [0], verify._SlackKernel.l1

        def counted(self, ii, jj):
            seen[0] += ii.size
            assert seen[0] <= 50 * n, "full mode scanned far pairs"
            return real(self, ii, jj)

        monkeypatch.setattr(verify._SlackKernel, "l1", counted)
        rep = lipschitz_check(f, 1.0, 1.0, mode="full")
        assert rep.pairs_checked == n * (n - 1) // 2
        assert (rep.worst_slack, rep.witness_pair) == (0.0, (2, 3))


class TestCobounded:
    def test_singleton_stars(self, p10):
        f = barycentric_pou(p10, [PointSubset((x,)) for x in range(10)])
        assert cobounded_check(f, 0.0).passed

    def test_constant_fails_at_8(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        rep = cobounded_check(f, 8.0)
        assert not rep.passed
        assert rep.tight_bound == 9.0
        assert rep.worst_vertex == A

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, p10, M):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        with pytest.raises(InvalidInputError, match=f"claimed M = {M!r} is not finite"):
            cobounded_check(f, M)

    def test_two_blocks_pass_at_5(self, p10):
        # oracle: preimages are {0..5} and {4..9}, both of diameter 5
        f = barycentric_pou(p10, blocks((0, 5), (4, 9)))
        rep = cobounded_check(f, 5.0)
        assert rep.passed
        assert rep.tight_bound == 5.0


class TestRDisjoint:
    def test_single_member(self, p10):
        for r in (0.0, 5.0, 100.0):
            assert r_disjoint_check(p10, blocks((0, 9)), r).passed

    def test_gap_pass_and_fail(self, p10):
        fam = blocks((0, 2), (6, 9))
        ok = r_disjoint_check(p10, fam, 3.0)
        assert ok.passed and ok.min_cross == 4.0
        bad = r_disjoint_check(p10, fam, 4.0)
        assert not bad.passed
        assert bad.witness == (2, 6, 0, 1)

    def test_nan_radius_rejected(self, p10):
        # no distance compares with NaN, which read as a pass at distance 1
        assert not r_disjoint_check(p10, blocks((0, 2), (3, 9)), 1.0).passed
        with pytest.raises(InvalidInputError, match="R = nan is not a number"):
            r_disjoint_check(p10, blocks((0, 2), (3, 9)), float("nan"))

    def test_overlapping_members_conflict(self, p10):
        fam = blocks((0, 5), (5, 9))
        rep = r_disjoint_check(p10, fam, 0.0)
        assert not rep.passed
        assert rep.min_cross == 0.0

    def test_member_outside_space(self, p10):
        # read a row past the space and raised a bare IndexError
        with pytest.raises(InvalidInputError, match="point id 12 outside space of size 10"):
            r_disjoint_check(p10, [PointSubset((0,)), PointSubset((12,))], 1.0)


def first_fit_families(space, R, target_diam):
    """greedy_decomposition by brute force: ball carving, then first-fit colouring."""
    uncovered = list(range(space.n))
    pieces = []
    while uncovered:
        seed = uncovered[0]
        pieces.append([x for x in uncovered if space.d(seed, x) <= target_diam / 2.0])
        uncovered = [x for x in uncovered if x not in pieces[-1]]
    colors = []
    for p, piece in enumerate(pieces):
        used = {colors[q] for q in range(p)
                if min(space.d(x, y) for x in pieces[q] for y in piece) <= R}
        colors.append(min(set(range(len(used) + 1)) - used))
    return [[tuple(pieces[p]) for p in range(len(pieces)) if colors[p] == c]
            for c in range(max(colors) + 1)]


class TestPairwiseOracle:
    """Row-streamed pairwise reductions against brute force, on both lanes.

    integer_graph's weights in {1, 2, 3} make many distance ties, so the
    witnesses' tie-breaks are exercised.
    """

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("seed", range(6))
    def test_r_disjoint_diameter_greedy(self, monkeypatch, dense, seed):
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        sp = integer_graph(rng, n)
        if dense:  # the oracle lane: an all-pairs table built here
            sp = with_table(sp)
        assert sp.has_table == dense
        ties = 0
        for _ in range(6):
            k = int(rng.integers(1, 5))  # single-member families too
            fam = [PointSubset(tuple(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)),
                                                replace=False).tolist()))
                   for _ in range(k)]  # members may overlap
            cands = sorted((sp.d(x, y), s, t, x, y)
                           for s in range(k) for t in range(s + 1, k)
                           for x in fam[s] for y in fam[t])
            ties += sum(c[0] == cands[0][0] for c in cands[1:])
            best = cands[0][0] if cands else math.inf
            for R in (best - 1.0, best, best + 1.0, math.inf):
                rep = r_disjoint_check(sp, fam, R)
                assert rep.min_cross == best
                expect = cands[0][3:] + cands[0][1:3] if cands and best <= R else None
                assert rep.witness == expect
            for member in fam:
                assert diameter(sp, member) == max(sp.d(x, y) for x in member for y in member)
        assert ties > 0
        assert sp.diameter() == max(sp.d(x, y) for x in range(n) for y in range(n))
        for R, target in ((0.0, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 3.0)):
            got = [[tuple(piece) for piece in f] for f in greedy_decomposition(sp, R, target)]
            assert got == first_fit_families(sp, R, target)

    @given(st.integers(2, 30), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_r_disjoint_against_full_rows(self, n, seed, integral):
        # table-free: one multi-source distance per member, and a witness
        # from the winning member's rows cut off at the least distance
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral)
        full = np.stack([sp.row(x) for x in range(n)])
        k = int(rng.integers(2, 5))
        fam = [PointSubset(tuple(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)),
                                            replace=False).tolist()))
               for _ in range(k)]  # members may overlap
        least = min((full[x, y], s, t, x, y) for s in range(k) for t in range(s + 1, k)
                    for x in fam[s] for y in fam[t])
        best = least[0]
        for R in (best / 2, best, best * (1 + 1e-12), math.inf):
            rep = r_disjoint_check(sp, fam, R)
            assert rep.min_cross == best
            assert rep.witness == (least[3:] + least[1:3] if best <= R else None)
        for R, target in ((0.0, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 3.0)):
            got = [[tuple(piece) for piece in f] for f in greedy_decomposition(sp, R, target)]
            assert got == first_fit_families(sp, R, target)


class TestUniformlyBounded:
    def test_singletons(self, p10):
        fam = [PointSubset((x,)) for x in range(10)]
        assert uniformly_bounded_check(p10, fam).bound == 0.0

    def test_blocks_of_five(self, p10):
        assert uniformly_bounded_check(p10, blocks((0, 4), (5, 9))).bound == 4.0

    def test_whole_space(self, p10):
        assert uniformly_bounded_check(p10, [p10.all_points()]).bound == 9.0

    def test_empty_member(self, p10):
        with pytest.raises(EmptySetError):
            uniformly_bounded_check(p10, [PointSubset(())])

    def test_empty_family(self, p10):
        with pytest.raises(EmptySetError, match="empty family"):
            uniformly_bounded_check(p10, [])

    @pytest.mark.parametrize("ids, bad", [((12,), 12), ((-1, 12), -1)])
    def test_member_outside_space(self, p10, ids, bad):
        # (12,) read as bound 0.0, and (-1, 12) never returned
        with pytest.raises(InvalidInputError, match=f"point id {bad} outside space of size 10"):
            uniformly_bounded_check(p10, [p10.all_points(), PointSubset(ids)])


class TestLebesgue:
    def test_whole_space_cover(self, p10):
        for m in (0.5, 3.0, 100.0):
            assert lebesgue_check(p10, [p10.all_points()], m).passed

    def test_two_blocks_boundary(self, p10):
        # oracle by enumeration: open 2-balls all fit ({3,4,5} in {0..5});
        # open 3-balls around 4 and 5 ({2..6}, {3..7}) fit in neither member
        cover = blocks((0, 5), (4, 9))
        assert lebesgue_check(p10, cover, 2.0).passed
        rep = lebesgue_check(p10, cover, 3.0)
        assert not rep.passed
        assert rep.witness_point == 4

    def test_singleton_cover_unit_balls(self, p10):
        cover = [PointSubset((x,)) for x in range(10)]
        assert lebesgue_check(p10, cover, 1.0).passed  # open 1-balls are singletons
        assert not lebesgue_check(p10, cover, 1.5).passed

    def test_nan_radius_rejected(self, p10):
        # a NaN ball held no point, so every cover passed
        cover = blocks((0, 5), (4, 9))
        assert not lebesgue_check(p10, cover, 3.0).passed
        with pytest.raises(InvalidInputError, match="M = nan is not a number"):
            lebesgue_check(p10, cover, float("nan"))

    def test_not_a_cover(self, p10):
        with pytest.raises(NotACoverError):
            lebesgue_check(p10, blocks((0, 3), (6, 9)), 1.0)

    def test_member_outside_space(self, p10):
        # -1 read as point 9, so the cover {0..8}, {-1} passed though 9 is in no member
        with pytest.raises(InvalidInputError, match="point id -1 outside space of size 10"):
            lebesgue_check(p10, [PointSubset(tuple(range(9))), PointSubset((-1,))], 0.5)

    def test_bruteforce_oracle(self, p20):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            members = []
            covered = set()
            for _ in range(k):
                lo = int(rng.integers(0, 15))
                hi = int(rng.integers(lo, 20))
                members.append(PointSubset(tuple(range(lo, hi + 1))))
                covered.update(range(lo, hi + 1))
            if covered != set(range(20)):
                continue
            m = float(rng.uniform(0.5, 6.0))
            rep = lebesgue_check(p20, members, m)
            expect = all(
                any(all(y in mem for y in range(20) if p20.d(x, y) < m)
                    for mem in members)
                for x in range(20)
            )
            assert rep.passed == expect

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_random_covers_match_enumeration(self, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        verdicts = []
        for seed in range(30):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(2, 40))
            sp = integer_graph(rng, n)
            if dense:  # the oracle lane: an all-pairs table built here
                sp = with_table(sp)
            assert sp.has_table == dense
            d = [[sp.d(x, y) for y in range(n)] for x in range(n)]
            # members are closed balls around random centres, then every
            # uncovered point joins a random member
            members = [{y for y in range(n) if d[c][y] <= r}
                       for c, r in zip(rng.integers(0, n, int(rng.integers(1, 5))),
                                       rng.integers(0, 6, 4))]
            for x in set(range(n)).difference(*members):
                members[int(rng.integers(0, len(members)))].add(x)
            cover = [PointSubset(tuple(m)) for m in members]
            m = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.5]))
            # oracle: the first point whose open m-ball lies in no member
            expect = next((x for x in range(n)
                           if not any({y for y in range(n) if d[x][y] < m} <= mem
                                      for mem in members)), None)
            rep = lebesgue_check(sp, cover, m)
            assert rep.witness_point == expect and rep.passed == (expect is None)
            verdicts.append(rep.passed)
        assert any(verdicts) and not all(verdicts)

    @given(st.integers(2, 40), st.integers(0, 10_000), st.booleans(), st.integers(1, 4),
           st.sampled_from(["nonpositive", "a distance", "below the diameter", "above"]))
    @settings(max_examples=80, deadline=None)
    def test_ball_blocks_match_table(self, n, seed, integral, height, kind):
        # a graph reads the balls of ball blocks (ball subgraphs, or whole rows
        # once a ball holds most points), the oracle lane its table: the same
        # report, also where M equals a distance and strict < decides
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral=integral)
        table = with_table(sp)
        d = table._dmat
        m = {"nonpositive": float(rng.choice([0.0, -1.5])),
             "a distance": float(d[rng.integers(n), rng.integers(n)]),
             "below the diameter": float(rng.uniform(0.0, d.max())),
             "above": 2.0 * float(d.max()) + 1.0}[kind]
        members = [np.flatnonzero(d[c] <= r) for c, r in
                   zip(rng.integers(0, n, 4), rng.uniform(0.0, d.max(), 4))]
        members[0] = np.union1d(members[0], rng.choice(n, size=n // 2))
        for x in np.setdiff1d(np.arange(n), np.concatenate(members)):
            k = int(rng.integers(0, len(members)))
            members[k] = np.append(members[k], x)
        cover = [PointSubset(ids) for ids in members]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "ROW_BLOCK_CELLS", height * n)
            got = lebesgue_check(sp, cover, m)
        assert got == lebesgue_check(table, cover, m)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_nonpositive_radius_passes(self, monkeypatch, dense):
        # every open ball of radius <= 0 is empty, on either lane
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        sp = path_space(5)
        if dense:  # the oracle lane: an all-pairs table built here
            sp = with_table(sp)
        assert sp.has_table == dense
        for m in (-1.0, 0.0):
            rep = lebesgue_check(sp, blocks((0, 2), (3, 4)), m)
            assert rep.passed and rep.witness_point is None


class TestMultiplicity:
    def test_partition(self, p10):
        rep = multiplicity(p10, blocks((0, 4), (5, 9)))
        assert rep.maximum == 1

    def test_two_blocks(self, p10):
        rep = multiplicity(p10, blocks((0, 5), (4, 9)))
        assert rep.maximum == 2
        assert rep.histogram == {1: 8, 2: 2}

    def test_three_copies(self, p10):
        rep = multiplicity(p10, [p10.all_points()] * 3)
        assert rep.maximum == 3

    def test_member_outside_space(self, p10):
        with pytest.raises(InvalidInputError, match="point id 12 outside space of size 10"):
            multiplicity(p10, [p10.all_points(), PointSubset((12,))])

    def test_empty_family_member_rejected(self, p10):
        with pytest.raises(EmptySetError):
            CoverFamily((PointSubset(()),))
