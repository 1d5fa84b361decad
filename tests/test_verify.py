import math
import tracemalloc

import numpy as np
import pytest

from coarsecert import verify
from coarsecert.errors import BadModeError, EmptySetError, NotACoverError
from coarsecert.metric import PointSubset, load_graph
from coarsecert.simplex import PartitionOfUnity, SimplexPoint, barycentric_pou
from coarsecert.verify import (
    CoverFamily,
    cobounded_check,
    lebesgue_check,
    lipschitz_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)
from .conftest import path_space
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

    def test_p2_delta_pair_worst_slack(self):
        p2 = load_graph(2, [(0, 1, 1.0)])
        f = PartitionOfUnity(p2, {0: SimplexPoint.delta(A), 1: SimplexPoint.delta(B)})
        rep = lipschitz_check(f, 0.5, 0.5)
        assert not rep.passed
        assert rep.worst_slack == pytest.approx(0.5 * 1 + 0.5 - 2.0)  # -1
        assert rep.witness_pair == (0, 1)

    def test_bad_mode(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        with pytest.raises(BadModeError):
            lipschitz_check(f, 0.5, 0.6, mode="restricted")

    def test_single_point_domain_trivial(self, p10):
        f = PartitionOfUnity(p10, {3: SimplexPoint.delta(A)})
        rep = lipschitz_check(f, 1.0, 1.0)
        assert rep.passed and rep.pairs_checked == 0

    def test_restricted_equals_full_on_sums_above_one(self):
        # sums of 1 + 9e-10 load (within SUM_TOL) and push l1 to 2 + 1.8e-9,
        # past what eps*d + eps = 2 covers at d = 2/eps - 1 = 3
        p2 = load_graph(2, [(0, 1, 3.0)])
        w = 1.0 + 9e-10
        f = PartitionOfUnity(p2, {0: SimplexPoint({A: w}), 1: SimplexPoint({B: w})})
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
                dsub = p200.submatrix(pts)
                worst = math.inf
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        if dsub[i, j] < radius:
                            l1 = float(np.abs(mat[i] - mat[j]).sum())
                            worst = min(worst, eps * dsub[i, j] + eps - l1)
                assert rest.worst_slack == worst
                assert rest.restricted_radius == radius

    def test_gather_modes_identical(self, p200):
        rng = np.random.default_rng(5)
        f = random_lipschitz_pou(p200, range(200), 0.3, rng)
        a = lipschitz_check(f, 0.2, 0.2, mode="restricted", gather="table")
        b = lipschitz_check(f, 0.2, 0.2, mode="restricted", gather="bfs")
        assert a.to_json() == b.to_json()

    def test_gather_bfs_on_tablefree_space(self):
        big = load_graph(4150, [(i, i + 1, 1.0) for i in range(4149)])
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

    def test_workers_bit_identical(self, p200):
        rng = np.random.default_rng(17)
        f = random_lipschitz_pou(p200, range(200), 0.3, rng)
        reps = [lipschitz_check(f, 0.4, 0.4, workers=w).to_json() for w in (1, 2, 4)]
        assert reps[0] == reps[1] == reps[2]

    def test_spread_domain_always_passes(self, p100):
        # every pair at distance >= 2/eps - 1: the additive slack alone
        # covers the maximal simplex distance, any pou passes
        eps = 0.5  # radius 3: domain spaced 4 apart
        ids = list(range(0, 100, 4))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = PartitionOfUnity(p100, {
                x: SimplexPoint({(0, int(rng.integers(0, 50))): 1.0}) for x in ids
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
        out[x] = SimplexPoint({(0, int(v)): float(wv) for v, wv in zip(verts, w) if wv > 0})
    return PartitionOfUnity(space, out)


def block_slack(f, lam, C, pairs_i, pairs_j):
    """The whole-chunk slack formula: one chunk x carrier block per chunk."""
    pts, _, mat = f.dense()
    worst, witness = math.inf, None
    for lo in range(0, len(pairs_i), verify.PAIR_CHUNK):
        ii = pairs_i[lo:lo + verify.PAIR_CHUNK]
        jj = pairs_j[lo:lo + verify.PAIR_CHUNK]
        l1 = np.abs(mat[ii] - mat[jj]).sum(axis=1)
        slack = lam * f.space.pair_distances(pts[ii], pts[jj]) + C - l1
        k = int(np.argmin(slack))
        if slack[k] < worst:
            worst, witness = float(slack[k]), (int(pts[ii[k]]), int(pts[jj[k]]))
    return worst, witness


class TestStreamedSlackKernel:
    """The run-by-run slack kernel equals the whole-chunk block formula."""

    # 7 columns sum sequentially, 9 with numpy's 8 accumulators, 130 with
    # its recursive pairwise split; a small chunk splits runs across chunks
    @pytest.mark.parametrize("carrier", [7, 9, 130])
    @pytest.mark.parametrize("chunk", [verify.PAIR_CHUNK, 997])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_bit_equal_to_block_formula(self, p400, monkeypatch, carrier, chunk,
                                        workers, mode):
        monkeypatch.setattr(verify, "PAIR_CHUNK", chunk)
        rng = np.random.default_rng(carrier)
        f = random_pou(p400, carrier, rng)
        pts, verts, mat = f.dense()
        assert len(verts) == carrier
        eps = 0.05
        rep = lipschitz_check(f, eps, eps, mode=mode, workers=workers)
        if mode == "full":
            pairs_i, pairs_j = np.triu_indices(len(pts), k=1)
        else:
            near = p400.submatrix(pts) < rep.restricted_radius
            pairs_i, pairs_j = np.nonzero(np.triu(near, k=1))
        assert len(pairs_i) > chunk or mode == "restricted"  # full mode: >= 2 chunks
        worst, witness = block_slack(f, eps, eps, pairs_i, pairs_j)
        assert rep.worst_slack == worst
        assert rep.witness_pair == witness
        assert rep.pairs_checked == len(pairs_i)

    @pytest.mark.parametrize("m", [2, 3, 17, 400])
    def test_pair_chunks_follow_triu_order(self, m, p400):
        ti, tj = np.triu_indices(m, k=1)
        n = len(ti)
        for lo, hi in ((0, n), (0, 1), (n - 1, n), (n // 3, n // 2)):
            i, j = verify._upper_pairs(m, lo, hi)
            assert np.array_equal(i, ti[lo:hi]) and np.array_equal(j, tj[lo:hi])
        pts = np.arange(0, 400, 400 // m)[:m]
        for radius in (0.5, 30.0, 1e9):  # no pair, some pairs, every pair
            near = p400.submatrix(pts) < radius
            expect = np.nonzero(np.triu(near, k=1))
            got = verify._restricted_pairs(p400, pts, radius, "table")
            assert all(np.array_equal(g, e) and g.dtype == e.dtype for g, e in zip(got, expect))

    def test_full_mode_memory(self):
        sp = path_space(600)
        f = random_pou(sp, 200, np.random.default_rng(2))
        f.dense()
        tracemalloc.start()
        try:
            rep = lipschitz_check(f, 0.1, 0.1, mode="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == 600 * 599 // 2
        # one PAIR_CHUNK x 200 block of float64 is 105 MB, and the block
        # formula held three at once
        assert peak < 16 * 2**20


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

    def test_overlapping_members_conflict(self, p10):
        fam = blocks((0, 5), (5, 9))
        rep = r_disjoint_check(p10, fam, 0.0)
        assert not rep.passed
        assert rep.min_cross == 0.0


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

    def test_not_a_cover(self, p10):
        with pytest.raises(NotACoverError):
            lebesgue_check(p10, blocks((0, 3), (6, 9)), 1.0)

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

    def test_empty_family_member_rejected(self, p10):
        with pytest.raises(EmptySetError):
            CoverFamily((PointSubset(()),))
