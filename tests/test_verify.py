import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecert import metric, verify
from coarsecert.covers import greedy_decomposition
from coarsecert.errors import BadModeError, EmptySetError, InvalidInputError, NotACoverError
from coarsecert.metric import PointSubset, diameter, load_graph
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
from .conftest import integer_graph, path_space, weighted_graph
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
        # the pair gather reads the table on p200 and runs limited Dijkstra
        # on its table-free copy; the pairs and the report must not differ
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        free = path_space(200)
        assert p200.has_table and not free.has_table
        f = random_lipschitz_pou(p200, range(200), 0.3, np.random.default_rng(5))
        g = PartitionOfUnity(free, f.mapping())
        a = lipschitz_check(f, 0.2, 0.2, mode="restricted")
        b = lipschitz_check(g, 0.2, 0.2, mode="restricted")
        assert a.pairs_checked > 0 and a.to_json() == b.to_json()
        pts = f.dense()[0]
        everything = range(len(pts))
        for (i, got, d), (k, expect, e) in zip(
                verify._partners(free, pts, a.restricted_radius, everything),
                verify._partners(p200, pts, a.restricted_radius, everything), strict=True):
            assert i == k and np.array_equal(got, expect) and got.dtype == expect.dtype
            assert np.array_equal(d, e) and np.array_equal(d, p200.row(int(pts[i]))[pts[got]])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_gather_on_subset_domain(self, monkeypatch, dense):
        # a 60-point domain in a 4150-point path: most neighbours are not in it
        if dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 4150)
        big = load_graph(4150, [(i, i + 1, 1.0) for i in range(4149)])
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
    """The per-position kernel equals the whole-block formula, bit for bit."""

    # 7 columns sum sequentially, 9 with numpy's 8 accumulators, 130 with its
    # recursive pairwise split; the oracle sums blocks of `chunk` pairs, a
    # height that has nothing to do with how the kernel groups pairs
    @pytest.mark.parametrize("carrier", [7, 9, 130])
    @pytest.mark.parametrize("chunk", [65536, 997])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["full", "restricted"])
    def test_bit_equal_to_block_formula(self, p400, carrier, chunk, workers, mode):
        rng = np.random.default_rng(carrier)
        f = random_pou(p400, carrier, rng)
        pts, verts, mat = f.dense()
        assert len(verts) == carrier
        eps = 0.05
        rep = lipschitz_check(f, eps, eps, mode=mode, workers=workers)
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

    @pytest.mark.parametrize("m", [2, 3, 17, 400])
    def test_pair_chunks_follow_triu_order(self, m, p400, monkeypatch):
        # the pairs of any contiguous block of positions, in order, are that
        # block's stretch of the brute-force enumeration, on both lanes
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        free = path_space(400)
        assert p400.has_table and not free.has_table
        pts = np.arange(0, 400, 400 // m)[:m]
        cuts = sorted({0, 1, m // 3, m // 2, m - 1, m})
        for radius in (None, 0.5, 30.0, 1e9):  # every pair, none, some, every pair
            expect = brute_pairs(p400, pts, radius)
            for space in (p400, free):
                got = [(i, int(j), dj) for lo, hi in zip(cuts, cuts[1:])
                       for i, js, d in verify._partners(space, pts, radius, range(lo, hi))
                       for j, dj in zip(js, d)]
                assert [(i, j) for i, j, _ in got] == expect
                assert all(dj == p400.d(int(pts[i]), int(pts[j])) for i, j, dj in got)

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
        # one 65536-pair x 200 block of float64 is 105 MB, and the block
        # formula held three at once; a position's partners x 200 is 1 MB
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

    def test_overlapping_members_conflict(self, p10):
        fam = blocks((0, 5), (5, 9))
        rep = r_disjoint_check(p10, fam, 0.0)
        assert not rep.passed
        assert rep.min_cross == 0.0


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
            got = [[piece.ids for piece in f] for f in greedy_decomposition(sp, R, target)]
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
            got = [[piece.ids for piece in f] for f in greedy_decomposition(sp, R, target)]
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

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_random_covers_match_enumeration(self, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        verdicts = []
        for seed in range(30):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(2, 40))
            sp = integer_graph(rng, n)
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

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_nonpositive_radius_passes(self, monkeypatch, dense):
        # every open ball of radius <= 0 is empty, on either lane
        if not dense:
            monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        sp = path_space(5)
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

    def test_empty_family_member_rejected(self, p10):
        with pytest.raises(EmptySetError):
            CoverFamily((PointSubset(()),))
