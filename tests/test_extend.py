import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecert import metric
from coarsecert.covers import DecompositionTree, TreeNode, brick_tree, tree_validate
from coarsecert.errors import (
    BadEpsilonError,
    BudgetTooSmallError,
    EmptySetError,
    InvalidInputError,
    PreconditionViolatedError,
    ScheduleMismatchError,
    UnderflowError_,
)
from coarsecert.extend import (
    Modulus,
    _alpha_blend,
    budget_schedule,
    build_certificate,
    default_modulus,
    extend_over_bounded_piece,
    extend_over_disjoint_family,
    extend_pou,
    measured_bound,
    parse_modulus,
    paste,
)
from coarsecert.metric import PointSubset
from coarsecert.construct import VertexMint, dist_to_set_all, simplicial_retraction
from coarsecert.simplex import PartitionOfUnity
from coarsecert.verify import cobounded_check, lipschitz_check
from .conftest import grid_space, path_space, weighted_graph
from .genutil import blend_point, random_lipschitz_pou, random_subset, uniform


def dummy_tree(arity):
    """Structure-only tree for schedule arithmetic (nodes unused)."""
    root = TreeNode(id=0, level=1, members=PointSubset((0,)))
    return DecompositionTree(m=len(arity) + 1, arity=tuple(arity),
                             radii=tuple(1.0 for _ in arity), nodes=[root])


class TestDefaultModulus:
    def test_paper_values_rational_oracle(self):
        # oracle: substitute r = 8/eps into eps/(4r+7) and eps/4, take min
        E = default_modulus()
        for eps_q in (Fraction(1), Fraction(2), Fraction(1, 2)):
            r = 8 / eps_q
            expect = min(eps_q / 4, eps_q / (4 * r + 7))
            assert expect == eps_q * eps_q / (32 + 7 * eps_q)
            got = E(float(eps_q))
            assert abs(got - float(expect)) < 1e-17
        assert Fraction(1) ** 2 / (32 + 7 * Fraction(1)) == Fraction(1, 39)
        assert Fraction(2) ** 2 / (32 + 7 * Fraction(2)) == Fraction(2, 23)
        assert E(1.0) == 1.0 / 39.0
        assert E(2.0) == 2.0 / 23.0

    def test_contraction(self):
        E = default_modulus()
        for eps in (0.01, 0.1, 1.0):
            assert 0.0 < E(eps) < eps

    def test_linear_needs_c_above_one(self):
        with pytest.raises(InvalidInputError):
            Modulus(kind="linear", c=1.0)
        assert Modulus(kind="linear", c=4.0)(1.0) == 0.25

    def test_parse(self):
        assert parse_modulus("paper").kind == "paper"
        assert parse_modulus("linear:3").c == 3.0
        with pytest.raises(InvalidInputError):
            parse_modulus("cubic")

    @pytest.mark.parametrize("spec, reason", [
        ("linear:abc", "could not convert string to float: 'abc'"),
        ("linear:", "could not convert string to float: ''"),
        ("linear:inf", "linear modulus needs a finite c > 1, got inf"),
        ("linear:1e400", "linear modulus needs a finite c > 1, got inf"),
        ("linear:nan", "linear modulus needs a finite c > 1, got nan"),
    ])
    def test_parse_names_bad_spec(self, spec, reason):
        # c = inf would make every budget 0 and fail later as an underflow
        with pytest.raises(InvalidInputError) as err:
            parse_modulus(spec)
        assert str(err.value) == f"modulus spec {spec!r}: {reason}"

    def test_power_matches_composition(self):
        E = default_modulus()
        x = 1.0
        for k in range(5):
            assert E.power(1.0, k) == pytest.approx(x, rel=1e-12)
            x = E(x)

    def test_power_underflow(self):
        with pytest.raises(UnderflowError_):
            default_modulus().power(1.0, 8)

    def test_overflow_raises(self):
        # eps*eps and 7*eps overflow to inf long before the true value would
        with pytest.raises(InvalidInputError):
            Modulus("paper").power(1e308, 1)
        with pytest.raises(InvalidInputError):
            Modulus("paper")(1e200)
        with pytest.raises(InvalidInputError):
            Modulus("linear", 2.0)(float("inf"))


class TestPaste:
    def test_whole_space_is_identity(self, p10):
        rng = np.random.default_rng(0)
        f = random_lipschitz_pou(p10, range(10), 0.05, rng)
        g = PartitionOfUnity.constant(p10, p10.all_points(), (9, 0))
        h = paste(f, g, r=8.0, epsilon=1.0, delta=0.02, check_inputs=False)
        assert all(h(x) == f(x) for x in range(10))

    def test_single_point_formula(self, p100):
        # h(x) = {w: a(x), v: 1-a(x)} with a(x) = min(d(x, 0)/r, 1)
        f = PartitionOfUnity(p100, {0: {(1, 0): 1.0}})
        g = PartitionOfUnity.constant(p100, p100.all_points(), (2, 0))
        r, eps = 16.0, 0.5
        delta = min(eps / 3 - 2 / (3 * r), eps / (4 * r + 7))
        h = paste(f, g, r, eps, delta, check_inputs=False)
        for x in range(100):
            alpha = min(x / r, 1.0)
            expect = {}
            if alpha > 0:
                expect[(2, 0)] = alpha
            if alpha < 1:
                expect[(1, 0)] = 1.0 - alpha
            got = h(x)
            assert set(got) == set(expect)
            for v, w in expect.items():
                assert got[v] == pytest.approx(w, abs=1e-15)

    def test_exact_off_neighborhood(self, p100):
        rng = np.random.default_rng(1)
        f = random_lipschitz_pou(p100, range(10), 0.01, rng, namespace=1)
        g = random_lipschitz_pou(p100, range(100), 0.01, rng, namespace=2)
        h = paste(f, g, r=20.0, epsilon=1.0, delta=0.01, check_inputs=False)
        dist = dist_to_set_all(p100, f.domain)
        for x in range(100):
            if dist[x] >= 20.0:
                assert h(x) == g(x)

    def test_precondition_names(self, p10):
        f = PartitionOfUnity(p10, {0: {(1, 0): 1.0}})
        g = PartitionOfUnity.constant(p10, p10.all_points(), (2, 0))
        with pytest.raises(PreconditionViolatedError, match="4/epsilon"):
            paste(f, g, r=3.0, epsilon=1.0, delta=0.001, check_inputs=False)
        with pytest.raises(PreconditionViolatedError, match="epsilon/3"):
            paste(f, g, r=8.0, epsilon=1.0, delta=0.3, check_inputs=False)
        with pytest.raises(PreconditionViolatedError, match="4r\\+7"):
            paste(f, g, r=8.0, epsilon=1.0, delta=0.05, check_inputs=False)
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(BadEpsilonError, match=f"got {eps!r}"):
                paste(f, g, r=8.0, epsilon=eps, delta=0.01, check_inputs=False)
        with pytest.raises(PreconditionViolatedError, match="r=nan"):
            paste(f, g, r=math.nan, epsilon=1.0, delta=0.01, check_inputs=False)
        for check in (True, False):
            with pytest.raises(PreconditionViolatedError, match="delta=nan"):
                paste(f, g, r=8.0, epsilon=1.0, delta=math.nan, check_inputs=check)
        p12 = path_space(12)
        with pytest.raises(InvalidInputError, match="same space"):
            paste(f, PartitionOfUnity.constant(p12, p12.all_points(), (2, 0)), 8.0, 1.0, 0.01)

    def test_lipschitz_precondition_enforced(self, p10):
        f = PartitionOfUnity(p10, {0: {(1, 0): 1.0},
                                   1: {(1, 1): 1.0}})
        g = PartitionOfUnity.constant(p10, p10.all_points(), (2, 0))
        with pytest.raises(PreconditionViolatedError, match="Lipschitz"):
            paste(f, g, r=8.0, epsilon=1.0, delta=1.0 / 39, check_inputs=True)

    def test_empty_subset(self, p10):
        g = PartitionOfUnity.constant(p10, p10.all_points(), (2, 0))
        with pytest.raises(EmptySetError):
            paste(PartitionOfUnity.empty(p10), g, 8.0, 1.0, 0.01)

    def test_seeded_instances_pass_conclusion(self, p200):
        # pasting-bound property at desk scale (the 100-case suite is in
        # the acceptance module)
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            eps = float(rng.uniform(0.4, 1.2))
            r = 4.0 / eps * float(rng.uniform(1.0, 2.0))
            delta = min(eps / 3 - 2 / (3 * r), eps / (4 * r + 7), 0.05) * 0.9
            a = random_subset(200, int(rng.integers(30, 80)), rng)
            f = random_lipschitz_pou(p200, a.ids, delta, rng, namespace=1)
            g = random_lipschitz_pou(p200, range(200), delta, rng, namespace=2)
            h = paste(f, g, r, eps, delta)
            assert lipschitz_check(h, eps, eps).passed
            m = max(measured_bound(f), measured_bound(g))
            assert measured_bound(h) <= m + 2 * r + 2 + 1e-9


class TestExtendPou:
    def test_whole_domain_identity(self, p10):
        rng = np.random.default_rng(2)
        f = random_lipschitz_pou(p10, range(10), 0.05, rng)
        assert extend_pou(f, 1.0, mint=VertexMint(), check_inputs=False) is f

    def test_constant_input_formula(self, p100):
        a = PointSubset((10, 11, 12))
        f = PartitionOfUnity.constant(p100, a, (1, 0))
        mint = VertexMint(start=77)
        g = extend_pou(f, 1.0, target=None, mint=mint, check_inputs=False)
        r = 8.0
        dist = dist_to_set_all(p100, a)
        for x in range(100):
            alpha = min(dist[x] / r, 1.0)
            got = g(x)
            assert got.get((77, 0), 0.0) == pytest.approx(alpha, abs=1e-15)
            assert got.get((1, 0), 0.0) == pytest.approx(1 - alpha, abs=1e-15)
        assert lipschitz_check(g, 1.0, 1.0).passed

    def test_extends_exactly(self, p100):
        rng = np.random.default_rng(3)
        a = random_subset(100, 40, rng)
        f = random_lipschitz_pou(p100, a.ids, 1 / 39, rng)
        g = extend_pou(f, 1.0, mint=VertexMint())
        assert all(g(x) == f(x) for x in a.ids)

    def test_rejects_non_lipschitz_input(self, p10):
        f = PartitionOfUnity(p10, {0: {(1, 0): 1.0},
                                   1: {(1, 1): 1.0}})
        with pytest.raises(PreconditionViolatedError):
            extend_pou(f, 1.0, mint=VertexMint())

    def test_bad_epsilon_named(self, p10):
        # as paste: a NaN epsilon is refused before the modulus reads it
        f = PartitionOfUnity(p10, {0: {(1, 0): 1.0}})
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(BadEpsilonError, match=f"got {eps!r}"):
                extend_pou(f, eps, mint=VertexMint(), check_inputs=False)

    def test_seeded_instances(self, p100):
        E = default_modulus()
        mint = VertexMint()
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            eps = float(rng.choice([0.5, 1.0]))
            a = random_subset(100, int(rng.integers(2, 60)), rng)
            f = random_lipschitz_pou(p100, a.ids, E(eps), rng)
            g = extend_pou(f, eps, mint=mint)
            assert lipschitz_check(g, eps, eps).passed


class TestExtendOverBoundedPiece:
    @pytest.mark.parametrize("piece_bound", [None, 5.0])
    @pytest.mark.parametrize("ids, bad", [((7, 12), 12), ((-1, 7), -1)])
    def test_piece_outside_space_named(self, p10, ids, bad, piece_bound):
        f = PartitionOfUnity(p10, {0: {(1, 0): 1.0}})
        with pytest.raises(InvalidInputError, match=f"point id {bad} outside"):
            extend_over_bounded_piece(f, PointSubset(ids), 5.0, 0.5, mint=VertexMint(),
                                      piece_bound=piece_bound)

    def test_empty_input_branch1(self, p200):
        piece = PointSubset(tuple(range(150, 161)))
        f = PartitionOfUnity.empty(p200)
        g, bound, branch = extend_over_bounded_piece(
            f, piece, r_m=50.0, budget=0.5, mint=VertexMint(start=5))
        assert branch == 1
        assert bound == 10.0  # input 0 + piece diameter
        assert all(g(x) == {(5, 0): 1.0} for x in piece.ids)

    def test_far_piece_branch1(self, p200):
        rng = np.random.default_rng(6)
        f = random_lipschitz_pou(p200, range(50), 0.01, rng)
        piece = PointSubset(tuple(range(150, 161)))
        # d(49, 150) = 101 >= 50: the open neighborhood misses the domain
        g, bound, branch = extend_over_bounded_piece(f, piece, 50.0, 0.5, mint=VertexMint(),
                                                     input_bound=measured_bound(f))
        assert branch == 1
        assert g.domain == piece  # the piece's new points only
        g = f.merged_with(g)
        assert all(g(x) == f(x) for x in range(50))

    def test_nan_budget_named(self, p200):
        # the gate budget >= 2/(r_m + 1) fails NaN before either branch runs:
        # a far piece (branch 1) as well as a near one
        f = PartitionOfUnity(p200, {x: {(1, 0): 1.0} for x in range(50)})
        for piece in (PointSubset(tuple(range(150, 161))), PointSubset(tuple(range(60, 71)))):
            with pytest.raises(PreconditionViolatedError, match="budget=nan"):
                extend_over_bounded_piece(f, piece, 50.0, math.nan, mint=VertexMint())

    def test_near_piece_branch2(self, p200):
        rng = np.random.default_rng(7)
        delta = default_modulus()(0.5)
        f = random_lipschitz_pou(p200, range(50), delta, rng)
        piece = PointSubset(tuple(range(60, 71)))
        g, bound, branch = extend_over_bounded_piece(f, piece, 50.0, 0.5, mint=VertexMint())
        assert branch == 2
        assert g.domain == piece  # the piece's new points only
        g = f.merged_with(g)
        assert all(g(x) == f(x) for x in range(50))
        assert lipschitz_check(g, 0.5, 0.5).passed
        k_in = measured_bound(f)
        assert bound == pytest.approx(k_in + 10.0 + 50.0)
        assert cobounded_check(g, bound).passed

    def test_branch2_carrier_stays_old(self, p200):
        # every new vertex is retracted away: the output carrier is f's
        rng = np.random.default_rng(8)
        f = random_lipschitz_pou(p200, range(50), 0.01, rng, namespace=3)
        piece = PointSubset(tuple(range(60, 71)))
        g, _, branch = extend_over_bounded_piece(f, piece, 50.0, 0.5, mint=VertexMint())
        assert branch == 2
        assert set(g.carrier()) <= set(f.carrier())


def whole_domain_extension(f, piece, r_m, budget, mint):
    """(pou, branch): a piece extension computed the way it was before it went
    piece-local, over f's whole domain.

    Branch 2 extends f over its domain and the piece with extend_pou, then
    retracts the carrier over the piece's open r_m-neighborhood onto the
    carrier of f there, sending every other vertex to its least vertex.
    """
    dist_piece = dist_to_set_all(f.space, piece, r_m)
    a_near = [x for x in f.domain.ids if dist_piece[x] < r_m]
    if not a_near:
        new = PointSubset(tuple(x for x in piece.ids if x not in f))
        return f.merged_with(PartitionOfUnity.constant(f.space, new, (mint.namespace(), 0))), 1
    target = PointSubset(np.concatenate((f.domain.ids, piece.ids)))
    g = extend_pou(f, budget, target=target, mint=mint, check_inputs=False)
    region = PointSubset(tuple(x for x in target.ids if dist_piece[x] < r_m))
    s1 = set().union(*(f(x) for x in a_near))
    s2 = set().union(*(g(x) for x in region.ids))
    retract = {v: (v if v in s1 else min(s1)) for v in s2}
    return simplicial_retraction(g, retract, region), 2


class TestPieceLocalExtension:
    @given(st.integers(2, 24), st.integers(0, 10_000), st.booleans(), st.booleans(),
           st.sampled_from(["any", "inside", "far"]))
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_to_whole_domain_formula(self, n, seed, integral, table, layout):
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral, table)
        a = rng.choice(n, size=int(rng.integers(0 if layout == "any" else 1, n + 1)),
                       replace=False)
        rest = np.setdiff1d(np.arange(n), a)
        if layout == "inside" or (layout == "far" and not len(rest)):
            pool = a
        else:
            pool = rest if layout == "far" else np.arange(n)
        piece = PointSubset(tuple(rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                                             replace=False)))
        vertices = [(0, k) for k in range(4)]
        f = PartitionOfUnity(sp, {int(x): uniform(
            [vertices[k] for k in rng.choice(4, size=int(rng.integers(1, 5)), replace=False)])
            for x in a})
        r_m = float(rng.uniform(0.01, 1.5)) * sp.diameter()
        if layout == "far" and len(a) and not set(piece.ids) & set(a.tolist()):
            # at most the gap, so the open neighborhood misses the domain
            r_m = float(dist_to_set_all(sp, piece)[a].min()) * float(rng.choice([0.5, 1.0]))
        budget = 2.0 / (r_m + 1.0) * 2.0 ** float(rng.uniform(0.0, 6.0))  # r = 8/budget

        mint_old, mint_new = VertexMint(start=7), VertexMint(start=7)
        expect, branch_old = whole_domain_extension(f, piece, r_m, budget, mint_old)
        g, bound, branch = extend_over_bounded_piece(f, piece, r_m, budget, mint=mint_new,
                                                     piece_bound=1.0, input_bound=2.0)
        assert branch == branch_old
        assert bound == (3.0 + r_m if branch == 2 else 3.0)
        assert set(g.domain.ids) == set(piece.ids) - set(a.tolist())
        got = f.merged_with(g)
        assert np.array_equal(got.domain.ids, expect.domain.ids)
        assert all(got(x) == expect(x) for x in expect.domain.ids)  # weights compared exactly
        assert all(got(x) == f(x) for x in f.domain.ids)
        assert mint_new.namespace() == mint_old.namespace()

    def test_no_whole_domain_pou_per_piece(self, monkeypatch):
        # each near piece used to build three pous over the whole domain (the
        # constant target, the blend and the retraction); now each family's
        # glue builds the only one
        n = 1200
        tree = brick_tree(path_space(n), [79.0], 80.0)
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        sp = path_space(n)
        assert not sp.has_table
        sizes = []
        init = PartitionOfUnity.__init__

        def recorded(self, space, assignment):
            sizes.append(len(assignment))
            init(self, space, assignment)

        monkeypatch.setattr(PartitionOfUnity, "__init__", recorded)
        res = build_certificate(sp, tree, 0.4, parse_modulus("linear:4"))
        assert res.branch_counts["branch2"] > 0
        families = sum(len(nd.families) for nd in tree.nodes)
        assert sum(size >= n / 2 for size in sizes) <= families + 2


class TestExtendOverDisjointFamily:
    def test_empty_family(self, p200):
        rng = np.random.default_rng(9)
        f = random_lipschitz_pou(p200, range(20), 0.01, rng)
        h, bound = extend_over_disjoint_family(
            f, [], R=10.0, budget=0.5, extender=None)
        assert h is f

    def test_two_far_pieces_glue(self, p400):
        rng = np.random.default_rng(10)
        delta = default_modulus()(0.5)
        f = random_lipschitz_pou(p400, range(40), delta, rng)
        pieces = [PointSubset(tuple(range(100, 121))),
                  PointSubset(tuple(range(300, 321)))]
        R = 100.0
        budget = 2.0 / (R + 1.0) * 30  # comfortably above the floor
        mint = VertexMint(start=100)

        def extender(ff, t, u):
            return extend_over_bounded_piece(ff, pieces[t], 50.0, u, mint=mint,
                                             input_bound=measured_bound(ff))

        h, bound = extend_over_disjoint_family(f, pieces, R, budget, extender)
        assert lipschitz_check(h, budget, budget).passed
        assert set(h.domain.ids) == set(range(40)) | set(pieces[0].ids) | set(pieces[1].ids)

    def test_single_piece_equals_piece_extension(self, p200):
        rng = np.random.default_rng(11)
        delta = default_modulus()(0.5)
        f = random_lipschitz_pou(p200, range(40), delta, rng)
        piece = PointSubset(tuple(range(100, 121)))
        mint_a, mint_b = VertexMint(start=40), VertexMint(start=40)
        direct, _, _ = extend_over_bounded_piece(f, piece, 50.0, 0.5, mint=mint_a)
        direct = f.merged_with(direct)
        glued, _ = extend_over_disjoint_family(
            f, [piece], R=10.0, budget=0.5,
            extender=lambda ff, t, u: extend_over_bounded_piece(
                ff, piece, 50.0, u, mint=mint_b))
        assert all(glued(x) == direct(x)
                   for x in glued.domain.ids)

    def test_budget_too_small(self, p200):
        f = PartitionOfUnity(p200, {0: {(1, 0): 1.0}})
        pieces = [PointSubset((50, 51)), PointSubset((150, 151))]
        with pytest.raises(BudgetTooSmallError):
            extend_over_disjoint_family(f, pieces, R=90.0, budget=0.01, extender=None)

    @pytest.mark.parametrize("recorded", [None, []])
    def test_nan_budget_refused(self, p200, recorded):
        # NaN passes no gate, and a warning list does not take it either
        f = PartitionOfUnity(p200, {0: {(1, 0): 1.0}})
        pieces = [PointSubset((50, 51)), PointSubset((150, 151))]
        with pytest.raises(BudgetTooSmallError, match="budget nan"):
            extend_over_disjoint_family(f, pieces, R=90.0, budget=math.nan, extender=None,
                                        budget_warnings=recorded)
        assert not recorded

    def test_budget_too_small_recorded(self, p200):
        f = PartitionOfUnity(p200, {0: {(1, 0): 1.0}})
        pieces = [PointSubset((50, 51)), PointSubset((150, 151))]
        warnings = []
        h, _ = extend_over_disjoint_family(
            f, pieces, R=90.0, budget=0.01, budget_warnings=warnings,
            extender=lambda ff, t, u: (PartitionOfUnity.constant(ff.space, pieces[t], (2 + t, 0)), 1.0))
        assert warnings == [{"budget": 0.01, "required": 2.0 / 91.0, "R": 90.0}]
        assert h.domain.ids.tolist() == [0, 50, 51, 150, 151]

    def test_carrier_collision_caught(self, p200):
        # an extender that reuses one namespace across pieces violates the
        # carrier discipline and must be stopped before the glue
        from coarsecert.errors import VerificationFailedError
        f = PartitionOfUnity(p200, {0: {(1, 0): 1.0}})
        pieces = [PointSubset((50, 51)), PointSubset((150, 151))]

        def bad_extender(ff, t, u):
            return ff.merged_with(PartitionOfUnity.constant(ff.space, pieces[t], (99, 0))), 1.0

        with pytest.raises(VerificationFailedError, match="carrier"):
            extend_over_disjoint_family(f, pieces, R=90.0, budget=1.9,
                                        extender=bad_extender)


class TestBudgetSchedule:
    def test_m1_tree(self):
        sch = budget_schedule(dummy_tree(()), 0.7, default_modulus())
        assert sch.R_required == ()
        assert sch.N == (0,) and sch.P == (1,)
        assert sch.delta_leaf == 0.7
        assert sch.bottom == (0.7,)

    def test_arities_2_3(self):
        # oracle: direct recursion from the two formulas
        sch = budget_schedule(dummy_tree((2, 3)), 1.0, Modulus("linear", c=2.0))
        assert sch.N == (0, 2, 6)
        assert sch.P == (6, 3, 1)

    def test_paper_mode_r2(self):
        E = default_modulus()
        sch = budget_schedule(dummy_tree((2,)), 1.0, E, "paper")
        assert sch.N == (0, 2)
        e2 = E(E(1.0))  # independent composition
        assert abs(e2 - float(Fraction(1, 48945))) < 1e-12
        assert e2 == pytest.approx(2.0431e-5, rel=1e-3)
        assert sch.R_required[1] == pytest.approx(2.0 / e2 - 1.0, abs=1e-9)
        assert sch.R_required[0] == pytest.approx(1.0)  # N_1 = 0: identity

    def test_conservative_uniform(self):
        lin = Modulus("linear", c=4.0)
        sch = budget_schedule(dummy_tree((2,)), 0.2, lin, "conservative")
        assert sch.P == (2, 1)
        assert sch.R_required == (159.0, 159.0)  # 2/(0.2/16) - 1
        assert sch.bottom == (0.2, 0.05)
        assert sch.delta_leaf == 0.05

    def test_bad_epsilon(self):
        for eps in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(BadEpsilonError):
                budget_schedule(dummy_tree((2,)), eps, default_modulus())

    def test_underflow_names_level(self):
        with pytest.raises(UnderflowError_) as err:
            budget_schedule(dummy_tree((8,)), 1.0, default_modulus())
        assert err.value.level == 2
        assert str(err.value) == ("budget underflow at level 2; consider a linear modulus "
                                  "(E^k(1.0) below 1e-300)")

    def test_deep_tree_linear_modulus_survives(self):
        sch = budget_schedule(dummy_tree((2, 2, 2, 2)), 1.0, Modulus("linear", c=4.0))
        assert sch.P[0] == 16
        assert sch.delta_leaf == pytest.approx(1.0 / 4 ** 15)


class TestBuildCertificate:
    def test_m1_constant_certificate(self):
        sp = path_space(30)
        tree = brick_tree(sp, [1.0], 40.0)
        res = build_certificate(sp, tree, 0.5)
        assert res.passed
        assert len(res.pou.carrier()) == 1
        assert res.bound == 29.0  # the leaf diameter
        assert res.branch_counts == {"branch1": 1, "branch2": 0}
        # constant certificate: worst slack is eps*d_min + eps over checked pairs
        assert res.lipschitz.worst_slack == pytest.approx(0.5 * 1 + 0.5)

    def test_small_e2e(self, p400):
        lin = Modulus("linear", c=4.0)
        tree = brick_tree(p400, [80.0], 81.0)
        res = build_certificate(p400, tree, 0.4, lin)
        assert res.passed
        assert res.branch_counts["branch1"] > 0
        assert res.branch_counts["branch2"] > 0
        # independent re-verification, full mode
        assert lipschitz_check(res.pou, 0.4, 0.4, mode="full").passed
        assert measured_bound(res.pou) <= res.bound

    def test_no_membership_test_per_point(self, monkeypatch):
        # the table-free bench lane's path and tree: point sets are tested as
        # arrays, never one point at a time
        sp = path_space(6000)
        tree = brick_tree(sp, [159.0], 160.0)
        calls = []

        def counted(inner):
            def call(*args):
                calls.append(inner.__qualname__)
                return inner(*args)
            return call

        for cls, name in ((PartitionOfUnity, "__contains__"), (PointSubset, "__contains__"),
                          (PointSubset, "__iter__")):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
        res = build_certificate(sp, tree, 0.2, parse_modulus("linear:4"))
        assert res.passed and res.branch_counts["branch2"] > 0
        assert calls == []

    def test_schedule_mismatch(self, p400):
        lin = Modulus("linear", c=4.0)
        tree = brick_tree(p400, [80.0], 81.0)  # required R = 2/(0.4/16)-1 = 79
        with pytest.raises(ScheduleMismatchError):
            build_certificate(p400, tree, 0.2, lin)  # now requires 159

    def test_paper_mode_runs_with_warnings(self, p400):
        # radii tight against the paper-mode requirement (R_1 = 2/eps - 1 = 1):
        # the first-family glue runs at E(eps) < 2/(R+1), which conservative
        # mode would reject; paper mode records it and the verifier decides
        tree = brick_tree(p400, [2.0], 3.0)
        res = build_certificate(p400, tree, 1.0, default_modulus(), "paper")
        assert res.passed
        assert res.budget_warnings
        with pytest.raises(ScheduleMismatchError):
            build_certificate(p400, tree, 1.0, default_modulus(), "conservative")

    def test_bad_epsilon(self, p400):
        tree = brick_tree(p400, [80.0], 81.0)
        with pytest.raises(BadEpsilonError):
            build_certificate(p400, tree, 2.0)

    def test_deterministic_rebuild(self, p400):
        from coarsecert.jsonio import pou_to_json
        lin = Modulus("linear", c=4.0)
        tree = brick_tree(p400, [80.0], 81.0)
        a = build_certificate(p400, tree, 0.4, lin)
        b = build_certificate(p400, tree, 0.4, lin)
        assert pou_to_json(a.pou) == pou_to_json(b.pou)
        assert a.report_json() == b.report_json()

    def test_grid_e2e(self):
        sp = grid_space(16, 16)
        lin = Modulus("linear", c=2.0)
        # conservative R for eps=0.5, P1 = 3: 2/(0.5/8) - 1 = 31; too big for
        # a 16x16 grid (diam 30), so the trivial depth-1 tree applies
        tree = brick_tree(sp, [6.0], 40.0)
        assert tree.m == 1
        res = build_certificate(sp, tree, 0.5, lin)
        assert res.passed

    def test_depth_three_tree(self, p400):
        # hand-built m=3 tree: the root splits into two single-member
        # families (halves), each half splits into two families of
        # alternating 40-point blocks with same-family gaps of 41
        halves = [(0, 200), (200, 400)]
        nodes = [TreeNode(id=0, level=1, members=p400.all_points())]
        nid = 1
        half_ids = []
        for lo, hi in halves:
            nodes.append(TreeNode(id=nid, level=2,
                                  members=PointSubset(tuple(range(lo, hi)))))
            half_ids.append(nid)
            nid += 1
        nodes[0].families = [[half_ids[0]], [half_ids[1]]]
        for h, (lo, hi) in zip(half_ids, halves):
            fams = ([], [])
            for b, blo in enumerate(range(lo, hi, 40)):
                nodes.append(TreeNode(
                    id=nid, level=3,
                    members=PointSubset(tuple(range(blo, min(blo + 40, hi))))))
                fams[b % 2].append(nid)
                nid += 1
            nodes[h].families = [list(fams[0]), list(fams[1])]
        tree = DecompositionTree(m=3, arity=(2, 2), radii=(39.0, 39.0), nodes=nodes)
        from coarsecert.covers import tree_validate
        assert tree_validate(p400, tree).passed

        lin = Modulus("linear", c=2.0)
        sch = budget_schedule(tree, 0.8, lin)
        assert sch.P == (4, 2, 1)
        assert sch.R_required == (39.0, 39.0, 39.0)  # 2/(0.8/16) - 1
        res = build_certificate(p400, tree, 0.8, lin)
        assert res.passed
        assert res.branch_counts["branch1"] > 0
        assert res.branch_counts["branch2"] > 0
        assert lipschitz_check(res.pou, 0.8, 0.8, mode="full").passed
        assert measured_bound(res.pou) <= res.bound


class TestPieceLocalBlend:
    @given(st.integers(2, 30), st.integers(0, 10_000), st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_full_domain_formula(self, n, seed, integral, table):
        rng = np.random.default_rng(seed)
        sp = weighted_graph(rng, n, integral, table)
        full = np.stack([sp.row(x) for x in range(n)])
        a = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        target = np.union1d(a, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))

        def simplex_point(namespace, k):
            picked = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            return uniform([(namespace, int(i)) for i in picked])

        f = PartitionOfUnity(sp, {int(x): simplex_point(0, 3) for x in a})
        g = PartitionOfUnity(sp, {int(x): simplex_point(1, 2) for x in target})
        r = float(rng.uniform(0.01, 1.2 * full.max()))
        # the blend before it went piece-local: every point of g's domain,
        # through the first minimum over all of a's full rows
        nearest = a[np.argmin(full[a], axis=0)]
        dist = full[a].min(axis=0)
        expect = {int(x): blend_point(min(dist[x] / r, 1.0), g(x), f(int(nearest[x])))
                  for x in target}
        got = f.merged_with(_alpha_blend(f, g, r))
        assert got.domain.ids.tolist() == list(expect)
        assert all(list(got(x).items()) == list(expect[x].items()) for x in expect)
        assert all(got(int(x)) == f(int(x)) for x in a)


class TestTableFreeRows:
    def test_full_rows_stay_few(self, monkeypatch):
        # tree validation and the restricted slack kernel used to compute a
        # full Dijkstra row for every point; now no full row is read: the
        # first point of each diameter (each piece's, in tree validation and
        # again in the build, and each star preimage's) reads its row cut off
        # at (|set| - 1) times the heaviest edge, which on a unit path holds
        # these intervals.  A unit path has exact sums, so its load reads no
        # rows at all
        n = 1200
        tree = brick_tree(path_space(n), [79.0], 80.0)  # the same tree, from a table
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
        sp = path_space(n)
        assert not sp.has_table
        computed, unlimited, searches = [], [], []
        compute_row, search = metric.FiniteMetricSpace._compute_row, metric.dijkstra

        def counted_row(space, x):
            computed.append(x)
            return compute_row(space, x)

        def counted_search(graph, **kw):
            searches.append(1)
            if kw.get("limit", math.inf) == math.inf and not kw.get("min_only"):
                unlimited.extend(np.atleast_1d(kw["indices"]).tolist())
            return search(graph, **kw)

        monkeypatch.setattr(metric.FiniteMetricSpace, "_compute_row", counted_row)
        monkeypatch.setattr(metric, "dijkstra", counted_search)
        assert tree_validate(sp, tree).passed
        res = build_certificate(sp, tree, 0.4, parse_modulus("linear:4"))
        rep = lipschitz_check(res.pou, 0.4, 0.4, mode="restricted")
        assert rep.passed and rep.to_json() == res.lipschitz.to_json()
        assert searches and computed == unlimited == []
