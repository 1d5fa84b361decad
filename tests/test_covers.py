import math

import numpy as np
import pytest

from coarsecert.covers import (
    DecompositionTree,
    brick_tree,
    greedy_decomposition,
    net_ball_levels,
    point_finite_transform,
    tree_validate,
)
from coarsecert.errors import (
    ConstructionFailedError,
    InvalidInputError,
    NotACoverError,
    NotAGridError,
    NotTwoSDisjointError,
    ScaleTooSmallError,
)
from coarsecert import construct, covers, metric
from coarsecert.metric import PointSubset, load_matrix
from coarsecert.construct import (
    lebesgue_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)
from .conftest import path_space, with_table


def rng_of(*rs):
    return [PointSubset(tuple(range(lo, hi + 1))) for lo, hi in rs]


class TestGreedy:
    def test_nothing_conflicts(self, p10):
        # conflict radius below the minimum positive distance: one family
        families = greedy_decomposition(p10, R=0.5, target_diam=0.8)
        assert len(families) == 1
        assert [m.ids.tolist() for m in families[0]] == [[x] for x in range(10)]

    def test_p100_two_families(self, p100):
        families = greedy_decomposition(p100, R=2.0, target_diam=4.0)
        assert len(families) == 2
        pieces = sorted(m.ids.tolist() for fam in families for m in fam)
        assert pieces == [list(range(k, min(k + 3, 100))) for k in range(0, 100, 3)]
        for fam in families:
            assert r_disjoint_check(p100, fam, 2.0).passed
        assert uniformly_bounded_check(
            p100, [m for fam in families for m in fam]).bound <= 4.0

    def test_one_cross_minima_pass(self, monkeypatch):
        # the colouring's cross minima decide every family: no family is
        # re-checked through r_disjoint_check (construct.cross_minima)
        calls = {}
        for module in (covers, construct):
            def counted(*args, real=module.cross_minima, name=module.__name__):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            monkeypatch.setattr(module, "cross_minima", counted)
        families = greedy_decomposition(path_space(400), R=2.0, target_diam=4.0)
        assert len(families) == 2
        assert calls == {"coarsecert.covers": 1}

    def test_nan_diameter_rejected(self, p10):
        # a NaN radius claims no point, so the carving loop never ended
        with pytest.raises(InvalidInputError, match="target_diam"):
            greedy_decomposition(p10, R=1.0, target_diam=float("nan"))

    def test_nan_R_rejected(self, p10):
        # no cross minimum compares with NaN, so every piece would share one family
        with pytest.raises(InvalidInputError, match=r"^R = nan is not a number$"):
            greedy_decomposition(p10, R=float("nan"), target_diam=0.5)

    def test_singleton_pieces_match_chromatic_oracle(self, p10):
        # oracle: greedy coloring of the R-proximity graph on single points
        families = greedy_decomposition(p10, R=1.0, target_diam=0.5)
        assert all(len(m) == 1 for fam in families for m in fam)
        colors = {}
        for x in range(10):
            used = {colors[y] for y in range(x) if p10.d(x, y) <= 1.0}
            c = 0
            while c in used:
                c += 1
            colors[x] = c
        assert len(families) == max(colors.values()) + 1
        for fam in families:
            assert r_disjoint_check(p10, fam, 1.0).passed


class TestPointFiniteTransform:
    def test_single_level_multiplicity_one(self):
        # two clusters 10 apart; one 2-disjoint level covering everything
        m = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                same = (i < 3) == (j < 3)
                m[i, j] = abs(i - j) if same else 10.0 + abs((i % 3) - (j % 3))
        sp = load_matrix(m)
        level = [PointSubset((0, 1, 2)), PointSubset((3, 4, 5))]
        fam = point_finite_transform(sp, [level], s=1.0)
        assert multiplicity(sp, fam).maximum == 1
        # s-enlargements of 2s-disjoint sets stay disjoint
        assert [m_.ids.tolist() for m_ in fam.members] == [[0, 1, 2], [3, 4, 5]]

    def test_p20_two_level_instance(self, p20):
        # hand-enumerated: level-1 members enlarge to {0..4}, {9..14}; the
        # level-2 members lose those closed 1-neighborhoods and enlarge back
        levels = [rng_of((0, 3), (10, 13)), rng_of((4, 9), (14, 19))]
        fam = point_finite_transform(p20, levels, s=1.0)
        got = [m.ids.tolist() for m in fam.members]
        assert got == [list(range(0, 5)), list(range(9, 15)),
                       list(range(4, 10)), list(range(14, 20))]
        assert lebesgue_check(p20, fam, 1.0).passed
        assert multiplicity(p20, fam).maximum <= 2
        assert uniformly_bounded_check(p20, fam).bound <= 5.0 + 2.0

    def test_uncovered_point(self, p20):
        with pytest.raises(NotACoverError):
            point_finite_transform(p20, [rng_of((0, 3)), rng_of((10, 19))], s=1.0)

    def test_not_2s_disjoint(self, p20):
        # gap d(3,5)=2 <= 2s=2 inside one level
        with pytest.raises(NotTwoSDisjointError):
            point_finite_transform(p20, [rng_of((0, 3), (5, 19))], s=1.0)

    def test_net_ball_instances(self, p100):
        # canonical well-formed inputs: closed r-balls around a net, one
        # singleton family per ball
        levels = net_ball_levels(p100, net=range(2, 100, 5), r=3.0)
        fam = point_finite_transform(p100, levels, s=1.0)
        assert lebesgue_check(p100, fam, 1.0).passed
        assert multiplicity(p100, fam).maximum <= len(levels)

    def test_brick_families_break_the_precondition(self):
        # the root families of a p2000 brick tree are 2s-disjoint at s = 79.5
        # and jointly cover, but point 160 lies within s of the earlier-level
        # block 0..159, so no trimmed member keeps it and its ball escapes
        sp = path_space(2000)
        tree = brick_tree(sp, [159.0], 160.0)
        levels = [[tree.node(c).members for c in fam] for fam in tree.root.families]
        assert [m.ids[0] for m in levels[0][:2]] == [0, 320] and levels[1][0].ids[0] == 160
        with pytest.raises(ConstructionFailedError,
                           match="Lebesgue number < 79.5 at point 160"):
            point_finite_transform(sp, levels, s=79.5)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_scale_must_be_positive(self, p20, s):
        # s <= 0 is false for NaN, which the 2s-disjointness check would name as R
        with pytest.raises(InvalidInputError, match=f"scale s must be > 0, got {s!r}"):
            point_finite_transform(p20, [rng_of((0, 19))], s=s)

    def test_net_must_cover(self, p100):
        with pytest.raises(NotACoverError):
            net_ball_levels(p100, net=[0, 50], r=3.0)

    def test_nan_radius_refused(self, p5):
        # a NaN ball used to come back empty, read as "point 0 is not covered"
        with pytest.raises(InvalidInputError, match="ball radius must be >= 0, got nan"):
            net_ball_levels(p5, [0, 3], math.nan)


class TestBrickTree1D:
    def test_interval_families_match_expected(self):
        # blocks of 11 points alternate A/B; same-family gap 12 > 10
        sp = path_space(100)
        tree = brick_tree(sp, [10.0], 11.0)
        assert tree.m == 2 and tree.arity == (2,) and tree.radii == (10.0,)
        fams = tree.root.families
        mem = lambda ids: [tree.node(c).members.ids.tolist() for c in ids]
        assert mem(fams[0]) == [list(range(0, 11)), list(range(22, 33)),
                                list(range(44, 55)), list(range(66, 77)),
                                list(range(88, 99))]
        assert mem(fams[1]) == [list(range(11, 22)), list(range(33, 44)),
                                list(range(55, 66)), list(range(77, 88)),
                                [99]]
        check = tree_validate(sp, tree)
        assert check.passed
        assert check.leaf_bound == 10.0
        assert check.sfdc

    def test_bounded_space_trivial_tree(self):
        sp = path_space(8)
        tree = brick_tree(sp, [3.0], 11.0)
        assert tree.m == 1
        assert tree_validate(sp, tree).passed

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    def test_trivial_tree_up_to_the_diameter(self, monkeypatch, dense):
        # diameter 11: block_scale 11 gets the trivial tree, 10.5 does not;
        # the check reads rows cut off at block_scale, never a full row
        sp = path_space(12)
        if dense:  # the oracle lane: an all-pairs table built here
            sp = with_table(sp)
        assert sp.has_table == dense
        full = []
        compute_row = metric.FiniteMetricSpace._compute_row
        monkeypatch.setattr(metric.FiniteMetricSpace, "_compute_row",
                            lambda space, x: full.append(x) or compute_row(space, x))
        assert brick_tree(sp, [3.0], 11.0).m == 1
        assert brick_tree(sp, [3.0], 10.5).m == 2
        assert full == []

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "table-free"])
    @pytest.mark.parametrize("height", [1, 3, 64])
    def test_trivial_tree_iff_diameter_within_scale(self, monkeypatch, dense, height):
        # a 30-point path has diameter 29: the trivial tree exactly when
        # block_scale >= 29, whether a block's ball misses a point (small
        # scales) or its rows reach past block_scale (scales near 29)
        sp = path_space(30)
        if dense:  # the oracle lane: an all-pairs table built here
            sp = with_table(sp)
        monkeypatch.setattr(metric, "ROW_BLOCK_CELLS", height * 30)
        for scale in (2.0, 9.0, 15.0, 28.0, 28.5, 29.0, 29.5, 60.0):
            assert (brick_tree(sp, [1.0], scale).m == 1) == (scale >= 29.0)

    def test_scale_too_small(self):
        sp = path_space(100)
        with pytest.raises(ScaleTooSmallError):
            brick_tree(sp, [11.0], 11.0)

    def test_nan_block_scale_rejected(self):
        with pytest.raises(InvalidInputError, match="block_scale"):
            brick_tree(path_space(100), [11.0], float("nan"))

    def test_not_a_grid(self):
        sp = load_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(NotAGridError):
            brick_tree(sp, [1.0], 2.0)

    def test_huge_grid_shape_refused(self):
        # a shape whose product is not n is refused before a block is laid out
        sp = path_space(10)
        sp.meta["grid_shape"] = [1e30]
        with pytest.raises(NotAGridError, match=r"grid_shape \[1e\+30\]"):
            covers._grid_shape(sp)


class TestBrickTree2D:
    def test_grid_three_families(self, grid20):
        tree = brick_tree(grid20, [3.0], 8.0)
        assert tree.m == 2 and tree.arity == (3,)
        assert len(tree.root.families) == 3
        check = tree_validate(grid20, tree)
        assert check.passed
        for fam in tree.root.families:
            members = [tree.node(c).members for c in fam]
            assert r_disjoint_check(grid20, members, 3.0).passed

    def test_grid_scale_too_small(self, grid20):
        with pytest.raises(ScaleTooSmallError):
            brick_tree(grid20, [6.0], 8.0)  # same-family gap 8//2+2 = 6 <= 6


class TestTreeValidate:
    def test_m1_tree(self, p10):
        tree = brick_tree(path_space(10), [1.0], 20.0)
        assert tree.m == 1
        assert tree_validate(p10, tree).passed

    def test_interval_tree_radius_boundary(self):
        # family gap is exactly 12: declared radius 11 still passes (strict
        # inequality), 12 fails with the gap pair as witness
        sp = path_space(100)
        tree = brick_tree(sp, [10.0], 11.0)
        ok = DecompositionTree(m=2, arity=(2,), radii=(11.0,), nodes=tree.nodes)
        assert tree_validate(sp, ok).passed
        bad = DecompositionTree(m=2, arity=(2,), radii=(12.0,), nodes=tree.nodes)
        rep = tree_validate(sp, bad)
        assert not rep.passed
        assert rep.failed_clause == "2"
        assert "d(10,22)=12" in rep.witness

    def test_root_must_be_whole_space(self, p10):
        from coarsecert.covers import TreeNode
        nodes = [TreeNode(id=0, level=1, members=PointSubset(tuple(range(9))))]
        rep = tree_validate(p10, DecompositionTree(m=1, arity=(), radii=(), nodes=nodes))
        assert not rep.passed
        assert rep.failed_clause == "1"

    def test_family_count_exceeds_arity(self, p10):
        from coarsecert.covers import TreeNode
        leaves = [TreeNode(id=i + 1, level=2, members=PointSubset((j,)))
                  for i, j in enumerate(range(10))]
        root = TreeNode(id=0, level=1, members=p10.all_points(),
                        families=[[leaf.id] for leaf in leaves])
        tree = DecompositionTree(m=2, arity=(2,), radii=(1.0,), nodes=[root] + leaves)
        rep = tree_validate(p10, tree)
        assert not rep.passed
        assert rep.failed_clause == "2"
        assert "families" in rep.witness

    def test_union_mismatch(self, p10):
        from coarsecert.covers import TreeNode
        leaf = TreeNode(id=1, level=2, members=PointSubset(tuple(range(5))))
        root = TreeNode(id=0, level=1, members=p10.all_points(), families=[[1]])
        tree = DecompositionTree(m=2, arity=(2,), radii=(1.0,), nodes=[root, leaf])
        rep = tree_validate(p10, tree)
        assert not rep.passed
        assert rep.failed_clause == "2"
        assert "union" in rep.witness

    def test_wsfdc_single_space_tree_validates(self, p10):
        # a single-space nested family with overlapping families is a valid
        # tree: families need not partition the node
        from coarsecert.covers import TreeNode
        left = TreeNode(id=1, level=2, members=PointSubset(tuple(range(6))))
        right = TreeNode(id=2, level=2, members=PointSubset(tuple(range(4, 10))))
        root = TreeNode(id=0, level=1, members=p10.all_points(),
                        families=[[1], [2]])
        tree = DecompositionTree(m=2, arity=(2,), radii=(5.0,), nodes=[root, left, right])
        assert tree_validate(p10, tree).passed
