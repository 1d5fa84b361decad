import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecert import jsonio, metric
from coarsecert.errors import (
    EmptySetError,
    InvalidInputError,
    NotACoverError,
    NotARetractionError,
    SupportEscapesError,
)
from coarsecert.metric import PointSubset
from coarsecert.simplex import SUM_TOL, PartitionOfUnity, star_preimage_diameters
from coarsecert.construct import (
    VertexMint,
    barycentric_pou,
    convex_combine,
    lebesgue_check,
    simplicial_retraction,
)
from coarsecert.extend import extend_over_disjoint_family, measured_bound
from coarsecert.verify import cobounded_check

from .conftest import path_space
from .genutil import blend_point

A, B, C = (0, 0), (0, 1), (0, 2)


def l1(u, v):
    """Sum of |u(w) - v(w)| over the union of the supports."""
    return sum(abs(u.get(w, 0.0) - v.get(w, 0.0)) for w in set(u) | set(v))


def blend_rows(t, g, f, src):
    """convex_combine's rows, each a list of (vertex, weight) in entry order."""
    indptr, columns, verts, weights = convex_combine(
        np.array(t, dtype=float), g, f, np.array(src, dtype=np.intp))
    bounds = indptr.tolist()
    return [[(verts[j], w) for j, w in zip(columns[lo:hi].tolist(), weights[lo:hi].tolist())]
            for lo, hi in zip(bounds, bounds[1:])]


def simplex_points(max_verts=5):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_verts)
        .map(lambda ws: {(0, i): w / sum(ws) for i, w in enumerate(ws)})
    )


class TestWeightValidation:
    def message(self, space, weights):
        """The error for point 2's weights, between a good point and a bad one."""
        with pytest.raises(InvalidInputError) as err:
            PartitionOfUnity(space, {4: {A: 1.0}, 2: weights, 0: {A: 0.5}})
        return str(err.value)

    def test_must_sum_to_one(self, p5):
        assert self.message(p5, {A: 0.5, B: 0.4}) == "weights of point 2 sum to 0.9, not 1"

    def test_negative_weight(self, p5):
        assert (self.message(p5, {A: 1.5, B: -0.5})
                == "negative weight -0.5 on vertex 0:1 of point 2")

    def test_non_finite_weight(self, p5):
        assert (self.message(p5, {A: 1.0, B: math.inf, C: -0.5})
                == "non-finite weight inf on vertex 0:1 of point 2")

    @pytest.mark.parametrize("weights", [{A: 0.0, B: -0.0}, {}])
    def test_no_positive_weight(self, p5, weights):
        assert self.message(p5, weights) == "point 2 has no positive weight"

    def test_zero_weights_dropped(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 1.0, B: 0.0}, 1: {C: -0.0, A: 1.0}})
        assert f(0) == f(1) == {A: 1.0} and f.carrier() == (A,)


class TestConvexCombine:
    def test_endpoints_exact(self, p5):
        # rows that drift from 1, which a blend at 0 < t < 1 renormalizes, are copied
        g = PartitionOfUnity(p5, {0: {B: 0.5 + 4e-10, A: 0.5}, 1: {A: 0.25, C: 0.75}})
        f = PartitionOfUnity(p5, {3: {C: 0.75 + 4e-10, B: 0.25}})
        assert blend_rows([1.0, 0.0], g, f, [-1, 3]) == [[(B, 0.5 + 4e-10), (A, 0.5)],
                                                       [(C, 0.75 + 4e-10), (B, 0.25)]]

    def test_half(self, p5):
        g = PartitionOfUnity(p5, {0: {A: 1.0}})
        f = PartitionOfUnity(p5, {3: {B: 1.0}})
        assert blend_rows([0.5], g, f, [3]) == [[(A, 0.5), (B, 0.5)]]

    @given(st.floats(0, 1), simplex_points(), simplex_points())
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, p5, t, u, v):
        g, f = PartitionOfUnity(p5, {0: u}), PartitionOfUnity(p5, {1: v})
        (row,) = blend_rows([t], g, f, [1])
        assert abs(math.fsum(w for _, w in row) - 1.0) <= 1e-9

    @pytest.mark.parametrize("t", [1.5, -0.5, math.nan])
    def test_parameter_outside_unit_interval(self, p5, t):
        f = PartitionOfUnity(p5, {0: {A: 1.0}})
        with pytest.raises(InvalidInputError, match="outside \\[0, 1\\]"):
            convex_combine(np.array([t]), f, f, np.array([0]))

    def test_source_outside_f(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 1.0}})
        with pytest.raises(KeyError):
            convex_combine(np.array([0.5]), f, f, np.array([2]))


class TestPartitionOfUnity:
    def test_carrier(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        assert set(f.carrier()) == {A}

    def test_carrier_empty(self, p10):
        assert set(PartitionOfUnity.empty(p10).carrier()) == set()

    def test_carrier_two(self, p10):
        f = PartitionOfUnity(p10, {0: {A: 1.0},
                                   1: {A: 0.5, B: 0.5}})
        assert set(f.carrier()) == {A, B}

    def test_star_diams_constant(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        diams = star_preimage_diameters(f)
        assert f.carrier() == (A,) and diams.tolist() == [9.0]
        assert measured_bound(f) == 9.0

    def test_star_diams_barycentric_blocks(self, p10):
        # oracle: star preimages equal the cover members exactly, so both
        # diameters are diam({0..4}) = diam({5..9}) = 4 on the path
        f = barycentric_pou(p10, [PointSubset(tuple(range(5))),
                                  PointSubset(tuple(range(5, 10)))])
        diams = star_preimage_diameters(f)
        assert f.carrier() == ((0, 0), (0, 1)) and diams.tolist() == [4.0, 4.0]
        assert measured_bound(f) == 4.0

    def test_star_diams_single_point(self, p10):
        f = PartitionOfUnity(p10, {3: {A: 0.5, B: 0.5}})
        diams = star_preimage_diameters(f)
        assert f.carrier() == (A, B) and diams.tolist() == [0.0, 0.0]
        assert measured_bound(f) == 0.0


class TestSimplicialRetraction:
    def region(self, space):
        return space.all_points()

    def test_identity(self, p5):
        f = PartitionOfUnity(p5, {x: {A: 0.5, B: 0.5} for x in range(5)})
        out = simplicial_retraction(f, {A: A, B: B}, self.region(p5))
        assert all(out(x) == f(x) for x in range(5))

    def test_merge(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 0.5, B: 0.5}})
        out = simplicial_retraction(f, {A: A, B: A}, self.region(p5))
        assert out(0) == {A: 1.0}

    def test_three_way(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 1 / 3, B: 1 / 3, C: 1 / 3}})
        out = simplicial_retraction(f, {A: A, B: A, C: C}, self.region(p5))
        w = out(0)
        assert w[A] == pytest.approx(2 / 3)
        assert w[C] == pytest.approx(1 / 3)
        assert math.fsum(out(0).values()) == pytest.approx(1.0, abs=1e-15)

    def test_not_a_retraction(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 1.0}})
        with pytest.raises(NotARetractionError):
            simplicial_retraction(f, {A: B, B: A}, self.region(p5))

    def test_support_escapes(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 0.5, C: 0.5}})
        with pytest.raises(SupportEscapesError):
            simplicial_retraction(f, {A: A, B: A}, self.region(p5))

    def test_off_region_untouched(self, p5):
        f = PartitionOfUnity(p5, {0: {A: 0.5, B: 0.5},
                                  4: {A: 0.5, B: 0.5}})
        out = simplicial_retraction(f, {A: A, B: A}, PointSubset((0,)))
        assert out(0) == {A: 1.0}
        assert out(4) == f(4)

    def test_contracts_l1(self, p10):
        rng = np.random.default_rng(7)
        verts = [(0, i) for i in range(4)]
        f = PartitionOfUnity(p10, {
            x: {v: w for v, w in zip(verts, rng.dirichlet(np.ones(4)))}
            for x in range(10)
        })
        r = {verts[0]: verts[0], verts[1]: verts[0], verts[2]: verts[2], verts[3]: verts[2]}
        out = simplicial_retraction(f, r, self.region(p10))
        for x in range(10):
            for y in range(x + 1, 10):
                assert l1(out(x), out(y)) <= l1(f(x), f(y)) + 1e-12


class TestBarycentric:
    def test_singleton_partition(self, p5):
        cover = [PointSubset((x,)) for x in range(5)]
        f = barycentric_pou(p5, cover)
        for x in range(5):
            assert f(x) == {(0, x): 1.0}

    def test_two_blocks_overlap(self, p10):
        f = barycentric_pou(p10, [PointSubset(tuple(range(6))),
                                  PointSubset(tuple(range(4, 10)))])
        assert f(4) == {(0, 0): 0.5, (0, 1): 0.5}
        assert f(0) == {(0, 0): 1.0}

    def test_missing_point(self, p10):
        cover = [PointSubset(tuple(range(7))), PointSubset((8, 9))]
        with pytest.raises(NotACoverError) as err:
            barycentric_pou(p10, cover)
        assert err.value.point == 7

    def test_star_preimages_equal_members(self, p10):
        members = [PointSubset(tuple(range(6))), PointSubset(tuple(range(4, 10)))]
        f = barycentric_pou(p10, members)
        assert np.array_equal(f.star_preimage((0, 0)).ids, members[0].ids)
        assert np.array_equal(f.star_preimage((0, 1)).ids, members[1].ids)

    def test_lebesgue_equals_cover_lebesgue(self, p10):
        # the pou's star family IS the cover, so Lebesgue checks agree at all M
        members = [PointSubset(tuple(range(6))), PointSubset(tuple(range(4, 10)))]
        f = barycentric_pou(p10, members)
        stars = [f.star_preimage(v) for v in f.carrier()]
        for m in [0.5, 1.0, 2.0, 3.0, 5.0]:
            assert (lebesgue_check(p10, stars, m).passed
                    == lebesgue_check(p10, members, m).passed)


class TestVertexMint:
    def test_namespaces_unique(self):
        mint = VertexMint()
        seen = {mint.namespace() for _ in range(100)}
        assert len(seen) == 100
        assert min(seen) >= 1


# ---------------------------------------------------------------------------
# the CSR storage against dict formulas
# ---------------------------------------------------------------------------

N = 12
SPACE = path_space(N)
with pytest.MonkeyPatch.context() as _mp:
    _mp.setattr(metric, "DENSE_LIMIT", 0)
    FREE = path_space(N)


@st.composite
def assignments(draw, namespaces=(0, 1, 2), min_size=0, drift=False):
    """{point: [(vertex, weight), ...]}: each point's entries in the order they are listed.

    With drift, a row's weights sum to 1 only within SUM_TOL.
    """
    verts = [(ns, i) for ns in namespaces for i in range(3)]
    out = {}
    for x in draw(st.lists(st.integers(0, N - 1), unique=True, min_size=min_size, max_size=N)):
        vs = draw(st.lists(st.sampled_from(verts), unique=True, min_size=1, max_size=5))
        ws = draw(st.lists(st.floats(0.01, 1.0), min_size=len(vs), max_size=len(vs)))
        total = math.fsum(ws) / (1.0 + (draw(st.floats(-0.9, 0.9)) * SUM_TOL if drift else 0.0))
        out[x] = [(v, w / total) for v, w in zip(vs, ws)]
    return out


def make(a, space=SPACE):
    return PartitionOfUnity(space, {x: dict(es) for x, es in a.items()})


def entries(f):
    """{point: [(vertex, weight), ...]} as f lists them."""
    return {x: list(f(x).items()) for x in f.domain.ids}


class TestCsrStorage:
    @given(assignments())
    @settings(max_examples=100, deadline=None)
    def test_carrier_stars_dense(self, a):
        f = make(a)
        carrier = sorted({v for es in a.values() for v, _ in es})
        assert f.carrier() == tuple(carrier)
        assert entries(f) == a and f.domain.ids.tolist() == sorted(a)
        for v in [(ns, i) for ns in range(3) for i in range(4)]:  # (ns, 3) is never drawn
            assert f.star_preimage(v).ids.tolist() == sorted(x for x, es in a.items() if v in dict(es))
        pts, verts, mat = f.dense()
        expect = np.zeros((len(a), len(carrier)))
        for i, x in enumerate(sorted(a)):
            for v, w in a[x]:
                expect[i, carrier.index(v)] = w
        assert pts.tolist() == sorted(a) and verts == tuple(carrier)
        assert np.array_equal(mat, expect)

    @given(assignments(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_star_preimage_diameters(self, a, tied, table):
        if tied:  # every vertex gets a twin with its star, and so its diameter
            a = {x: [(v, w / 2) for v, w in es] + [((9, 3 * v[0] + v[1]), w / 2) for v, w in es]
                 for x, es in a.items()}
        f = make(a, SPACE if table else FREE)
        if not a:
            assert measured_bound(f) == 0.0
            for check in (star_preimage_diameters, lambda g: cobounded_check(g, 1.0)):
                with pytest.raises(EmptySetError):
                    check(f)
            return
        # the per-vertex dict and the sorted strict-> scan they replace
        stars = {v: sorted(x for x, es in a.items() if v in dict(es))
                 for v in {v for es in a.values() for v, _ in es}}
        diams = {v: metric.diameter(f.space, PointSubset(tuple(pts))) for v, pts in stars.items()}
        worst_v, worst_d = None, -1.0
        for v in sorted(diams):
            if diams[v] > worst_d:
                worst_v, worst_d = v, diams[v]
        got = star_preimage_diameters(f)
        assert got.tolist() == [diams[v] for v in f.carrier()]
        assert measured_bound(f) == max(diams.values())
        rep = cobounded_check(f, 3.0)
        assert (rep.tight_bound, rep.worst_vertex, rep.vertices_checked) == (
            worst_d, worst_v, len(diams))
        if tied:
            assert worst_v[0] != 9 and diams[worst_v] == diams[(9, 3 * worst_v[0] + worst_v[1])]

    @given(assignments(), assignments(), assignments())
    @settings(max_examples=100, deadline=None)
    def test_merged_with(self, a, b, c):
        got = make(a).merged_with(make(b), make(c))
        assert entries(got) == {x: es for x, es in sorted({**c, **b, **a}.items())}
        assert got.carrier() == tuple(sorted({v for es in entries(got).values() for v, _ in es}))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_glue(self, data):
        a = data.draw(assignments())
        gs = [data.draw(assignments(namespaces=(10 + t,)))
              for t in range(data.draw(st.integers(1, 3)))]
        pieces = [PointSubset(tuple(data.draw(st.lists(st.sampled_from(sorted(g)), unique=True))
                                    if g else ())) for g in gs]  # overlapping, in general
        h, _ = extend_over_disjoint_family(
            make(a), pieces, R=1.0, budget=1.0, extender=lambda ff, t, u: (make(gs[t]), 0.0),
            input_bound=0.0, verify_family=False)
        expect = dict(a)
        for g, piece in zip(gs, pieces):
            for x in piece.ids:
                expect.setdefault(x, g[x])  # the input, then the first piece, keeps a point
        assert entries(h) == {x: es for x, es in sorted(expect.items())}

    @given(assignments(drift=True), assignments(min_size=1, drift=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_convex_combine(self, a, b, data):
        # rows at t in {0, 1, uniform} from the sources in b, against the
        # point formula: the same weights, bit for bit, in the same order;
        # t = 5e-324 sends t*x to 0 for x < 1, so a zero is dropped
        t = [data.draw(st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)) for _ in a]
        src = [data.draw(st.sampled_from(sorted(b))) for _ in a]
        assert blend_rows(t, make(a), make(b), src) == [
            list(blend_point(tx, dict(a[x]), dict(b[y])).items())
            for tx, x, y in zip(t, sorted(a), src)]

    @given(assignments(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_simplicial_retraction(self, a, data):
        f = make(a)
        image = data.draw(st.lists(st.sampled_from(f.carrier() or (A,)), unique=True, min_size=1))
        r = {v: v for v in image}
        for v in f.carrier():
            r.setdefault(v, data.draw(st.sampled_from(image)))
        region = data.draw(st.lists(st.integers(0, N - 1), unique=True))
        got = simplicial_retraction(f, r, PointSubset(tuple(region)))
        expect = {}
        for x in sorted(a):
            if x not in region:
                expect[x] = a[x]
                continue
            w = {}
            for v, wv in a[x]:  # summed in entry order
                w[r[v]] = w.get(r[v], 0.0) + wv
            expect[x] = list(w.items())
        assert entries(got) == expect

    def test_retraction_sums_in_entry_order(self, p5):
        # the three weights sum to 1 - 2^-53 in this order, to 1 in vertex order
        D = (0, 3)
        f = PartitionOfUnity(p5, {0: {B: 0.469, D: 0.431, C: 0.1}})
        got = simplicial_retraction(f, {A: A, B: A, C: A, D: A}, p5.all_points())
        assert got(0) == {A: (0.469 + 0.431) + 0.1}
        assert (0.469 + 0.431) + 0.1 != (0.469 + 0.1) + 0.431

    @given(assignments(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_json_save_load_save(self, a, table):
        space = SPACE if table else FREE
        f = make(a, space)
        text = jsonio.pou_to_json(f)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.pou.json"
            path.write_text(text, encoding="utf-8")
            again = jsonio.load_pou(path, space)
        assert jsonio.pou_to_json(again) == text
        assert dict(again.items()) == dict(f.items())
