import json
import math

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
from coarsecert.simplex import (
    PartitionOfUnity,
    SimplexPoint,
    VertexMint,
    barycentric_pou,
    convex_combine,
    renamespace,
    simplicial_retraction,
    star_preimage_diameters,
)
from coarsecert.extend import extend_over_disjoint_family, measured_bound
from coarsecert.verify import cobounded_check, lebesgue_check

from .conftest import path_space

A, B, C = (0, 0), (0, 1), (0, 2)


def l1(u, v):
    """Sum of |u(w) - v(w)| over the union of the supports."""
    return sum(abs(u.get(w) - v.get(w)) for w in set(u.support()) | set(v.support()))


def simplex_points(max_verts=5):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_verts)
        .map(lambda ws: SimplexPoint({(0, i): w / sum(ws) for i, w in enumerate(ws)}))
    )


class TestSimplexPoint:
    def test_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            SimplexPoint({A: 0.5, B: 0.4})

    def test_negative_weight(self):
        with pytest.raises(InvalidInputError):
            SimplexPoint({A: 1.5, B: -0.5})

    def test_zero_weights_dropped(self):
        p = SimplexPoint({A: 1.0, B: 0.0})
        assert set(p.support()) == {A}


class TestConvexCombine:
    def test_endpoints_exact(self):
        u, v = SimplexPoint.delta(A), SimplexPoint({B: 0.25, C: 0.75})
        assert convex_combine(0.0, u, v) is v
        assert convex_combine(1.0, u, v) is u

    def test_half(self):
        got = convex_combine(0.5, SimplexPoint.delta(A), SimplexPoint.delta(B))
        assert got.weights() == {A: 0.5, B: 0.5}

    @given(st.floats(0, 1), simplex_points(), simplex_points())
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, t, u, v):
        assert abs(convex_combine(t, u, v).sum() - 1.0) <= 1e-9


class TestPartitionOfUnity:
    def test_carrier(self, p10):
        f = PartitionOfUnity.constant(p10, p10.all_points(), A)
        assert set(f.carrier()) == {A}

    def test_carrier_empty(self, p10):
        assert set(PartitionOfUnity.empty(p10).carrier()) == set()

    def test_carrier_two(self, p10):
        f = PartitionOfUnity(p10, {0: SimplexPoint.delta(A),
                                   1: SimplexPoint({A: 0.5, B: 0.5})})
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
        f = PartitionOfUnity(p10, {3: SimplexPoint({A: 0.5, B: 0.5})})
        diams = star_preimage_diameters(f)
        assert f.carrier() == (A, B) and diams.tolist() == [0.0, 0.0]
        assert measured_bound(f) == 0.0


class TestSimplicialRetraction:
    def region(self, space):
        return space.all_points()

    def test_identity(self, p5):
        f = PartitionOfUnity(p5, {x: SimplexPoint({A: 0.5, B: 0.5}) for x in range(5)})
        out = simplicial_retraction(f, {A: A, B: B}, self.region(p5))
        assert all(out(x) == f(x) for x in range(5))

    def test_merge(self, p5):
        f = PartitionOfUnity(p5, {0: SimplexPoint({A: 0.5, B: 0.5})})
        out = simplicial_retraction(f, {A: A, B: A}, self.region(p5))
        assert out(0).weights() == {A: 1.0}

    def test_three_way(self, p5):
        f = PartitionOfUnity(p5, {0: SimplexPoint({A: 1 / 3, B: 1 / 3, C: 1 / 3})})
        out = simplicial_retraction(f, {A: A, B: A, C: C}, self.region(p5))
        w = out(0).weights()
        assert w[A] == pytest.approx(2 / 3)
        assert w[C] == pytest.approx(1 / 3)
        assert out(0).sum() == pytest.approx(1.0, abs=1e-15)

    def test_not_a_retraction(self, p5):
        f = PartitionOfUnity(p5, {0: SimplexPoint.delta(A)})
        with pytest.raises(NotARetractionError):
            simplicial_retraction(f, {A: B, B: A}, self.region(p5))

    def test_support_escapes(self, p5):
        f = PartitionOfUnity(p5, {0: SimplexPoint({A: 0.5, C: 0.5})})
        with pytest.raises(SupportEscapesError):
            simplicial_retraction(f, {A: A, B: A}, self.region(p5))

    def test_off_region_untouched(self, p5):
        f = PartitionOfUnity(p5, {0: SimplexPoint({A: 0.5, B: 0.5}),
                                  4: SimplexPoint({A: 0.5, B: 0.5})})
        out = simplicial_retraction(f, {A: A, B: A}, PointSubset((0,)))
        assert out(0).weights() == {A: 1.0}
        assert out(4) == f(4)

    def test_contracts_l1(self, p10):
        rng = np.random.default_rng(7)
        verts = [(0, i) for i in range(4)]
        f = PartitionOfUnity(p10, {
            x: SimplexPoint({v: w for v, w in zip(verts, rng.dirichlet(np.ones(4)))})
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
            assert f(x).weights() == {(0, x): 1.0}

    def test_two_blocks_overlap(self, p10):
        f = barycentric_pou(p10, [PointSubset(tuple(range(6))),
                                  PointSubset(tuple(range(4, 10)))])
        assert f(4).weights() == {(0, 0): 0.5, (0, 1): 0.5}
        assert f(0).weights() == {(0, 0): 1.0}

    def test_missing_point(self, p10):
        cover = [PointSubset(tuple(range(7))), PointSubset((8, 9))]
        with pytest.raises(NotACoverError) as err:
            barycentric_pou(p10, cover)
        assert err.value.point == 7

    def test_star_preimages_equal_members(self, p10):
        members = [PointSubset(tuple(range(6))), PointSubset(tuple(range(4, 10)))]
        f = barycentric_pou(p10, members)
        assert f.star_preimage((0, 0)).ids == members[0].ids
        assert f.star_preimage((0, 1)).ids == members[1].ids

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

    def test_renamespace_disjoint(self, p5):
        f = PartitionOfUnity(p5, {x: SimplexPoint({A: 0.5, B: 0.5}) for x in range(5)})
        g = renamespace(f, 7)
        assert set(f.carrier()) & set(g.carrier()) == set()
        for x in range(5):
            assert sorted(g(x).weights().values()) == sorted(f(x).weights().values())


# ---------------------------------------------------------------------------
# the CSR storage against dict formulas
# ---------------------------------------------------------------------------

N = 12
SPACE = path_space(N)
with pytest.MonkeyPatch.context() as _mp:
    _mp.setattr(metric, "DENSE_LIMIT", 0)
    FREE = path_space(N)


@st.composite
def assignments(draw, namespaces=(0, 1, 2)):
    """{point: [(vertex, weight), ...]}: each point's entries in the order they are listed."""
    verts = [(ns, i) for ns in namespaces for i in range(3)]
    out = {}
    for x in draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N)):
        vs = draw(st.lists(st.sampled_from(verts), unique=True, min_size=1, max_size=5))
        ws = draw(st.lists(st.floats(0.01, 1.0), min_size=len(vs), max_size=len(vs)))
        total = math.fsum(ws)
        out[x] = [(v, w / total) for v, w in zip(vs, ws)]
    return out


def make(a, space=SPACE):
    return PartitionOfUnity(space, {x: SimplexPoint(dict(es)) for x, es in a.items()})


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
        assert entries(f) == a and f.domain.ids == tuple(sorted(a))
        for v in [(ns, i) for ns in range(3) for i in range(4)]:  # (ns, 3) is never drawn
            assert f.star_preimage(v).ids == tuple(sorted(x for x, es in a.items() if v in dict(es)))
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

    @given(assignments(), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_renamespace(self, a, ns):
        table = {v: (ns, i) for i, v in enumerate(sorted({v for es in a.values() for v, _ in es}))}
        got = renamespace(make(a), ns)
        assert entries(got) == {x: [(table[v], w) for v, w in a[x]] for x in sorted(a)}

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
        f = PartitionOfUnity(p5, {0: SimplexPoint({B: 0.469, D: 0.431, C: 0.1})})
        got = simplicial_retraction(f, {A: A, B: A, C: A, D: A}, p5.all_points())
        assert got(0).weights() == {A: (0.469 + 0.431) + 0.1}
        assert (0.469 + 0.431) + 0.1 != (0.469 + 0.1) + 0.431

    @given(assignments(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_json_save_load_save(self, a, table):
        space = SPACE if table else FREE
        f = make(a, space)
        text = jsonio.dumps_canonical(jsonio.pou_to_json(f))
        again = jsonio.pou_from_json(json.loads(text), space)
        assert jsonio.dumps_canonical(jsonio.pou_to_json(again)) == text
        assert dict(again.items()) == dict(f.items())
