"""Seeded 100-instance realization suites for the composite extension ops.

Each suite draws instances over paths, planar grids, and random geometric
graphs (n <= 500), builds inputs that verifiably satisfy the op's stated
preconditions, runs the op, and re-establishes its conclusion through the
independent checkers: output slope at the promised budget, coboundedness at
the composed formula bound, and exact agreement with the input on its
domain.
"""

import numpy as np
import pytest

from coarsecert.extend import (
    default_modulus,
    extend_over_bounded_piece,
    extend_over_disjoint_family,
    measured_bound,
)
from coarsecert.metric import PointSubset, diameter
from coarsecert.construct import VertexMint, closed_set_ball, r_disjoint_check
from coarsecert.verify import cobounded_check, lipschitz_check
from .conftest import grid_space, path_space, rgg_space
from .genutil import random_lipschitz_pou, random_subset

E = default_modulus()


@pytest.fixture(scope="module")
def spaces():
    return [path_space(300), grid_space(16, 16), rgg_space(220, 0.16, 5)]


def interval_piece(space, rng, width):
    lo = int(rng.integers(0, space.n - width))
    return PointSubset(tuple(range(lo, lo + width)))


def ball_piece(space, rng, radius):
    c = int(rng.integers(0, space.n))
    return closed_set_ball(space, PointSubset((c,)), radius)


class TestBoundedPieceRealization:
    def test_hundred_instances(self, spaces):
        branch_seen = {1: 0, 2: 0}
        mint = VertexMint()
        for i in range(100):
            rng = np.random.default_rng(50_000 + i)
            space = spaces[i % 3]
            u = float(rng.uniform(0.3, 1.2))
            r_m = max(2.0 / u - 1.0, 10.0) * float(rng.uniform(1.0, 2.0))
            if i % 4 == 3:
                # separated layout: the domain misses the piece's
                # neighborhood entirely, forcing the fresh-vertex branch
                space = spaces[0]
                r_m = min(r_m, 150.0)
                a = random_subset(50, int(rng.integers(10, 30)), rng)
                piece = PointSubset(tuple(range(250, 250 + int(rng.integers(8, 30)))))
            else:
                a = random_subset(space.n, int(rng.integers(10, space.n // 3)), rng)
                if i % 3 == 1:
                    piece = ball_piece(space, rng, float(rng.uniform(2, 6)))
                else:
                    piece = interval_piece(space, rng, int(rng.integers(8, 30)))
            f = random_lipschitz_pou(space, a.ids, E(u), rng,
                                     n_vertices=int(rng.integers(2, 5)))
            k_in = measured_bound(f)
            g, bound, branch = extend_over_bounded_piece(
                f, piece, r_m, u, mint=mint, input_bound=k_in)
            branch_seen[branch] += 1
            assert set(g.domain.ids) == set(piece.ids) - set(a.ids)  # new points only
            g = f.merged_with(g)
            assert all(g(x) == f(x) for x in a.ids)  # exact on the input
            assert set(g.domain.ids) == set(a.ids) | set(piece.ids)
            assert lipschitz_check(g, u, u, mode="full").worst_slack >= -1e-9
            k_piece = diameter(space, piece)
            expect = k_in + k_piece + (r_m if branch == 2 else 0.0)
            assert bound == pytest.approx(expect)
            assert cobounded_check(g, bound).passed
        assert branch_seen[1] > 0 and branch_seen[2] > 0


class TestDisjointFamilyRealization:
    def make_family(self, space, rng, R, diam):
        """Pairwise >R pieces, greedily selected from random candidates."""
        pieces = []
        for _ in range(25):
            if "grid_shape" in space.meta and len(space.meta["grid_shape"]) == 1:
                cand = interval_piece(space, rng, int(rng.integers(6, 20)))
            else:
                cand = ball_piece(space, rng, diam * float(rng.uniform(0.02, 0.08)))
            if r_disjoint_check(space, pieces + [cand], R).passed:
                pieces.append(cand)
            if len(pieces) == 3:
                break
        return pieces

    def test_hundred_instances(self, spaces):
        glued_multi = 0
        for i in range(100):
            rng = np.random.default_rng(60_000 + i)
            space = spaces[i % 3]
            diam = space.diameter()
            R = diam * float(rng.uniform(0.06, 0.18))
            u = min(2.0 / (R + 1.0) * float(rng.uniform(1.0, 2.5)), 1.9)
            pieces = self.make_family(space, rng, R, diam)
            if not pieces:
                continue
            r_disjoint_check(space, pieces, R)
            a = random_subset(space.n, int(rng.integers(8, 40)), rng)
            f = random_lipschitz_pou(space, a.ids, E(u), rng)
            k_in = measured_bound(f)
            mint = VertexMint(start=1000 * i + 1)
            r_m = max(2.0 / u - 1.0, 10.0) * float(rng.uniform(1.0, 1.5))

            def extender(ff, t, uu):
                return extend_over_bounded_piece(
                    ff, pieces[t], r_m, uu, mint=mint,
                    input_bound=measured_bound(ff))

            h, bound = extend_over_disjoint_family(
                f, pieces, R, u, extender, input_bound=k_in)
            if len(pieces) > 1:
                glued_multi += 1
            assert all(h(x) == f(x) for x in a.ids)
            covered = set(a.ids).union(*[set(p.ids) for p in pieces])
            assert set(h.domain.ids) == covered
            assert lipschitz_check(h, u, u, mode="full").worst_slack >= -1e-9
            assert cobounded_check(h, bound).passed
        assert glued_multi >= 50

