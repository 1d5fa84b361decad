"""Seeded instance generators and corruption helpers shared across tests.

Random partitions of unity come from a verified random walk: weights drift
by small seeded steps point-to-point, then the result is checked against the
requested Lipschitz budget and the step size halved until the check passes
(the constant pou passes trivially, so the loop terminates).  Every instance
handed to a test has therefore been verified to meet its stated precondition
by the independent checker itself.
"""

import math

import numpy as np

from coarsecert.metric import PointSubset
from coarsecert.construct import RENORM_TRIGGER
from coarsecert.simplex import PartitionOfUnity
from coarsecert.verify import lipschitz_check


def random_lipschitz_pou(space, domain_ids, delta, rng, n_vertices=4, namespace=0):
    """A seeded (delta, delta)-Lipschitz pou on the given domain, verified."""
    ids = sorted(int(x) for x in domain_ids)
    verts = [(namespace, i) for i in range(n_vertices)]
    base = rng.dirichlet(np.ones(n_vertices))
    scale = 1.0
    for _ in range(40):
        f = _walk_pou(space, ids, verts, base, delta * scale, rng)
        if lipschitz_check(f, delta, delta, mode="full").passed:
            return f
        scale /= 2.0
    # constant pou: zero simplex displacement, passes any (delta, delta)
    w = {v: float(x) for v, x in zip(verts, base) if x > 0}
    return PartitionOfUnity(space, {x: w for x in ids})


def _walk_pou(space, ids, verts, base, step, rng):
    k = len(verts)
    cur = np.array(base, dtype=float)
    assignment = {}
    for x in ids:
        move = min(step, 1.0) * rng.random()
        a, b = rng.integers(0, k, 2)
        if a != b:
            amount = min(cur[a], move / 2.0)
            cur = cur.copy()
            cur[a] -= amount
            cur[b] += amount
        weights = {v: float(w) for v, w in zip(verts, cur) if w > 0}
        total = sum(weights.values())
        weights = {v: w / total for v, w in weights.items()}
        assignment[x] = weights
    return PartitionOfUnity(space, assignment)


def uniform(vertices):
    """The barycenter of a list of distinct vertices."""
    return dict.fromkeys(vertices, 1.0 / len(vertices))


def blend_point(t, u, v):
    """t*u + (1-t)*v of two {vertex: weight} dicts, point by point.

    The reference for the blend: u's vertices first, then v's others, exact
    zeros dropped, renormalized past RENORM_TRIGGER, and u or v itself at
    t = 1 or t = 0.
    """
    if t == 0.0:
        return dict(v)
    if t == 1.0:
        return dict(u)
    s = 1.0 - t
    w = {vert: t * x for vert, x in u.items()}
    for vert, y in v.items():
        w[vert] = w.get(vert, 0.0) + s * y
    w = {vert: x for vert, x in w.items() if x != 0.0}
    total = math.fsum(w.values())
    if abs(total - 1.0) > RENORM_TRIGGER:
        w = {vert: x / total for vert, x in w.items()}
    return w


def random_subset(n, size, rng):
    return PointSubset(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))


def min_gap_pair(space, ids):
    """The closest pair within a subset (lexicographic tie-break)."""
    arr = np.asarray(sorted(ids), dtype=np.intp)
    sub = np.stack([space.row(x)[arr] for x in arr])
    np.fill_diagonal(sub, np.inf)
    i, j = np.unravel_index(int(np.argmin(sub)), sub.shape)
    if i > j:
        i, j = j, i
    return int(arr[i]), int(arr[j]), float(sub[i, j])


def perturb_weight(f, x, v, amount=0.2):
    """Add `amount` to the weight of vertex v at point x, renormalized."""
    w = f(x)
    w[v] = w.get(v, 0.0) + amount
    total = sum(w.values())
    w = {k: val / total for k, val in w.items()}
    return PartitionOfUnity(f.space, {x: w}).merged_with(f)


def smallest_weight_vertex(f, x):
    """The carrier vertex with the smallest weight at x (0 if absent)."""
    p = f(x)
    best_v, best_w = None, None
    for v in f.carrier():
        w = p.get(v, 0.0)
        if best_w is None or w < best_w or (w == best_w and v < best_v):
            best_v, best_w = v, w
    return best_v
