import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from coarsecert import metric
from coarsecert.metric import FiniteMetricSpace, load_graph


def path_space(n, meta=True):
    return load_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)],
                      meta={"grid_shape": [n]} if meta else None)


def grid_space(w, h):
    edges = []
    for x in range(w):
        for y in range(h):
            pid = x * h + y
            if x + 1 < w:
                edges.append((pid, pid + h, 1.0))
            if y + 1 < h:
                edges.append((pid, pid + 1, 1.0))
    return load_graph(w * h, edges, meta={"grid_shape": [w, h]})


def integer_graph(rng, n):
    """A connected graph on n points with weights in {1, 2, 3}: many ties."""
    edges = [(int(rng.integers(0, i)), i, float(rng.integers(1, 4))) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.integers(0, n, 2)
        edges.append((int(u), int(v), float(rng.integers(1, 4))))
    return load_graph(n, edges)


def weighted_graph(rng, n, integral, table=False):
    """A connected graph on n points, over an oracle table only if asked (graph_space).

    Integral weights in {1, 2, 3} make many distance ties.  Others, drawn
    from [0.05, 10), make Dijkstra rows that may differ from their
    transposes in the last bits.
    """
    def weight():
        return float(rng.integers(1, 4)) if integral else float(rng.uniform(0.05, 10.0))
    edges = [(int(rng.integers(0, i)), i, weight()) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.integers(0, n, 2)
        edges.append((int(u), int(v), weight()))
    return graph_space(n, edges, table)


def graph_space(n, edges, table):
    """load_graph on either lane.

    With table, every row is certified at load (n <= DENSE_LIMIT) and the
    space answers from an oracle table (with_table); without, only the
    seeded pool is certified and every row is a Dijkstra call.
    """
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(metric, "DENSE_LIMIT", 0)
        sp = load_graph(n, edges)
    return with_table(sp) if table else sp


def dijkstra_table(sp):
    """The all-pairs Dijkstra table of a graph space's edges, by scipy's shortest_path."""
    return shortest_path(sp._graph.matrix, method="D", directed=True)


def with_table(sp, table=None):
    """sp's edges and meta over a distance table, not validated: an oracle lane.

    The table defaults to dijkstra_table(sp), built here and not by the
    space's own row queries, which the new space never makes: its table
    answers every distance query.
    """
    table = dijkstra_table(sp) if table is None else table
    return FiniteMetricSpace(sp.n, sp.provenance, dmat=table, graph=sp._graph, meta=sp.meta)


def rgg_space(n, radius, seed):
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    edges = []
    for i in range(n):
        d = np.sqrt(((coords[i + 1:] - coords[i]) ** 2).sum(axis=1))
        for j in np.flatnonzero(d <= radius):
            edges.append((i, int(i + 1 + j), float(d[j])))
    return load_graph(n, edges)


@pytest.fixture(scope="session")
def p5():
    return path_space(5)


@pytest.fixture(scope="session")
def p10():
    return path_space(10)


@pytest.fixture(scope="session")
def p20():
    return path_space(20)


@pytest.fixture(scope="session")
def p100():
    return path_space(100)


@pytest.fixture(scope="session")
def p200():
    return path_space(200)


@pytest.fixture(scope="session")
def p400():
    return path_space(400)


@pytest.fixture(scope="session")
def grid20():
    return grid_space(20, 20)


@pytest.fixture(scope="session")
def cycle4():
    return load_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
