import random

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import Graph, GraphError, bits


# Graph helpers that only tests need: the acceptance criteria state the
# paper's propositions with them, and the tests build disconnected inputs.

def max_degree(g):
    return max((g.degree(v) for v in g.vertices()), default=0)


def is_forest(g):
    return g.num_edges() == g.n - len(g.component_masks())


def diameter(g):
    """Longest shortest-path distance; raises on disconnected input."""
    if not g.is_connected():
        raise GraphError("diameter undefined for disconnected graph")
    best = 0
    for s in g.vertices():
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bits(g.adj[v]):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def disjoint_union(g, h):
    """g on 1..g.n, then h shifted up by g.n."""
    return Graph(g.n + h.n, g.adj + tuple(a << g.n for a in h.adj[1:]))


@pytest.fixture(scope="session")
def connected_upto_5():
    return [g for n in range(1, 6) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def connected_upto_6():
    return [g for n in range(1, 7) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def connected_upto_7():
    return [g for n in range(1, 8) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def all_graphs_upto_5():
    return [g for n in range(1, 6) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def all_graphs_upto_7():
    return [g for n in range(1, 8) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def sampled_n6():
    rng = random.Random(20260809)
    pool = list(enumerate_connected(6))
    return rng.sample(pool, 30)


@pytest.fixture
def kite():
    return families.kite5()


@pytest.fixture
def k3_join_o4():
    return families.complete(3).join(families.empty(4))
