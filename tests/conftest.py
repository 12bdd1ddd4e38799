import random

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected, enumerate_graphs


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
