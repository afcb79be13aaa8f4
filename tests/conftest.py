import pytest

from invsemi import graph as gm


@pytest.fixture(scope="session")
def full_graphs():
    """Shared full commuting graphs, built at most once per test session
    (n=6 has 13,325 vertices and takes about 0.2 s)."""
    cache = {}

    def get(n: int) -> gm.CommutingGraph:
        if n not in cache:
            cache[n] = gm.build_graph(n, center="monoid")
        return cache[n]

    return get


@pytest.fixture(scope="session")
def ideal_graphs(full_graphs):
    cache = {}

    def get(n: int, r: int) -> gm.CommutingGraph:
        if (n, r) not in cache:
            g = full_graphs(n)
            ranks = (g.imgs != g.n).sum(axis=1)
            cache[(n, r)] = gm.induced_subgraph(g, ranks <= r,
                                                label=f"rank{r}-n{n}")
        return cache[(n, r)]

    return get
