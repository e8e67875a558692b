import pytest

from btlab import graph_oracle


@pytest.fixture
def heavier_cycles(monkeypatch):
    """Plant a fault in the oracle: add 1 to the weight of every cycle in
    its rows but keep its exponent, so only the rule "cycle weight ==
    orbit size" can see it."""
    real = graph_oracle.classify_components

    def classify(g):
        res = real(g)
        rows = tuple(
            row._replace(cycles=tuple(c._replace(weight=c.weight + 1) for c in row.cycles))
            for row in res.rows
        )
        return res._replace(rows=rows)

    monkeypatch.setattr(graph_oracle, "classify_components", classify)
