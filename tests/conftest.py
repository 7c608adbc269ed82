from dataclasses import replace

import numpy as np
import pytest

from copkern.registry import COPULA_OF_KIND

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def nan_galambos(monkeypatch):
    """The registry builds 'galambos:100' and 'galambos:300' as Extreme-Value
    copulas whose stable tail function, and so kernel and CDF, is NaN inside
    the unit square: a stand-in for an overflow-damaged model, as the family
    itself no longer overflows."""
    build = COPULA_OF_KIND["extreme-value"]

    def nan_tail(u):
        return lambda v: tuple(np.full(np.broadcast(u, v).shape, np.nan) for _ in range(2))

    def stub(p):
        damaged = p.label in ("galambos:100", "galambos:300")
        return build(replace(p, stable_tail=nan_tail) if damaged else p)

    monkeypatch.setitem(COPULA_OF_KIND, "extreme-value", stub)
