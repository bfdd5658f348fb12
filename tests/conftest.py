from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from nilcarnot.carnot import decompose
from nilcarnot.catalog import engel4, engel_heis7, heisenberg3, heisprod4, ladder5
from nilcarnot.linalg import columns, points
from nilcarnot.rng import CounterRng


@pytest.fixture(scope="session")
def heis():
    return heisenberg3()


@pytest.fixture(scope="session")
def engel():
    return engel4()


@pytest.fixture(scope="session")
def eh7():
    return engel_heis7()


@pytest.fixture(scope="session")
def hp4():
    return heisprod4()


@pytest.fixture(scope="session")
def l5():
    return ladder5()


@pytest.fixture(scope="session")
def dec_eh7(eh7):
    return decompose(eh7)


@pytest.fixture(scope="session")
def dec_hp4(hp4):
    return decompose(hp4)


@pytest.fixture(scope="session")
def dec_l5(l5):
    return decompose(l5)


def at_point(component, q):
    """A shear component's value at the float point q, from one call on q as one column."""
    return points(component.eval(columns([q])))[0]


def bracket_rows(table, out, x, y):
    """The table loop the bracket kernel replaced: add [x, y] into ``out``."""
    for i, j, entries in table:
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            for k, c in entries:
                out[k] += c * coef
    return tuple(out)


def loop_bracket_exact(alg, x, y):
    """The exact bracket as a loop over ``bracket_table``: the reference
    that shares no code with ``algebra.bracket`` or its kernels."""
    return bracket_rows(alg.bracket_table, [Fraction(0)] * alg.dim, x, y)


class Stalling(CounterRng):
    """Gives the output 2^63, whose coordinate is 0.0, at the counters ``stall``."""

    def __init__(self, seed, stall):
        super().__init__(seed)
        self.stall = stall

    def at(self, counter):
        out = super().at(counter)
        if isinstance(counter, int):
            return 1 << 63 if counter in self.stall else out
        return np.where(np.isin(counter, self.stall), np.uint64(1 << 63), out)
