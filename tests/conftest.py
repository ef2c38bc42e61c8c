from __future__ import annotations

import signal

import pytest

from sample_decks import FANO_ROWS, THREE_BLOCK_ROWS, TWO_SYM_3_ROWS
from spotdeck.deck import normalize


@pytest.fixture
def fano():
    return normalize(FANO_ROWS)


@pytest.fixture
def fano_minus_one():
    return normalize(FANO_ROWS[1:])


@pytest.fixture
def three_block():
    return normalize(THREE_BLOCK_ROWS)


@pytest.fixture
def two_sym_3():
    return normalize(TWO_SYM_3_ROWS)


TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT_S`` seconds.

    A search that turns exponential then ends the run with a failure instead
    of hanging it.  Where the platform has no ``SIGALRM`` there is no limit.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its time limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
