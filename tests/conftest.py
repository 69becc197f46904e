"""Shared test fixtures."""

import signal

import pytest


@pytest.fixture
def wall_time_limit():
    """``wall_time_limit(seconds)`` makes the rest of the test raise
    TimeoutError once it has run that long, so a computation that never ends
    fails the test instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its wall-time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
