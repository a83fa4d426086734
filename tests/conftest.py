"""Shared pytest configuration.

Keeping this file (and no __init__.py) makes pytest put tests/ on
sys.path, so the suites can import the generators module directly.

Every test runs under a time limit, so that a runaway one (a fuel count
that never runs out, say) fails by name instead of hanging the suite.
The limit is a ``SIGALRM`` timer, so it is skipped where that signal
does not exist.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
