import pathlib
import signal

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The slowest test takes a few seconds; one that runs past this limit is
# looping, and fails with a traceback instead of stalling the suite.
HANG_GUARD_S = 120


class HangGuardTimeout(BaseException):
    """Raised inside a test that outlives HANG_GUARD_S; derived from
    BaseException so that no ``except Exception`` or ``except OSError``
    in the library swallows it."""


def _on_alarm(signum, frame):
    raise HangGuardTimeout(f"test ran longer than {HANG_GUARD_S} s")


@pytest.fixture(autouse=True)
def hang_guard():
    """Arm SIGALRM for each test, where the platform has it."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HANG_GUARD_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fixture_path():
    def get(name):
        return str(FIXTURES / name)
    return get
