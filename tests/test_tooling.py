import signal

import pytest

from conftest import HANG_GUARD_S, HangGuardTimeout


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="the hang guard needs SIGALRM")
def test_hang_guard_interrupts_a_looping_test():
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= HANG_GUARD_S
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(HangGuardTimeout):
        while True:
            pass
