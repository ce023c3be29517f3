import contextlib
import io
import pathlib
import signal
import sys

import pytest

from conftest import HANG_GUARD_S, HangGuardTimeout
from conley.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))
from spans import Tracer  # noqa: E402 - the bench directory is not a package


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="the hang guard needs SIGALRM")
def test_hang_guard_interrupts_a_looping_test():
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= HANG_GUARD_S
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(HangGuardTimeout):
        while True:
            pass


LAYERS_UNDER = {
    "verify": ("spectral.nonnilpotent_part", "spectral.generalized_image",
               "spectral.generalized_kernel", "linalg.charpoly",
               "linalg.column_space", "linalg.kernel_basis"),
    "index": ("spectral.nonnilpotent_part", "spectral.generalized_image",
              "spectral.invariant_factors", "linalg.column_space"),
}


@pytest.mark.parametrize("command", sorted(LAYERS_UNDER))
def test_tracer_sees_the_layers_under_each_report(command, fixture_path):
    # The per-layer metrics of bench/run.py come from these boundaries; a
    # basic-set analysis that bypassed them would zero their counters.
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert main([command, fixture_path("fourhandle.json")]) == 0
    boundaries = tracer.summary()["boundaries"]
    for name in LAYERS_UNDER[command]:
        assert boundaries[name]["calls"] > 0, name
