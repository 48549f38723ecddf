import numpy as np
import pytest

from wsurf.catalog import parse_user_ode
from wsurf.weierstrass import WeierstrassData


@pytest.fixture
def plane_data():
    """The trivial Weierstrass pair (eta^2 = 1, chi = 0) of w'' = 0: a
    flat plane."""
    return WeierstrassData(
        pair=lambda z: (np.ones_like(np.asarray(z, dtype=complex)),
                        np.zeros_like(np.asarray(z, dtype=complex))),
        c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
        ode=parse_user_ode("p = 1\nq = 0\nr = 0\n"),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_ACCEPTANCE_LINES = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion.

    Lines are printed immediately and repeated in a terminal summary
    section so they survive pytest's output capture.
    """
    def record(num, desc, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num}: {desc}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
