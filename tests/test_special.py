"""Branch-pinned special functions against independent oracles."""

import mpmath
import numpy as np
import pytest

from wsurf import special
from wsurf.errors import BranchCutViolation, DomainError


def ei_series_oracle(x, terms=200):
    """Brute-force Ei(x) for real x > 0: gamma + log x + sum x^k/(k*k!)."""
    total = mpmath.mpf(0)
    for k in range(1, terms + 1):
        total += mpmath.mpf(x) ** k / (k * mpmath.factorial(k))
    return float(total + mpmath.euler + mpmath.log(x))


def test_ei_real_value_against_series():
    assert abs(special.ei(2.0) - ei_series_oracle(2.0)) <= 1e-12


def test_ei_against_mpmath_upper_half_plane(rng):
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        ref = complex(mpmath.ei(z))
        assert abs(special.ei(z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ei_derivative_identity_single_point():
    # d/dz Ei = e^z / z, checked at 1+i by central differences
    z = 1 + 1j
    h = 1e-5
    d = (special.ei(z + h) - special.ei(z - h)) / (2 * h)
    assert abs(d - np.exp(z) / z) <= 1e-10


def test_ei_derivative_identity_random(rng):
    for _ in range(100):
        r = rng.uniform(0.1, 5.0)
        t = rng.uniform(-np.pi + 0.1, np.pi - 0.1)
        z = r * np.exp(1j * t)
        h = 1e-5 * min(1.0, abs(z))
        d = (special.ei(z + h) - special.ei(z - h)) / (2 * h)
        assert abs(d - np.exp(z) / z) <= 1e-8


def test_ei_negative_real_axis_is_principal_value():
    # Ei on the negative axis collapses to the real principal value
    v = special.ei(-2.0)
    assert abs(v.imag) == 0.0
    assert abs(v - float(mpmath.ei(-2.0))) <= 1e-13


def test_ei_rejects_zero():
    with pytest.raises(DomainError):
        special.ei(0.0)


def test_arcsin_values_and_cuts():
    assert special.arcsin(0.0) == 0.0
    # endpoints of the cut are allowed
    assert abs(special.arcsin(1.0) - np.pi / 2) <= 1e-15
    with pytest.raises(BranchCutViolation):
        special.arcsin(2.0)
    with pytest.raises(BranchCutViolation):
        special.arcsin(-1.5)


@pytest.mark.parametrize("fn, sampler", [
    # a region comfortably away from each function's branch cut
    (special.ei, lambda rng: rng.uniform(0.2, 3)
     * np.exp(1j * rng.uniform(0.2, np.pi - 0.2))),
    (special.arcsin, lambda rng: 0.85 * rng.uniform(0.05, 1)
     * np.exp(2j * np.pi * rng.uniform(0, 1))),
], ids=["Ei", "arcsin"])
def test_cauchy_riemann_residual(fn, sampler, rng):
    # both branch-pinned functions are holomorphic off their cuts
    for _ in range(100):
        z = complex(sampler(rng))
        h = 1e-5 * max(1.0, abs(z))
        fp, fm = fn(z + h), fn(z - h)
        gp, gm = fn(z + 1j * h), fn(z - 1j * h)
        dbar = 0.5 * ((fp - fm) / (2 * h) + 1j * (gp - gm) / (2 * h))
        assert abs(dbar) <= 1e-8


def test_vectorized_matches_scalar(rng):
    zs = rng.uniform(0.3, 2, 8) * np.exp(1j * rng.uniform(0.2, 2.8, 8))
    for fn in (special.ei, special.arcsin):
        vec = fn(zs)
        scl = np.array([fn(complex(z)) for z in zs])
        assert np.max(np.abs(vec - scl)) <= 1e-13


def test_non_finite_input_rejected():
    for fn in (special.ei, special.arcsin):
        with pytest.raises(DomainError):
            fn(complex(np.nan, 0.0))
