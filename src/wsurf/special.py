"""Complex special functions on fixed principal branches.

Both functions accept scalars or numpy arrays of complex numbers and are
vectorized.  Branch conventions used throughout the package:

* ``arcsin``  cuts on (-inf, -1) and (1, inf); the endpoints +-1 are
  allowed (the value is finite there).
* ``Ei``      defined by its power series plus log z + gamma, with log|z|
  substituted on the negative real axis so the standard real principal
  value is returned there; no cut violation is raised, only z = 0 is
  excluded.
"""

import numpy as np

from .errors import BranchCutViolation, DomainError

EULER_GAMMA = 0.57721566490153286061


def _asarray(z):
    a = np.asarray(z, dtype=complex)
    return a, a.ndim == 0


def _result(a, scalar):
    return complex(a) if scalar else a


def _check_finite_input(a, name):
    if not np.all(np.isfinite(a)):
        raise DomainError(f"non-finite input to {name}")


def arcsin(z):
    """Principal arcsine; cuts on (-inf, -1) and (1, inf)."""
    a, scalar = _asarray(z)
    _check_finite_input(a, "arcsin")
    on_cut = (a.imag == 0) & (np.abs(a.real) > 1)
    if np.any(on_cut):
        raise BranchCutViolation("arcsin", a[on_cut].flat[0] if not scalar else complex(a))
    return _result(np.arcsin(a), scalar)


def ei(z):
    """Complex exponential integral.

    Evaluated as sum_{k>=1} z^k/(k*k!) + log z + gamma, with log z
    replaced by log|z| on the negative real axis, which reproduces the
    real-valued principal value Ei(x) for x < 0.
    """
    a, scalar = _asarray(z)
    _check_finite_input(a, "Ei")
    if np.any(a == 0):
        raise DomainError("Ei(0) is undefined")
    total = np.zeros_like(a)
    term = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    # term_k = z^k / k!, summand = term_k / k
    for k in range(1, 400):
        term = term * a / k
        total = np.where(active, total + term / k, total)
        active = active & (np.abs(term / k) >= 1e-18 * np.maximum(np.abs(total), 1e-300))
        if not np.any(active):
            break
    branch = np.log(a)
    on_axis = (a.imag == 0) & (a.real < 0)
    if np.any(on_axis):
        # drop the i*pi so the negative axis carries the real principal value
        branch = np.where(on_axis, branch.real.astype(complex), branch)
    return _result(total + branch + EULER_GAMMA, scalar)
