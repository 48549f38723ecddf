"""The su(2) linear problem: potential matrix, wavefunction transport
along contours and residual checks."""

import numpy as np
from scipy.integrate import solve_ivp

from .contour import holo_derivative
from .errors import EvaluationFailure, SingularPoint, StepSizeUnderflow

_RTOL = 1e-10
_ATOL = 1e-12


def potential_matrix(data, z):
    """lambda * eta^2 * [[chi, -1], [chi^2, -chi]]; traceless, rank <= 1."""
    z = complex(z)
    for c, r in data.exclusions:
        if abs(z - c) < r:
            raise SingularPoint(z)
    e = complex(data.eta_sq(z))
    x = complex(data.chi(z))
    if not (np.isfinite(e) and np.isfinite(x)):
        raise SingularPoint(z)
    s = data.lam * e
    return np.array([[s * x, -s], [s * x * x, -s * x]], dtype=complex)


def _rhs(ode, a, b):
    """Right-hand side of the ODE transported along z = a + t (b - a)."""
    dz = b - a

    def rhs(t, y):
        z = a + t * dz
        qp, rp = ode.ratios(z)
        return np.array([dz * y[1], dz * (-qp * y[1] - rp * y[0])])

    return rhs


def _solve(ode, a, b, state, t_eval=None):
    """solve_ivp of the ODE along the segment a -> b from state at a."""
    rhs = _rhs(ode, a, b)
    if not np.all(np.isfinite(rhs(0.0, state))):
        # from a non-finite slope RK45 picks a nan first step and never
        # leaves its step loop
        raise EvaluationFailure(
            a, f"ODE right-hand side is not finite at z={a}")
    sol = solve_ivp(rhs, (0.0, 1.0), state, method="RK45", rtol=_RTOL,
                    atol=_ATOL, t_eval=t_eval)
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    return sol


class Wavefunction:
    """Solution (psi1, psi2) of the linear problem.

    ``state_at`` maps z to (psi1, dpsi1/dz), where psi1 solves
    p psi1'' + q psi1' + r psi1 = 0; psi2 = chi psi1 - psi1' /
    (lambda eta^2).
    """

    def __init__(self, data, ode, state_at):
        self.data = data
        self.ode = ode
        self.state_at = state_at

    def psi1(self, z):
        return complex(self.state_at(complex(z))[0])

    def dpsi1(self, z):
        return complex(self.state_at(complex(z))[1])

    def _psi2(self, z, p1, d1):
        """psi2 = chi psi1 - psi1' / (lambda eta^2) from the state at z."""
        return complex(self.data.chi(z)) * p1 - d1 / (
            self.data.lam * complex(self.data.eta_sq(z)))

    def psi2(self, z):
        z = complex(z)
        return complex(self._psi2(z, *self.state_at(z)))

    def psi(self, z):
        """(psi1, psi2) at z from one state evaluation."""
        z = complex(z)
        p1, d1 = self.state_at(z)
        return np.array([p1, self._psi2(z, p1, d1)], dtype=complex)


def integrate_wavefunction(data, ode, init, path, samples_per_segment=24):
    """Transport (psi1, psi1') from the path start along a ContourPath.

    init is the pair (psi1, dpsi1/dz) at path.start.  The state is stored
    at ``samples_per_segment`` nodes per segment; off-path queries are
    answered by re-integrating a short straight segment from the nearest
    stored node, which keeps the extension holomorphic.
    """
    state = np.array([complex(init[0]), complex(init[1])], dtype=complex)
    nodes = [path.start]
    states = [state.copy()]
    for a, b in path.segments():
        ts = np.linspace(0.0, 1.0, samples_per_segment + 1)[1:]
        sol = _solve(ode, a, b, state, t_eval=ts)
        for t, y in zip(sol.t, sol.y.T):
            nodes.append(a + t * (b - a))
            states.append(y.copy())
        state = sol.y[:, -1].copy()
    nodes = np.asarray(nodes)

    def state_at(z):
        idx = int(np.argmin(np.abs(nodes - z)))
        if nodes[idx] == z:
            return states[idx]
        return _solve(ode, complex(nodes[idx]), z, states[idx]).y[:, -1]

    return Wavefunction(data, ode, state_at)


def closed_form_wavefunction(data, ode, psi1, dpsi1):
    """The Wavefunction of analytic (psi1, psi1') callables."""
    return Wavefunction(data, ode,
                        lambda z: (complex(psi1(z)), complex(dpsi1(z))))


def lp_residual(data, wf, z, h=None):
    """Relative linear-problem residual and antiholomorphy residual at z.

    Returns (res, dbar) with res = ||dPsi - U Psi|| / max(1, ||Psi||)
    and dbar the largest Cauchy-Riemann residual of the two components.
    """
    z = complex(z)
    d, cr = holo_derivative(wf.psi, z, h=h)
    psi = wf.psi(z)
    u = potential_matrix(data, z)
    mismatch = d - u @ psi
    res = float(np.linalg.norm(mismatch) / max(1.0, np.linalg.norm(psi)))
    return res, float(cr.max())


def zcc_residual(data, z, h=None):
    """Antiholomorphy residual ||dbar U|| of the potential matrix.

    With the holomorphic gauge the second potential vanishes, so the
    zero-curvature condition reduces to dbar U = 0.
    """
    _, cr = holo_derivative(lambda w: potential_matrix(data, w).ravel(),
                            complex(z), h=h)
    return float(cr.max())
