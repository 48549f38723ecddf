"""The su(2) linear problem: potential matrix, wavefunction transport
along contours and residual checks."""

import numpy as np
from scipy.integrate import solve_ivp

from .contour import holo_derivative
from .errors import SingularPoint, StepSizeUnderflow

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


class Wavefunction:
    """Solution (psi1, psi2) of the linear problem along a contour.

    psi1 solves p psi1'' + q psi1' + r psi1 = 0 transported along the
    path; psi2 = chi psi1 - psi1' / (lambda eta^2).  Off-path queries are
    answered by re-integrating a short straight segment from the nearest
    stored path point, which keeps the extension holomorphic.
    """

    def __init__(self, data, ode, path, states, nodes):
        self.data = data
        self.ode = ode
        self.path = path
        self._nodes = np.asarray(nodes)          # complex points on path
        self._states = np.asarray(states)        # (len, 2): psi1, dpsi1

    def _transport(self, z_from, state, z_to):
        if z_from == z_to:
            return state
        sol = solve_ivp(_rhs(self.ode, z_from, z_to), (0.0, 1.0),
                        state, method="RK45", rtol=_RTOL, atol=_ATOL)
        if not sol.success:
            raise StepSizeUnderflow(sol.message)
        return sol.y[:, -1]

    def state_at(self, z):
        """(psi1, dpsi1/dz) at z, extended from the nearest path node."""
        z = complex(z)
        idx = int(np.argmin(np.abs(self._nodes - z)))
        return self._transport(complex(self._nodes[idx]),
                               self._states[idx], z)

    def psi1(self, z):
        return complex(self.state_at(z)[0])

    def dpsi1(self, z):
        return complex(self.state_at(z)[1])

    def _psi2(self, z, p1, d1):
        """psi2 = chi psi1 - psi1' / (lambda eta^2) from the state at z."""
        return complex(self.data.chi(z)) * p1 - d1 / (
            self.data.lam * complex(self.data.eta_sq(z)))

    def psi2(self, z):
        z = complex(z)
        return complex(self._psi2(z, *self.state_at(z)))

    def psi(self, z):
        """(psi1, psi2) at z from one transport."""
        z = complex(z)
        p1, d1 = self.state_at(z)
        return np.array([p1, self._psi2(z, p1, d1)], dtype=complex)

    def samples(self):
        """(z, psi1, psi2) triples at the stored path nodes."""
        out = []
        for z, (p1, d1) in zip(self._nodes, self._states):
            z = complex(z)
            out.append((z, complex(p1), complex(self._psi2(z, p1, d1))))
        return out


def integrate_wavefunction(data, ode, init, path, samples_per_segment=24):
    """Transport (psi1, psi1') from the path start along a ContourPath.

    init is the pair (psi1, dpsi1/dz) at path.start.  Returns a
    Wavefunction sampled at ``samples_per_segment`` nodes per segment.
    """
    state = np.array([complex(init[0]), complex(init[1])], dtype=complex)
    nodes = [path.start]
    states = [state.copy()]
    for a, b in path.segments():
        ts = np.linspace(0.0, 1.0, samples_per_segment + 1)[1:]
        sol = solve_ivp(_rhs(ode, a, b), (0.0, 1.0), state,
                        method="RK45", rtol=_RTOL, atol=_ATOL, t_eval=ts)
        if not sol.success:
            raise StepSizeUnderflow(sol.message)
        for t, y in zip(sol.t, sol.y.T):
            nodes.append(a + t * (b - a))
            states.append(y.copy())
        state = sol.y[:, -1].copy()
    return Wavefunction(data, ode, path, states, nodes)


def closed_form_wavefunction(data, ode, psi1, dpsi1):
    """Wrap analytic (psi1, psi1') callables as a Wavefunction-like object."""

    class _Analytic:
        def __init__(self):
            self.data = data
            self.ode = ode

        def psi1(self, z):
            return complex(psi1(complex(z)))

        def psi2(self, z):
            z = complex(z)
            return complex(data.chi(z)) * self.psi1(z) - complex(dpsi1(z)) / (
                data.lam * complex(data.eta_sq(z)))

        def psi(self, z):
            return np.array([self.psi1(z), self.psi2(z)], dtype=complex)

    return _Analytic()


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
