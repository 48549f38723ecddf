"""The su(2) linear problem: potential matrix, wavefunction transport
along contours and residual checks."""

import numpy as np
from scipy.integrate import solve_ivp

from .contour import holo_derivative
from .errors import EvaluationFailure, SingularPoint, StepSizeUnderflow

_RTOL = 1e-10
_ATOL = 1e-12


def _first(bad, z):
    """The first point of z where the bool array bad is set."""
    return complex(np.ravel(z)[np.argmax(np.ravel(bad))])


def potential_matrix(data, z):
    """lambda * eta^2 * [[chi, -1], [chi^2, -chi]]; traceless, rank <= 1.

    z may be an array; the result then has shape z.shape + (2, 2), and
    SingularPoint names the first point in an exclusion disc or where
    eta^2 or chi is not finite.
    """
    z = np.asarray(z, dtype=complex)
    for c, r in data.exclusions:
        inside = np.abs(z - c) < r
        if inside.any():
            raise SingularPoint(_first(inside, z))
    e = np.asarray(data.eta_sq(z), dtype=complex)
    x = np.asarray(data.chi(z), dtype=complex)
    bad = ~(np.isfinite(e) & np.isfinite(x))
    if bad.any():
        raise SingularPoint(_first(bad, z))
    s = data.lam * e
    return np.stack([np.stack([s * x, -s], axis=-1),
                     np.stack([s * x * x, -s * x], axis=-1)], axis=-2)


def _solve(ode, a, b, states, t_eval=None):
    """solve_ivp of the ODE along the n segments a -> b, one lane each.

    a and b are (n,) arrays and states the (2, n) values of (psi1,
    dpsi1/dz) at a; every lane runs on t in [0, 1] with z = a + t (b - a)
    and the solution's y stacks the psi1 lanes over the dpsi1 lanes.
    """
    a = np.asarray(a, dtype=complex)
    dz = np.asarray(b, dtype=complex) - a
    n = a.size

    def rhs(t, y):
        qp, rp = ode.ratios(a + t * dz)
        p, d = y[:n], y[n:]
        return np.concatenate([dz * d, dz * (-qp * d - rp * p)])

    y0 = np.asarray(states, dtype=complex).ravel()
    finite = np.isfinite(rhs(0.0, y0).reshape(2, n)).all(axis=0)
    if not finite.all():
        # from a non-finite slope RK45 picks a nan first step and never
        # leaves its step loop
        z = _first(~finite, a)
        raise EvaluationFailure(
            z, f"ODE right-hand side is not finite at z={z}")
    # RK45 accepts a step when the RMS over all 2n components of
    # err / (atol + rtol |y|) is <= 1.  Dividing both tolerances by
    # sqrt(n) makes that the condition that the sum of squares over all
    # lanes is <= 2, so every lane meets the criterion it would meet on
    # its own; one lane keeps the tolerances unchanged.
    scale = np.sqrt(n)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="RK45", rtol=_RTOL / scale,
                    atol=_ATOL / scale, t_eval=t_eval)
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    return sol


class Wavefunction:
    """Solution (psi1, psi2) of the linear problem.

    ``state_at`` maps z, a point or an array, to the stacked (psi1,
    dpsi1/dz) of shape (2,) + z.shape, where psi1 solves
    p psi1'' + q psi1' + r psi1 = 0; psi2 = chi psi1 - psi1' /
    (lambda eta^2).  ``psi`` and ``psi2`` take arrays too.
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
        chi = np.asarray(self.data.chi(z), dtype=complex)
        eta_sq = np.asarray(self.data.eta_sq(z), dtype=complex)
        return chi * p1 - d1 / (self.data.lam * eta_sq)

    def psi2(self, z):
        z = complex(z)
        return complex(self._psi2(z, *self.state_at(z)))

    def psi(self, z):
        """(psi1, psi2) at z from one state evaluation; shape z.shape +
        (2,) for an array."""
        z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
        p1, d1 = self.state_at(z)
        return np.stack([p1, self._psi2(z, p1, d1)], axis=-1)


def integrate_wavefunction(data, ode, init, path, samples_per_segment=24):
    """Transport (psi1, psi1') from the path start along a ContourPath.

    init is the pair (psi1, dpsi1/dz) at path.start.  The state is stored
    at ``samples_per_segment`` nodes per segment; off-path queries are
    answered by re-integrating a short straight segment from each query's
    nearest stored node, which keeps the extension holomorphic.  All the
    off-node points of one query are the lanes of one transport; a point
    that is a stored node is not transported.
    """
    state = np.array([[complex(init[0])], [complex(init[1])]])
    nodes = [np.array([path.start], dtype=complex)]
    states = [state]
    for a, b in path.segments():
        ts = np.linspace(0.0, 1.0, samples_per_segment + 1)[1:]
        sol = _solve(ode, [a], [b], state, t_eval=ts)
        nodes.append(a + sol.t * (b - a))
        states.append(sol.y)
        state = sol.y[:, -1:]
    nodes = np.concatenate(nodes)
    states = np.concatenate(states, axis=1)

    def state_at(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        idx = np.argmin(np.abs(nodes[None, :] - flat[:, None]), axis=1)
        out = states[:, idx]
        off = nodes[idx] != flat
        if off.any():
            out[:, off] = _solve(ode, nodes[idx[off]], flat[off],
                                 out[:, off]).y[:, -1].reshape(2, -1)
        return out.reshape((2,) + z.shape)

    return Wavefunction(data, ode, state_at)


def closed_form_wavefunction(data, ode, psi1, dpsi1):
    """The Wavefunction of analytic (psi1, psi1') callables."""
    return Wavefunction(data, ode, lambda z: np.array(
        [psi1(z), dpsi1(z)], dtype=complex))


def lp_residual(data, wf, z, h=None):
    """Relative linear-problem residual and antiholomorphy residual at z.

    Returns (res, dbar) with res = ||dPsi - U Psi|| / max(1, ||Psi||)
    and dbar the largest Cauchy-Riemann residual of the two components:
    floats for a point, arrays of z's shape for an array.  For an array
    the stencil of every point is one ``wf.psi`` call and Psi at the
    points another, so an integrated wavefunction makes two batched
    transports whatever the number of points.
    """
    d, cr = holo_derivative(wf.psi, z, h=h)
    psi = wf.psi(z)
    mismatch = d - (potential_matrix(data, z) @ psi[..., None])[..., 0]
    res = _norm(mismatch) / np.maximum(1.0, _norm(psi))
    return res, cr.max(axis=-1)


def _norm(v):
    """np.linalg.norm over the last axis, summed in the order it uses
    for one vector, so a point's value does not depend on the batch."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def zcc_residual(data, z, h=None):
    """Antiholomorphy residual ||dbar U|| of the potential matrix.

    With the holomorphic gauge the second potential vanishes, so the
    zero-curvature condition reduces to dbar U = 0.
    """
    _, cr = holo_derivative(lambda w: potential_matrix(data, w).ravel(),
                            complex(z), h=h)
    return float(cr.max())
