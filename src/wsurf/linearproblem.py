"""The su(2) linear problem: potential matrix, wavefunction transport
along contours and residual checks."""

import numpy as np
from numpy.polynomial import chebyshev as _chebyshev
# not used here: bench/spans.py counts ODE solves through this name
from scipy.integrate import solve_ivp  # noqa: F401

from .contour import holo_derivative
from .errors import (EvaluationFailure, SingularPoint, SolutionOverflow,
                     StepSizeUnderflow)

# A panel [t, t + h] of a lane's parameter t in [0, 1] is sampled at
# _M second-kind Chebyshev points, _U on [0, 1] in ascending order, so
# that its first and last points are its ends.  _S maps values at them
# to the integral from 0 at them (its first row is exactly 0, so a
# panel starts at exactly the state it was given), and _TAIL maps them
# to their interpolant's last three Chebyshev coefficients.
_M = 24
_U = (1 - np.cos(np.pi * np.arange(_M) / (_M - 1))) / 2
_VALUES_TO_COEFFS = np.linalg.inv(_chebyshev.chebvander(2 * _U - 1, _M - 1))
_S = (_chebyshev.chebvander(2 * _U - 1, _M)
      @ _chebyshev.chebint(np.eye(_M), lbnd=-1) @ _VALUES_TO_COEFFS) / 2
_S[0] = 0.0
_TAIL = _VALUES_TO_COEFFS[-3:]
# a panel is accepted when both components' tails are below this times
# their largest value on it, or below the smallest normal float for a
# component decaying into subnormals
_TAIL_TOL = 1e-14
_TAIL_FLOOR = np.finfo(float).tiny / _TAIL_TOL
# a lane whose panel would be shorter than this part of it raises
# StepSizeUnderflow: it is approaching a singular point
_H_MIN = 1e-10
# panels one transport may try per lane before it raises
# StepSizeUnderflow, so that a solution oscillating too fast to
# resolve fails instead of hanging
_MAX_PANELS = 10_000


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
    for c, r in data.ode.exclusions():
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


def transport(ode, a, b, states):
    """Transport (psi1, dpsi1/dz) along the n segments a -> b, one lane each.

    a and b are (n,) arrays and states the (2, n) values of (psi1,
    dpsi1/dz) at a.  Each lane runs on t in [0, 1] with z = a + t (b - a),
    in panels [t, t + h]: on one, the linear ODE for Y = (psi1, dpsi1/dz)
    is the integral equation Y = Y(t) + S (A Y), with A = (b - a) h
    [[0, 1], [-r/p, -q/p]] at the panel's Chebyshev points, solved as one
    2M x 2M linear system.  A panel is accepted when the Chebyshev tails
    of both components are small, and h then doubles (up to the rest of
    the lane); otherwise h halves.  Every step samples the ratios of all
    active lanes in one ``ode.ratios`` call and solves their systems in
    one stacked ``np.linalg.solve``, but a lane's panels depend only on
    that lane, so its result does not depend on its batch.

    Returns (ends, panels): ends the (2, n) states at b, and panels the
    accepted panels in order, as (lanes, z, y) with z the (k, M) points
    and y the (k, 2, M) states of the k lanes indexed by ``lanes``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dz = b - a
    y = np.asarray(states, dtype=complex).reshape(2, -1).T.copy()
    t = np.zeros(a.size)
    h = np.ones(a.size)
    lanes = np.arange(a.size)
    panels = []
    for _ in range(_MAX_PANELS):
        if not lanes.size:
            return y.T, panels
        tk, hk, last = t[lanes], h[lanes], h[lanes] == 1 - t[lanes]
        z = a[lanes, None] + (tk[:, None] + hk[:, None] * _U) \
            * dz[lanes, None]
        z[last, -1] = b[lanes[last]]
        qp, rp = ode.ratios(z)
        # a panel starts where an accepted one ended, so this can only
        # fire at the start of a lane
        start = ~(np.isfinite(qp[:, 0]) & np.isfinite(rp[:, 0])
                  & np.isfinite(y[lanes]).all(axis=1))
        if start.any():
            w = _first(start, z[:, 0])
            raise EvaluationFailure(
                w, f"ODE right-hand side is not finite at z={w}")
        c = (dz[lanes] * hk)[:, None, None]
        system = np.zeros((lanes.size, 2, _M, 2, _M), dtype=complex)
        system[:, 0, :, 0] = system[:, 1, :, 1] = np.eye(_M)
        system[:, 0, :, 1] = -c * _S
        system[:, 1, :, 0] = c * _S * rp[:, None, :]
        system[:, 1, :, 1] += c * _S * qp[:, None, :]
        rhs = np.repeat(y[lanes], _M, axis=1)
        ys = np.linalg.solve(system.reshape(-1, 2 * _M, 2 * _M),
                             rhs[..., None]).reshape(-1, 2, _M)
        # a panel where the solution overflowed is rejected, not warned of
        with np.errstate(invalid="ignore", over="ignore"):
            tail = np.abs((ys[:, :, None, :] * _TAIL).sum(axis=-1))
            finite = np.isfinite(tail).all(axis=(1, 2))
            scale = np.maximum(np.abs(ys).max(axis=-1), _TAIL_FLOOR)
            ok = finite & np.all(tail.max(axis=-1) <= _TAIL_TOL * scale,
                                 axis=1)
        done = lanes[ok]
        if done.size:
            panels.append((done, z[ok], ys[ok]))
        y[done] = ys[ok, :, -1]
        t[done] += h[done]
        h[done] = np.minimum(2 * h[done], 1 - t[done])
        h[lanes[~ok]] /= 2
        short = ~ok & (hk / 2 < _H_MIN)
        if short.any():
            k = np.argmax(short)
            if not finite[k]:
                raise SolutionOverflow(
                    f"transport solution overflowed at z={z[k, 0]}")
            raise StepSizeUnderflow(
                f"transport panel below {_H_MIN:g} of its segment at "
                f"z={z[k, 0]}")
        lanes = lanes[~(ok & last)]
    raise StepSizeUnderflow(
        f"transport took more than {_MAX_PANELS} panels")


class Wavefunction:
    """Solution (psi1, psi2) of the linear problem.

    ``state_at`` maps z, a point or an array, to the stacked (psi1,
    dpsi1/dz) of shape (2,) + z.shape, where psi1 solves
    p psi1'' + q psi1' + r psi1 = 0, the ODE of the pair ``data``; psi2 =
    chi psi1 - psi1' / (lambda eta^2).  ``psi`` takes arrays too;
    ``psi1``, ``dpsi1`` and ``psi2`` take a point.
    """

    def __init__(self, data, state_at):
        self.data = data
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


def integrate_wavefunction(data, init, path):
    """Transport (psi1, psi1') of the pair's ODE from the path start
    along a ContourPath.

    init is the pair (psi1, dpsi1/dz) at path.start.  The state is stored
    at the Chebyshev points of the accepted panels of every segment;
    off-path queries are answered by transporting along a short straight
    segment from each query's nearest stored node, which keeps the
    extension holomorphic.  All the off-node points of one query are the
    lanes of one transport; a point that is a stored node is not
    transported.
    """
    ode = data.ode
    state = np.array([[complex(init[0])], [complex(init[1])]])
    nodes = [np.array([path.start], dtype=complex)]
    states = [state]
    for a, b in path.segments():
        state, panels = transport(ode, [a], [b], state)
        # a panel's first point is the previous one's last
        nodes.extend(z[0, 1:] for _, z, _ in panels)
        states.extend(y[0, :, 1:] for _, _, y in panels)
    nodes = np.concatenate(nodes)
    states = np.concatenate(states, axis=1)

    def state_at(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        idx = np.argmin(np.abs(nodes[None, :] - flat[:, None]), axis=1)
        out = states[:, idx]
        off = nodes[idx] != flat
        if off.any():
            out[:, off] = transport(ode, nodes[idx[off]], flat[off],
                                    out[:, off])[0]
        return out.reshape((2,) + z.shape)

    return Wavefunction(data, state_at)


def closed_form_wavefunction(data, psi1, dpsi1):
    """The Wavefunction of analytic (psi1, psi1') callables; a callable
    giving a constant is broadcast to the points it is called on."""
    return Wavefunction(data, lambda z: np.array(
        np.broadcast_arrays(psi1(z), dpsi1(z), z)[:2], dtype=complex))


def lp_residual(data, wf, z):
    """Relative linear-problem residual and antiholomorphy residual at z.

    Returns (res, dbar) with res = ||dPsi - U Psi|| / max(1, ||Psi||)
    and dbar the largest Cauchy-Riemann residual of the two components:
    floats for a point, arrays of z's shape for an array.  Psi, dPsi and
    dbar all come from one holo_derivative call, so one ``wf.psi`` call
    on the circles of every point: an integrated wavefunction makes one
    batched transport whatever the number of points.
    """
    psi, d, cr = holo_derivative(wf.psi, z)
    mismatch = d - (potential_matrix(data, z) @ psi[..., None])[..., 0]
    res = _norm(mismatch) / np.maximum(1.0, _norm(psi))
    return res, cr.max(axis=-1)


def _norm(v):
    """np.linalg.norm over the last axis, summed in the order it uses
    for one vector, so a point's value does not depend on the batch."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def zcc_residual(data, z):
    """Antiholomorphy residual ||dbar U|| of the potential matrix.

    With the holomorphic gauge the second potential vanishes, so the
    zero-curvature condition reduces to dbar U = 0.
    """
    _, _, cr = holo_derivative(
        lambda w: potential_matrix(data, w).reshape(w.shape + (4,)), z)
    return float(cr.max())
