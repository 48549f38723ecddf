"""The su(2) linear problem: potential matrix, wavefunction transport
along contours and residual checks."""

import numpy as np

from .contour import (PANEL_POINTS, PANEL_S, PANEL_TAIL, holo_derivative,
                      panel_lanes)
from .errors import SingularPoint
from .geometry import Obstacles
from .weierstrass import reach

# transport's tails must be below this times their component's largest
# value on the panel, or the smallest normal float (for subnormals)
_TAIL_TOL = 1e-14
_TAIL_FLOOR = np.finfo(float).tiny / _TAIL_TOL


def __getattr__(name):
    # solve_ivp is not used here: it is the name through which the
    # benchmark tracer (bench/spans.py) counts ODE solves, and ROADMAP
    # item 7 deletes it.  Importing it on first access keeps
    # scipy.integrate (and scipy.optimize) out of every CLI start.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    e, x = (np.asarray(v, dtype=complex) for v in data.pair(z))
    bad = ~(np.isfinite(e) & np.isfinite(x))
    if bad.any():
        raise SingularPoint(_first(bad, z))
    s = data.lam * e
    return np.stack([np.stack([s * x, -s], axis=-1),
                     np.stack([s * x * x, -s * x], axis=-1)], axis=-2)


# S^2 and S 1, for psi1 = psi1(t) + c S 1 psi1'(t) + c^2 S^2 psi1''
_PANEL_S2 = PANEL_S @ PANEL_S
_PANEL_TAU = PANEL_S.sum(axis=1)


def _transport_step(y, c, h, qp, rp):
    """transport's panel rule for contour.panel_lanes."""
    c = c[:, None]
    d0 = y[:, 1:]
    start = y[:, :1] + c * _PANEL_TAU * d0
    system = (np.eye(PANEL_POINTS) + (c * qp)[:, :, None] * PANEL_S
              + (c * c * rp)[:, :, None] * _PANEL_S2)
    # a panel where the solution overflowed is rejected, not warned of
    with np.errstate(invalid="ignore", over="ignore"):
        # w = c^2 psi1'' is psi1's second derivative on the panel's
        # [0, 1], so that a psi1' decaying into subnormals keeps its
        # digits.  The temporary goes first: numpy reuses a large
        # right-hand temporary in place with the operands swapped, and
        # a complex product's rounding depends on their order
        w = np.linalg.solve(system, ((qp * d0 + rp * start)
                                     * (-c * c))[..., None]).swapaxes(1, 2)
        # per-lane (1 x M) products, since a 2-D gemm's rounding of a
        # row depends on the number of rows.  w = 0 where c^2 underflows
        # to 0, and a complex division by a subnormal c would give nan
        ys = np.stack([start + (w @ _PANEL_S2.T)[:, 0],
                       d0 + (w @ PANEL_S.T)[:, 0]
                       / np.where(c * c == 0, 1, c)], axis=1)
        tail = np.abs((ys[:, :, None, :] * PANEL_TAIL).sum(axis=-1))
        finite = np.isfinite(tail).all(axis=(1, 2))
        scale = np.maximum(np.abs(ys).max(axis=-1), _TAIL_FLOOR)
        ok = finite & np.all(tail.max(axis=-1) <= _TAIL_TOL * scale, axis=1)
    return ys, ok


def transport(ode, a, b, states):
    """Transport (psi1, dpsi1/dz) along the n segments a -> b, one lane each.

    states are the (2, n) values at a.  In contour.panel_lanes, a panel
    of scale c = (b - a) h solves for psi1'' at its M = PANEL_POINTS
    points (Greengard, SIAM J. Numer. Anal. 28, 1991): psi1' = psi1'(t)
    + c S psi1'' and psi1 = psi1(t) + c S 1 psi1'(t) + c^2 S^2 psi1'', so
    the ODE is one M x M system with the matrix I + c (q/p) S +
    c^2 (r/p) S^2 per lane, solved for all lanes in one stacked
    ``np.linalg.solve``.  A panel is accepted when both components'
    Chebyshev tails are small relative to them.  Returns the (2, n)
    states at b and the accepted panels.
    """
    y = np.asarray(states, dtype=complex).reshape(2, -1).T
    ends, panels = panel_lanes(ode, a, b, y, _transport_step, True)
    return ends.T, panels


class Wavefunction:
    """Solution (psi1, psi2) of the linear problem.

    ``state_at`` maps z, a point or an array, to the stacked (psi1,
    dpsi1/dz) of shape (2,) + z.shape, where psi1 solves
    p psi1'' + q psi1' + r psi1 = 0, the ODE of the pair ``data``; psi2 =
    chi psi1 - psi1' / (lambda eta^2).
    """

    def __init__(self, data, state_at):
        self.data = data
        self.state_at = state_at

    def psi(self, z):
        """(psi1, psi2) at z, a point or an array, from one state
        evaluation; shape z.shape + (2,)."""
        z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
        p1, d1 = self.state_at(z)
        eta_sq, chi = (np.asarray(v, dtype=complex)
                       for v in self.data.pair(z))
        return np.stack([p1, chi * p1 - d1 / (self.data.lam * eta_sq)],
                        axis=-1)


def integrate_wavefunction(data, init, path):
    """Transport (psi1, psi1') of the pair's ODE from the path start
    along a ContourPath.

    init is the pair (psi1, dpsi1/dz) at path.start.  The state is stored
    at the Chebyshev points of the accepted panels of every segment.  An
    off-node query is transported from its nearest node along the legal
    legs of weierstrass.reach, so that it stays on the path's sheet
    across a cut ray; the legs of one query are the lanes of one
    transport per round of reach.
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
    obstacles = Obstacles(ode.exclusions(), ode.cut_rays)
    legs = lambda a, b, start: (transport(ode, a, b, start.T)[0].T, {})

    def state_at(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        idx = np.argmin(np.abs(nodes[None, :] - flat[:, None]), axis=1)
        out = states[:, idx]
        off = nodes[idx] != flat
        if off.any():
            values, failures = reach(obstacles, legs, nodes[idx[off]],
                                     out[:, off].T, flat[off])
            if failures:
                raise failures[min(failures)]
            out[:, off] = values.T
        return out.reshape((2,) + z.shape)

    return Wavefunction(data, state_at)


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
