"""The three immersion representations (Euclidean, quaternionic,
Sym-Tafel) and the Cauchy-circle geometry report."""

from dataclasses import dataclass, field

import numpy as np

from .contour import CIRCLE, CIRCLE_POINTS, contour_quad, holo_derivative
from .errors import (EvaluationFailure, OutOfRange, StencilOutsideDomain,
                     isolate_failures)
from .geometry import in_range
from .weierstrass import carry, edge_rows, ew_integrand, u_of_pair

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

IDENTITY2 = np.eye(2, dtype=complex)


def ew_integrals(data, path, tol=1e-10):
    """(int eta^2, int chi^2 eta^2, int chi eta^2) along the path, as an
    array."""
    return contour_quad(ew_integrand(data), path, tol)


def combine_euclidean(i1, i2, i3):
    return np.array([
        0.5 * (i1 - i2).real,
        -0.5 * (i1 + i2).imag,
        i3.real,
    ])


def combine_quaternionic(i1, i2, i3):
    return -0.5j * np.array([
        [i3 + np.conj(i3), i1 - np.conj(i2)],
        [-i2 + np.conj(i1), -i3 - np.conj(i3)],
    ])


def pauli_decompose(m):
    """Coefficients F_k with m = -i sum F_k sigma_k for anti-Hermitian m."""
    return np.array([
        (1j * 0.5 * np.trace(m @ s)).real for s in PAULI
    ])


def sym_tafel(chi_value):
    """Sym-Tafel immersion matrix for a single chi value; squares to -1."""
    x = complex(chi_value)
    n = 1.0 + abs(x) ** 2
    return (-1j / n) * np.array([
        [1.0 - abs(x) ** 2, 2.0 * np.conj(x)],
        [2.0 * x, -(1.0 - abs(x) ** 2)],
    ])


# residual names in mesh attributes and `wsurf sample` -> report fields
RESIDUAL_COLUMNS = {"conformality": "conformality", "metric": "metric",
                    "meanCurvature": "mean_curvature",
                    "hopfResidual": "hopf_residual",
                    "hopfHolomorphy": "hopf_holomorphy",
                    "liouville": "liouville"}


@dataclass(frozen=True)
class GeometryReport:
    """Cauchy-circle residuals of the structure equations at a point, or
    (n,) arrays of them at n points."""

    z: complex
    u: float                     # log conformal factor from the data
    conformal_factor: float      # e^u
    hopf: complex                # Q = -eta^2 chi'
    conformality: float          # |(dF|dF)|
    metric: float                # |(dF|dbarF) - e^u/2|
    mean_curvature: float        # |H|
    hopf_residual: float         # |F_zz . N - Q|
    hopf_holomorphy: float       # |dbar Q|
    liouville: float             # |ddbar u - 2|Q|^2 e^-u|
    step: float                  # radius of the circle actually used
    # {index: WsurfError} of the points whose report failed (array calls)
    failures: dict = field(default_factory=dict, compare=False)

    def as_dict(self):
        """The residuals keyed by their RESIDUAL_COLUMNS names."""
        return {k: getattr(self, f) for k, f in RESIDUAL_COLUMNS.items()}


def _distance_to_exclusions(data, xi):
    """(n,) distance of each point to its nearest singular point."""
    centers = np.array([c for c, _r in data.ode.exclusions()],
                       dtype=complex)
    return np.abs(xi[:, None] - centers).min(axis=1, initial=np.inf)


def _circle_legs(data, xi, h, tol, live, failures, pair):
    """The legs from xi to the points xi + h CIRCLE of its circle, as
    (point, legs, u): point is _point_data's (n, 5) at xi (from pair, if
    given), legs the (n, CIRCLE_POINTS, 3) integrals along the legs and
    u the (n, CIRCLE_POINTS) log conformal factor at their ends, nan at
    the nodes that are not live.

    The legs of all live nodes are one weierstrass.edge_rows call, whose
    rows need no start; weierstrass.carry then takes the pair at xi
    along them, and the pair at the legs' ends gives u.  A node whose
    leg fails, or whose point data fails, goes into failures with the
    first of those errors and out of live.
    """
    n = len(xi)
    rows = np.full((n, CIRCLE_POINTS, 5), np.nan, dtype=complex)
    idx = np.flatnonzero(live)
    if idx.size:
        ends = xi[idx, None] + h[idx, None] * CIRCLE
        values, failed = edge_rows(data, np.repeat(xi[idx], CIRCLE_POINTS),
                                   ends.ravel(), tol)
        rows[idx] = values.reshape(-1, CIRCLE_POINTS, 5)
        for leg in sorted(failed):
            failures.setdefault(int(idx[leg // CIRCLE_POINTS]), failed[leg])
        live[list(failures)] = False
    point = _live_values(
        lambda i: _point_data(data, xi[i], None if pair is None
                              else (pair[0][i], pair[1][i])),
        xi, live, failures, 5)
    # the legs start with no integral: -0.0 keeps the rows' own bits
    start = np.full((n, 1, 5), complex(-0.0, -0.0))
    start[:, 0, 3:] = point[:, 3:]
    # a state that is not finite fails its node in _circle_values
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        state = carry(data, start, rows)
        u = u_of_pair(state[..., 3], state[..., 4])
    return point, state[..., :3], u


def _live_values(fn, xi, live, failures, k):
    """(n, k) values of fn at the live nodes, nan elsewhere.

    fn(idx) gives the (len(idx), k) values at the node indices idx,
    evaluated through isolate_failures.  A node where fn raises or is
    not finite goes into failures and out of live.
    """
    out = np.full((len(xi), k), np.nan, dtype=complex)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return out
    out[idx], failed = isolate_failures(fn, idx)
    for i in sorted(failed):
        failures.setdefault(int(idx[i]), failed[i])
    for node in idx[~np.isfinite(out[idx]).all(axis=1)]:
        failures.setdefault(int(node), EvaluationFailure(complex(xi[node])))
    live[list(failures)] = False
    return out


def _point_data(data, z, pair=None):
    """(n, 5) values (u, e^u, Q, eta^2, chi) at the points z, from one
    pair evaluation, or from the pair (eta^2, chi) at z if given; Q
    (WeierstrassData.hopf) only where u and e^u are finite, so that a
    point fails on them first."""
    eta_sq, chi = data.pair(z) if pair is None else pair
    half = np.abs(eta_sq) * (1 + np.abs(chi) ** 2)
    values = np.full((len(z), 5), np.nan, dtype=complex)
    values[:, 0], values[:, 1] = 2.0 * np.log(half), half * half
    values[:, 3], values[:, 4] = eta_sq, chi
    ok = np.isfinite(values[:, :2]).all(axis=1)
    values[ok, 2] = data.hopf(z[ok])
    return values


def _circle_values(data, xi, h, u_circle):
    """(n, 2) circle means of u and antiholomorphy residuals of Q, from
    one holo_derivative call on the stacked (u, Q), u on the circles
    given as u_circle, (n, CIRCLE_POINTS).  Q only once u is finite on
    every circle, so that a circle fails on u first."""
    def u_and_hopf(w):
        u = u_circle.T
        finite = np.isfinite(u).ravel()
        if not finite.all():
            raise EvaluationFailure(complex(w.ravel()[np.argmin(finite)]))
        return np.stack([u, data.hopf(w)], axis=-1)

    mean, _, cr = holo_derivative(u_and_hopf, xi, r=h)
    return np.stack([mean[:, 0], cr[:, 1]], axis=-1)


def geometry_report(data, xi, tol=1e-12, pair=None):
    """Numerically verify the differential-geometric identities at xi.

    The surface residuals come from the quadrature surface itself (not
    from closed-form shortcuts), so the report can catch errors in the
    immersion integrals.  Every derivative comes from the Cauchy-circle
    rule of contour.holo_derivative on one circle, xi + h CIRCLE with
    h = 1e-3 min(max(1, |xi|), distance to the nearest singular point).
    The legs from xi give the surface F on the circle, with F(xi) = 0;
    its Fourier coefficients c_j over the circle give F_z = c_1 / h,
    F_zz = 2 c_2 / h^2 and Delta F = 4 Re c_0 / h^2.  The circle mean of
    u, u + h^2 Delta u / 4 + O(h^4), gives the Liouville residual, and
    the antiholomorphy residual of Q on the circle its holomorphy.

    xi is a point or a 1-D array of points.  A point gives Python scalar
    fields and raises the WsurfError of a failed report.  An array gives
    (n,) array fields, from one weierstrass.edge_rows call for all N n
    legs (_circle_legs) and two passes over the pair's data: _point_data
    at the points and _circle_values on their circles, with u on the
    circles taken from the legs' ends.  pair, the (eta^2, chi) arrays at
    the array xi if the caller has them (a grid's forest), replaces the
    pair's evaluation at xi.  A point whose report fails (it lies on a
    singular point, a leg fails, or an evaluation raises a WsurfError or
    is not finite) gets inf residuals and nan data, its error in
    ``failures``, and does not affect the other points.
    """
    scalar = np.ndim(xi) == 0
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    dist = _distance_to_exclusions(data, xi)
    h = 1e-3 * np.minimum(np.maximum(1.0, np.abs(xi)),
                          np.where(np.isfinite(dist), dist, 1.0))
    failures = {}
    # the discs only constrain path planning; the circle, a thousandth
    # of the way to the nearest singular point, only vanishes on one
    for node in np.flatnonzero(h == 0):
        failures[int(node)] = StencilOutsideDomain(
            f"no circle around {complex(xi[node])}: it lies on a singular "
            f"point (distance {float(dist[node])})")
    far = np.isfinite(xi) & ~in_range(xi)
    for node in np.flatnonzero(far):
        failures[int(node)] = OutOfRange(complex(xi[node]))
    h[far] = np.nan                     # h^2 would overflow there
    live = (h != 0) & ~far

    # The legs carry the full Weierstrass integrand as F's z-derivative
    # (twice the displayed F), which is the normalization in which
    # (dF|dbarF) = e^u/2 and Q = -eta^2 chi' hold exactly.
    point, legs, u_circle = _circle_legs(data, xi, h, tol, live, failures,
                                         pair)
    F = 2.0 * np.moveaxis(combine_euclidean(*np.moveaxis(legs, 2, 0)), 0, 2)
    c = np.fft.fft(F, axis=1) / CIRCLE_POINTS

    u, e_u, q = point[:, :3].T
    u, e_u = u.real, e_u.real
    u_mean, hopf_holomorphy = _live_values(
        lambda i: _circle_values(data, xi[i], h[i], u_circle[i]),
        xi, live, failures, 2).real.T

    hh = h[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        dF = c[:, 1] / hh
        d2F = 2.0 * c[:, 2] / hh ** 2
        lap = 4.0 * c[:, 0].real / hh ** 2
        conformality = np.abs(np.sum(dF * dF, axis=1))
        metric = np.abs(np.sum(dF * np.conj(dF), axis=1).real - 0.5 * e_u)

        # F_x = 2 Re F_z and F_y = -2 Im F_z
        normal = np.cross(dF.real, -dF.imag)
        normal = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        mean_curvature = np.abs(2.0 / e_u * np.sum(0.25 * lap * normal,
                                                   axis=1))
        hopf_residual = np.abs(np.sum(d2F * normal, axis=1) - q)

        lap_u = 4.0 * (u_mean - u) / h ** 2
        liouville = np.abs(0.25 * lap_u - 2.0 * np.abs(q) ** 2 / e_u)

    residuals = dict(conformality=conformality, metric=metric,
                     mean_curvature=mean_curvature,
                     hopf_residual=hopf_residual,
                     hopf_holomorphy=hopf_holomorphy, liouville=liouville)
    for r in residuals.values():
        r[~live] = np.inf
    for r in (u, e_u, q):
        r[~live] = np.nan
    if scalar:
        if failures:
            raise failures[0]
        return GeometryReport(
            z=complex(xi[0]), u=float(u[0]), conformal_factor=float(e_u[0]),
            hopf=complex(q[0]), step=float(h[0]),
            **{k: float(r[0]) for k, r in residuals.items()})
    return GeometryReport(z=xi, u=u, conformal_factor=e_u, hopf=q, step=h,
                          failures=failures, **residuals)
