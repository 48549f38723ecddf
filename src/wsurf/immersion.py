"""The three immersion representations (Euclidean, quaternionic,
Sym-Tafel) and the finite-difference geometry report."""

from dataclasses import dataclass, field

import numpy as np

from .contour import contour_quad, gk15_segments, holo_derivative
from .errors import (EvaluationFailure, StencilOutsideDomain,
                     ToleranceNotReached, WsurfError)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

IDENTITY2 = np.eye(2, dtype=complex)


def ew_integrand(data):
    """Fused integrand z -> (eta^2, chi^2 eta^2, chi eta^2); shape (..., 3)."""
    eta_sq, chi = data.eta_sq, data.chi

    def integrand(z):
        e = np.asarray(eta_sq(z))
        x = np.asarray(chi(z))
        return np.stack([e, x ** 2 * e, x * e], axis=-1)

    return integrand


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


def immerse_ew(data, path, tol=1e-10):
    """Euclidean immersion F via the three contour integrals."""
    return combine_euclidean(*ew_integrals(data, path, tol))


def to_quaternionic(data, path, tol=1e-10):
    """su(2)-valued immersion; equals -i sum_k F_k sigma_k."""
    return combine_quaternionic(*ew_integrals(data, path, tol))


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
                    "hopfHolomorphy": "hopf_holomorphy",
                    "liouville": "liouville"}


@dataclass(frozen=True)
class GeometryReport:
    """Finite-difference residuals of the structure equations at a point,
    or (n,) arrays of them at n points."""

    z: complex
    u: float                     # log conformal factor from the data
    conformal_factor: float      # e^u
    hopf: complex                # Q = -eta^2 chi'
    conformality: float          # |(dF|dF)|
    metric: float                # |(dF|dbarF) - e^u/2|
    mean_curvature: float        # |H|
    hopf_residual: float         # |Q_fd - Q|
    hopf_holomorphy: float       # |dbar Q|
    liouville: float             # |ddbar u - 2|Q|^2 e^-u|
    step: float                  # finite-difference step actually used
    # {index: WsurfError} of the points whose report failed (array calls)
    failures: dict = field(default_factory=dict, compare=False)

    def as_dict(self):
        """The five residuals keyed by their RESIDUAL_COLUMNS names."""
        return {k: getattr(self, f) for k, f in RESIDUAL_COLUMNS.items()}


# stencil offsets (dx, dy) of the 8 legs from xi, in units of the step
_DX = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_DY = np.array([-1, 0, 1, -1, 1, -1, 0, 1])
_LEG = {(dx, dy): k for k, (dx, dy) in enumerate(zip(_DX, _DY))}
# the Liouville stencil's neighbours
_CROSS = np.array([1, -1, 1j, -1j])


def _distance_to_exclusions(data, xi):
    """(n,) distance of each point to its nearest singular point."""
    centers = np.array([c for c, _r in data.exclusions], dtype=complex)
    return np.abs(xi[:, None] - centers).min(axis=1, initial=np.inf)


def _stencil_legs(data, xi, h, tol, live, failures):
    """(n, 8, 3) ew_integrals along the legs from xi to its 8 stencil
    neighbours at step h, the legs of all live nodes in one gk15_segments
    call.  A node with a failed leg, or a leg above tol, goes into
    failures with that leg's error and out of live."""
    legs = np.full((len(xi), 8, 3), np.nan, dtype=complex)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return legs
    ends = xi[idx, None] + (_DX * h[idx, None] + 1j * _DY * h[idx, None])
    values, errors, failed = gk15_segments(
        ew_integrand(data), np.repeat(xi[idx], 8), ends.ravel(), tol)
    legs[idx] = values.reshape(-1, 8, 3)
    for leg in sorted(failed):
        failures.setdefault(int(idx[leg // 8]), failed[leg])
    worst = errors.max(axis=1).reshape(-1, 8)
    for i in np.flatnonzero(worst.max(axis=1) > tol):
        k = int(np.argmax(worst[i]))
        failures.setdefault(int(idx[i]), ToleranceNotReached(
            values[8 * i + k], float(worst[i, k])))
    live[list(failures)] = False
    return legs


def _evaluate(fn, xi, live, failures):
    """(n,) values of fn at the live nodes, nan elsewhere.

    fn(idx) gives the values at the node indices idx; it is called once
    on all live nodes, and only when that call raises a WsurfError node
    by node.  A node where fn raises or is not finite goes into failures
    and out of live.
    """
    out = np.full(len(xi), np.nan, dtype=complex)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return out
    try:
        out[idx] = fn(idx)
    except WsurfError:
        for node in idx:
            try:
                out[node] = fn(np.array([node]))[0]
            except WsurfError as exc:
                failures.setdefault(int(node), exc)
    for node in idx[~np.isfinite(out[idx])]:
        failures.setdefault(int(node), EvaluationFailure(complex(xi[node])))
    live[list(failures)] = False
    return out


def geometry_report(data, xi, h=None, tol=1e-12):
    """Numerically verify the differential-geometric identities at xi.

    The surface residuals are computed by finite differences of the
    quadrature surface itself (not from closed-form shortcuts), so the
    report can catch errors in the immersion integrals.  Steps shrink
    with the distance to the nearest singularity to keep truncation
    error bounded there.

    xi is a point or a 1-D array of points.  A point gives Python scalar
    fields and raises the WsurfError of a failed report.  An array gives
    (n,) array fields, with one gk15_segments call for all 8 n stencil
    legs and one array call per evaluation; a point whose report fails
    (its stencil reaches a singular point, a leg fails or misses tol, or
    an evaluation raises a WsurfError or is not finite) gets inf
    residuals and nan data, its error in ``failures``, and does not
    affect the other points.
    """
    scalar = np.ndim(xi) == 0
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    n = len(xi)
    dist = _distance_to_exclusions(data, xi)
    if h is None:
        h = 1e-3 * np.minimum(np.maximum(1.0, np.abs(xi)),
                              np.where(np.isfinite(dist), dist, 1.0))
    h = np.full(n, h, dtype=float)
    failures = {}
    # the discs only constrain path planning; the stencil just has to
    # keep clear of the singular points themselves
    for node in np.flatnonzero(np.isfinite(dist) & (dist <= 10 * h)):
        failures[int(node)] = StencilOutsideDomain(
            f"stencil at {complex(xi[node])} reaches a singular point "
            f"(distance {float(dist[node])})")
    live = np.ones(n, dtype=bool)
    live[list(failures)] = False

    # The stencil surface carries the full Weierstrass integrand as its
    # z-derivative (twice the displayed F), which is the normalization in
    # which (dF|dbarF) = e^u/2 and Q = -eta^2 chi' hold exactly.
    legs = _stencil_legs(data, xi, h, tol, live, failures)
    F = 2.0 * np.moveaxis(combine_euclidean(*np.moveaxis(legs, 2, 0)), 0, 2)

    def at(dx, dy):
        return 0.0 if dx == dy == 0 else F[:, _LEG[dx, dy]]

    u = _evaluate(lambda i: data.log_conformal_factor(xi[i]),
                  xi, live, failures).real
    e_u = _evaluate(lambda i: data.conformal_factor(xi[i]),
                    xi, live, failures).real
    q = _evaluate(lambda i: data.hopf(xi[i]), xi, live, failures)

    # Holomorphy of the Hopf coefficient.  The nested second-difference
    # route is hopelessly ill-conditioned near singular sets, so the
    # Cauchy-Riemann residual is taken on Q = -eta^2 chi' directly, with
    # a step shrinking quadratically in the singularity distance.
    h_q = 1e-4 * np.maximum(1.0, np.abs(xi))
    h_q = np.where(np.isfinite(dist),
                   np.minimum(h_q, np.maximum(5e-4 * dist * dist, 1e-6)), h_q)
    hopf_holomorphy = _evaluate(
        lambda i: holo_derivative(data.hopf, xi[i], h=h_q[i])[1],
        xi, live, failures).real

    # Liouville: ddbar u = 2 |Q|^2 e^-u, u taken from the data directly
    def cross_sum(i):
        uv = data.log_conformal_factor(xi[i, None] + _CROSS * h[i, None])
        return uv[:, 0] + uv[:, 1] + uv[:, 2] + uv[:, 3]

    cross = _evaluate(cross_sum, xi, live, failures).real

    hh = h[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        fx = (at(1, 0) - at(-1, 0)) / (2 * hh)
        fy = (at(0, 1) - at(0, -1)) / (2 * hh)
        dF = 0.5 * (fx - 1j * fy)
        conformality = np.abs(np.sum(dF * dF, axis=1))
        metric = np.abs(np.sum(dF * np.conj(dF), axis=1).real - 0.5 * e_u)

        normal = np.cross(fx, fy)
        normal = normal / np.linalg.norm(normal, axis=1, keepdims=True)

        lap = (at(1, 0) + at(-1, 0) + at(0, 1) + at(0, -1)
               - 4 * at(0, 0)) / hh ** 2
        mean_curvature = np.abs(2.0 / e_u * np.sum(0.25 * lap * normal,
                                                   axis=1))

        fxx = (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / hh ** 2
        fyy = (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / hh ** 2
        fxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * hh ** 2)
        d2F = 0.25 * (fxx - fyy - 2j * fxy)
        hopf_residual = np.abs(np.sum(d2F * normal, axis=1) - q)

        lap_u = (cross - 4 * u) / h ** 2
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
