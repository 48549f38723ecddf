"""The three immersion representations (Euclidean, quaternionic,
Sym-Tafel) and the finite-difference geometry report."""

from dataclasses import dataclass

import numpy as np

from .contour import contour_quad, gk15_segments, holo_derivative
from .errors import StencilOutsideDomain, ToleranceNotReached

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


def _stencil_legs(data, xi, offsets, tol):
    """(m, 3) ew_integrals along the straight legs xi -> xi + offsets[k],
    each leg held to tol, in one gk15_segments call."""
    ends = xi + offsets
    values, errors, failures = gk15_segments(
        ew_integrand(data), np.full(len(ends), xi), ends, tol)
    if failures:
        raise failures[min(failures)]
    worst = errors.max(axis=1)
    if worst.max() > tol:
        k = int(np.argmax(worst))
        raise ToleranceNotReached(values[k], float(worst[k]))
    return values


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
    """Finite-difference residuals of the structure equations at a point."""

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

    def as_dict(self):
        """The five residuals keyed by their RESIDUAL_COLUMNS names."""
        return {k: getattr(self, f) for k, f in RESIDUAL_COLUMNS.items()}


def _distance_to_exclusions(data, xi):
    if not data.exclusions:
        return np.inf
    return min(abs(xi - c) for c, _r in data.exclusions)


def geometry_report(data, xi, h=None, tol=1e-12):
    """Numerically verify the differential-geometric identities at xi.

    The surface residuals are computed by finite differences of the
    quadrature surface itself (not from closed-form shortcuts), so the
    report can catch errors in the immersion integrals.  Steps shrink
    with the distance to the nearest singularity to keep truncation
    error bounded there.
    """
    xi = complex(xi)
    dist = _distance_to_exclusions(data, xi)
    if h is None:
        h = 1e-3 * min(max(1.0, abs(xi)), dist if np.isfinite(dist) else 1.0)
    # the discs only constrain path planning; the stencil just has to
    # keep clear of the singular points themselves
    if np.isfinite(dist) and dist < 10 * h:
        raise StencilOutsideDomain(
            f"stencil at {xi} reaches a singular point (distance {dist})")

    # The stencil surface carries the full Weierstrass integrand as its
    # z-derivative (twice the displayed F), which is the normalization in
    # which (dF|dbarF) = e^u/2 and Q = -eta^2 chi' hold exactly.
    offsets = [dx * h + 1j * dy * h
               for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    legs = _stencil_legs(data, xi, np.array(offsets), tol)
    F = {0: np.zeros(3)}
    for off, leg in zip(offsets, legs):
        F[off] = 2.0 * combine_euclidean(*leg)

    def at(dx, dy):
        return F[dx * h + 1j * dy * h]

    fx = (at(1, 0) - at(-1, 0)) / (2 * h)
    fy = (at(0, 1) - at(0, -1)) / (2 * h)
    dF = 0.5 * (fx - 1j * fy)

    conformality = abs(np.sum(dF * dF))

    u = data.log_conformal_factor(xi)
    e_u = data.conformal_factor(xi)
    metric = abs(float(np.sum(dF * np.conj(dF)).real) - 0.5 * e_u)

    normal = np.cross(fx, fy)
    normal = normal / np.linalg.norm(normal)

    lap = (at(1, 0) + at(-1, 0) + at(0, 1) + at(0, -1) - 4 * at(0, 0)) / h ** 2
    mean_curvature = abs(2.0 / e_u * float(np.dot(0.25 * lap, normal)))

    fxx = (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / h ** 2
    fyy = (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / h ** 2
    fxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h ** 2)
    d2F = 0.25 * (fxx - fyy - 2j * fxy)
    q_fd = complex(np.dot(d2F, normal))
    q = data.hopf(xi)
    hopf_residual = abs(q_fd - q)

    # Holomorphy of the Hopf coefficient.  The nested second-difference
    # route is hopelessly ill-conditioned near singular sets, so the
    # Cauchy-Riemann residual is taken on Q = -eta^2 chi' directly, with
    # a step shrinking quadratically in the singularity distance.
    if np.isfinite(dist):
        h_q = min(1e-4 * max(1.0, abs(xi)), max(5e-4 * dist * dist, 1e-6))
    else:
        h_q = 1e-4 * max(1.0, abs(xi))
    _, hopf_holomorphy = holo_derivative(data.hopf, xi, h=h_q)

    # Liouville: ddbar u = 2 |Q|^2 e^-u, u taken from the data directly
    uval = {}
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)):
        uval[(dx, dy)] = data.log_conformal_factor(xi + dx * h + 1j * dy * h)
    lap_u = (uval[(1, 0)] + uval[(-1, 0)] + uval[(0, 1)] + uval[(0, -1)]
             - 4 * uval[(0, 0)]) / h ** 2
    liouville = abs(0.25 * lap_u - 2.0 * abs(q) ** 2 / e_u)

    return GeometryReport(
        z=xi, u=u, conformal_factor=e_u, hopf=q,
        conformality=conformality, metric=metric,
        mean_curvature=mean_curvature, hopf_residual=hopf_residual,
        hopf_holomorphy=hopf_holomorphy, liouville=liouville, step=h,
    )
