"""Contour paths, adaptive Gauss-Kronrod quadrature and holomorphic
finite-difference derivatives in the complex plane."""

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationFailure, ToleranceNotReached
from .geometry import segment_crosses_ray, segment_hits_disc

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights aligned with the odd Kronrod node indices 1,3,...,13.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

MAX_DEPTH = 40


@dataclass(frozen=True)
class ContourPath:
    """Piecewise-linear path in the complex plane.

    waypoints       ordered complex points, len >= 2, consecutive distinct
    excluded_points list of (center, radius) discs no segment may enter
    cut_rays        list of (anchor, unit direction) half-lines no segment
                    may cross
    """

    waypoints: tuple
    excluded_points: tuple = field(default_factory=tuple)
    cut_rays: tuple = field(default_factory=tuple)

    def __post_init__(self):
        wp = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wp)
        object.__setattr__(self, "excluded_points",
                           tuple((complex(c), float(r)) for c, r in self.excluded_points))
        object.__setattr__(self, "cut_rays",
                           tuple((complex(a), complex(d) / abs(complex(d)))
                                 for a, d in self.cut_rays))
        if len(wp) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(wp, wp[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        for (c, r) in self.excluded_points:
            if r <= 0:
                raise ValueError("exclusion radius must be positive")
            for a, b in self.segments():
                if segment_hits_disc(a, b, c, r):
                    raise ValueError(
                        f"segment {a}->{b} enters exclusion disc at {c} (r={r})")
        for (anchor, direction) in self.cut_rays:
            for a, b in self.segments():
                if segment_crosses_ray(a, b, anchor, direction):
                    raise ValueError(
                        f"segment {a}->{b} crosses cut ray from {anchor}")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    @property
    def start(self):
        return self.waypoints[0]

    @property
    def end(self):
        return self.waypoints[-1]

    def length(self):
        return sum(abs(b - a) for a, b in self.segments())

    def reversed(self):
        return ContourPath(tuple(reversed(self.waypoints)),
                           self.excluded_points, self.cut_rays)


def straight_path(a, b, excluded_points=(), cut_rays=()):
    """Convenience constructor for a single-segment path."""
    return ContourPath((a, b), tuple(excluded_points), tuple(cut_rays))


def _eval_vectorized(f, nodes):
    try:
        vals = np.asarray(f(nodes), dtype=complex)
        if vals.shape[:1] != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([f(complex(z)) for z in nodes], dtype=complex)
    if not np.isfinite(vals).all():
        finite = np.isfinite(vals).reshape(len(nodes), -1).all(axis=1)
        raise EvaluationFailure(complex(nodes[~finite][0]))
    return vals


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    vals = _eval_vectorized(f, 0.5 * (a + b) + half * _XK)
    k15 = half * (_WK @ vals)
    g7 = half * (_WG @ vals[1::2])
    return k15, np.abs(k15 - g7)


def _adaptive_segment(f, a, b, tol, depth):
    k15, err = _gk15(f, a, b)
    if err.max() <= tol or depth >= MAX_DEPTH:
        return k15, err
    mid = 0.5 * (a + b)
    left, el = _adaptive_segment(f, a, mid, tol / 2, depth + 1)
    right, er = _adaptive_segment(f, mid, b, tol / 2, depth + 1)
    return left + right, el + er


def contour_quad(f, path, tol=1e-10):
    """Integrate f along a ContourPath to absolute tolerance tol.

    f must accept complex scalars or numpy arrays of them.  Values of
    shape (n,) give a complex result; values of shape (n, k) give a (k,)
    result with every component held to tol.  Raises ToleranceNotReached
    when adaptive bisection bottoms out above tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    total_len = path.length()
    parts = [_adaptive_segment(f, a, b, tol * abs(b - a) / total_len, 0)
             for a, b in path.segments()]
    result = sum(val for val, _ in parts)
    achieved = np.max(sum(err for _, err in parts))
    if achieved > tol:
        raise ToleranceNotReached(result, float(achieved))
    return result


def holo_derivative(f, z, order=1, h=None):
    """Central-difference estimate of the holomorphic derivative of f.

    Returns (derivative, cr_residual) where cr_residual = |dbar f| is the
    first-order Cauchy-Riemann residual at z; it vanishes for holomorphic
    f up to truncation error.  order=2 returns the second holomorphic
    derivative (with a larger default step to balance rounding).
    """
    z = complex(z)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if h is None:
        h = (1e-5 if order == 1 else 1e-4) * max(1.0, abs(z))

    def ev(w):
        v = complex(f(w))
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise EvaluationFailure(w)
        return v

    fr_p, fr_m = ev(z + h), ev(z - h)
    fi_p, fi_m = ev(z + 1j * h), ev(z - 1j * h)
    fx = (fr_p - fr_m) / (2 * h)
    fy = (fi_p - fi_m) / (2 * h)
    d1 = 0.5 * (fx - 1j * fy)
    cr = abs(0.5 * (fx + 1j * fy))
    if order == 1:
        return d1, cr
    f0 = ev(z)
    fxx = (fr_p - 2 * f0 + fr_m) / h ** 2
    fyy = (fi_p - 2 * f0 + fi_m) / h ** 2
    fpp, fpm = ev(z + h + 1j * h), ev(z + h - 1j * h)
    fmp, fmm = ev(z - h + 1j * h), ev(z - h - 1j * h)
    fxy = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
    d2 = 0.25 * (fxx - fyy - 2j * fxy)
    return d2, cr
