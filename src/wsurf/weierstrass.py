"""Construction of the Weierstrass pair (eta^2, chi) for an ODE.

Closed-form overrides are provided for the cataloged equations; the
numeric route builds both functions as memoized contour antiderivatives
of the coefficient ratios, anchored at a base point so that numeric and
closed-form data agree wherever both exist.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sps

from .contour import contour_quad, holo_derivative, straight_path
from .errors import SingularPoint
from .geometry import Obstacles
# not used here: bench/spans.py counts segment tests through these names
from .geometry import segment_crosses_ray, segment_hits_disc  # noqa: F401
from .pathplan import plan_path


@dataclass
class WeierstrassData:
    """Holomorphic pair (eta^2, chi) plus constants and base point."""

    eta_sq: object               # callable z -> complex
    chi: object                  # callable z -> complex
    c1: complex
    c2: complex
    lam: complex
    base_point: complex
    source: str                  # "closed_form" | "numeric"
    dchi: object = None          # analytic d(chi)/dz when available
    exclusions: tuple = field(default_factory=tuple)
    cut_rays: tuple = field(default_factory=tuple)

    def chi_prime(self, z):
        if self.dchi is not None:
            return _like(z, self.dchi(np.asarray(z, dtype=complex)))
        return holo_derivative(self.chi, z)[0]

    def hopf(self, z):
        """Hopf differential coefficient Q = -eta^2 * chi'."""
        eta = np.asarray(self.eta_sq(np.asarray(z, dtype=complex)))
        return _like(z, -eta * self.chi_prime(z))

    def conformal_factor(self, z):
        """e^u with e^(u/2) = |eta|^2 (1 + |chi|^2)."""
        zs = np.asarray(z, dtype=complex)
        half = np.abs(self.eta_sq(zs)) * (1 + np.abs(self.chi(zs)) ** 2)
        return float(half * half) if np.ndim(z) == 0 else half * half

    def log_conformal_factor(self, z):
        zs = np.asarray(z, dtype=complex)
        u = 2.0 * np.log(np.abs(self.eta_sq(zs))
                         * (1 + np.abs(self.chi(zs)) ** 2))
        return float(u) if np.ndim(z) == 0 else u


def _like(z, value):
    """value as a Python complex for scalar z, else as an array."""
    if np.ndim(z) == 0:
        return complex(value)
    return np.broadcast_to(value, np.shape(z)).astype(complex)


# ---------------------------------------------------------------------------
# closed forms (table rows)

def _upper_gamma_int(a_plus_1, z):
    # Gamma(alpha+1, z) for integer alpha >= 0: alpha! e^-z sum z^k/k!
    alpha = int(a_plus_1) - 1
    z = np.asarray(z, dtype=complex)
    s = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(alpha + 1):
        if k > 0:
            term = term * z / k
        s = s + term
    return math.factorial(alpha) * np.exp(-z) * s


def _hyp2f1_terminating(a_neg_int, b, c, w):
    # 2F1(-m, b; c; w) with m a nonnegative integer
    m = int(round(-a_neg_int))
    w = np.asarray(w, dtype=complex)
    total = np.ones_like(w)
    term = np.ones_like(w)
    for k in range(m):
        term = term * ((-m + k) * (b + k)) / ((c + k) * (k + 1)) * w
        total = total + term
    return total


def closed_form_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None):
    """Closed-form WeierstrassData for a cataloged equation.

    Returns None when the table row needs special functions outside the
    in-scope set (e.g. non-integer-parameter incomplete gammas).
    """
    par = ode.params
    eq = ode.id
    c1, c2, lam = complex(c1), complex(c2), complex(lam)
    if c1 == 0:
        raise ValueError("c1 must be nonzero")
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    z0 = complex(base_point) if base_point is not None else _default_base(eq)
    eta = chi = dchi = None

    if eq == "laguerre":
        a = par["alpha"]
        eta = lambda z: np.exp(z) / (c1 * z)
        chi = lambda z: (a * c1 * np.exp(-z) + c2) / lam
        dchi = lambda z: -a * c1 * np.exp(-z) / lam
    elif eq == "legendre":
        d1 = par["alpha"] * (par["alpha"] + 1)
        eta = lambda z: c1 ** 2 / (1 - z * z)
        chi = lambda z: -(d1 * z + c2) / (lam * c1 ** 2)
        dchi = lambda z: -d1 / (lam * c1 ** 2) * np.ones_like(np.asarray(z, dtype=complex))
    elif eq == "legendre_assoc":
        a, m = par["alpha"], par["m"]
        delta = a * (a + 1)
        eta = lambda z: c1 ** 2 / (1 - z * z)
        chi = lambda z: ((m * m / 2) * (np.log(1 + z) - np.log(1 - z))
                         - delta * z + c2) / (lam * c1 ** 2)
        dchi = lambda z: (m * m / (1 - z * z) - delta) / (lam * c1 ** 2)
    elif eq == "bessel":
        nu = par["p"]
        eta = lambda z: c1 / z
        chi = lambda z: (nu * nu * np.log(z) - z * z / 2 + c2) / (lam * c1)
        dchi = lambda z: (nu * nu / z - z) / (lam * c1)
    elif eq in ("chebyshev1", "chebyshev2"):
        n = par["n"]
        n_eff_sq = n * n if eq == "chebyshev1" else n * (n + 2)
        eta = lambda z: c1 / np.sqrt(1 - z * z)
        chi = lambda z: -(n_eff_sq * np.arcsin(z) + c2) / (lam * c1)
        dchi = lambda z: -n_eff_sq / (lam * c1 * np.sqrt(1 - z * z))
    elif eq == "laguerre_assoc":
        a, n = par["alpha"], par["n"]
        if a != int(a) or a < 0:
            return None
        eta = lambda z: np.exp(z) / (c1 * z ** (a + 1))
        chi = lambda z: (n * c1 * _upper_gamma_int(a + 1, z) + c2) / lam
        dchi = lambda z: -n * c1 * z ** a * np.exp(-z) / lam
    elif eq == "hermite":
        n = par["n"]
        eta = lambda z: c1 ** 2 * np.exp(z * z)
        chi = lambda z: ((2 * n / (lam * c1 ** 2)) * (math.sqrt(math.pi) / 2)
                         * _sps.erf(np.asarray(z, dtype=complex)) + c2 / lam)
        dchi = lambda z: 2 * n * np.exp(-z * z) / (lam * c1 ** 2)
    elif eq == "gegenbauer":
        a, n = par["alpha"], par["n"]
        d2, d3 = n * (n + 2 * a), 2 * a + 1
        expo = a + 0.5

        def ratio_pow(z, s):
            return np.exp(s * (np.log(1 + z) - np.log(1 - z)))
        eta = lambda z: c1 * ratio_pow(z, expo)
        chi = lambda z: (d2 * ratio_pow(z, -expo) + c2) / (lam * c1 * d3)
        dchi = lambda z: -d2 * ratio_pow(z, -expo) / (lam * c1 * (1 - z * z))
    elif eq == "jacobi":
        a, b, n = par["alpha"], par["beta"], par["n"]
        if a != int(a) or a < 0:
            return None
        big_n = n * (n + a + b + 1)
        delta = 2 ** a * big_n
        eta = lambda z: c1 * np.exp(-(b + 1) * np.log(1 + z)
                                    - (a + 1) * np.log(1 - z))
        chi = lambda z: -(delta * np.exp((b + 1) * np.log(1 + z))
                          * _hyp2f1_terminating(-a, b + 1, b + 2, (1 + z) / 2)
                          + c2) / (lam * c1 * (b + 1))
        dchi = lambda z: -big_n * np.exp(a * np.log(1 - z)
                                         + b * np.log(1 + z)) / (lam * c1)
    else:
        return None

    return WeierstrassData(
        eta_sq=eta, chi=chi, c1=c1, c2=c2, lam=lam, base_point=z0,
        source="closed_form", dchi=dchi,
        exclusions=ode.exclusions(), cut_rays=ode.cut_rays,
    )


def _default_base(eq):
    return {"laguerre": 1 + 0j, "laguerre_assoc": 1 + 0j, "bessel": 1 + 0j,
            "hermite": 0j}.get(eq, 0j)


# ---------------------------------------------------------------------------
# numeric route

class CachedAntiderivative:
    """Memoized contour antiderivative of a complex integrand.

    The integrand may be vector-valued (see contour_quad); then
    ``initial_value`` must have its shape, e.g. ``np.zeros(3)``.  Values
    are extended from the nearest already-integrated point by a short
    straight segment when that segment is legal, otherwise along a
    freshly planned path.  Safe for concurrent reads with single-writer
    insertion.
    """

    def __init__(self, integrand, anchor, exclusions=(), cuts=(), tol=1e-11,
                 initial_value=0j):
        self.integrand = integrand
        self.anchor = complex(anchor)
        self.obstacles = Obstacles(exclusions, cuts)
        self.tol = tol
        value = np.asarray(initial_value, dtype=complex)
        self._points = np.full(16, self.anchor)
        self._values = np.empty((16,) + value.shape, dtype=complex)
        self._values[0] = value
        self._size = 1
        self._lock = threading.Lock()

    def __call__(self, z):
        z = complex(z)
        n = self._size
        idx = int(np.argmin(np.abs(self._points[:n] - z)))
        zc = complex(self._points[idx])
        if zc == z:
            return self._values[idx].copy()     # never a view of the store
        if self.obstacles.segment_clear(zc, z):
            legs = [(zc, z)]
        else:
            # any legal path gives the same value: the cut plane is
            # simply connected, so route from the nearest cached point
            legs = plan_path(zc, z, self.obstacles.discs,
                             self.obstacles.rays).segments()
        value = self._values[idx]
        for a, b in legs:
            value = value + contour_quad(self.integrand, straight_path(a, b),
                                         self.tol)
        with self._lock:
            n = self._size
            if n == len(self._points):
                self._points = np.concatenate([self._points, self._points])
                self._values = np.concatenate([self._values, self._values])
            self._points[n] = z
            self._values[n] = value
            self._size = n + 1
        return value


def _lookup(cache, z):
    """cache(z) for a scalar z; for an array, one lookup per element."""
    if np.ndim(z) == 0:
        return cache(z)
    return np.array([cache(w) for w in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))


def build_eta(ode, c1=1.0, base_point=None, anchor_value=None, tol=1e-11):
    """Numeric eta^2 as exp of the antiderivative of -q/p.

    The multiplicative constant is pinned by ``anchor_value`` =
    eta^2(base_point); it defaults to the closed-form value when the
    catalog has one, otherwise to 1/c1.
    """
    z0, anchor_value = _anchors(ode, c1, 0.0, 1.0, base_point, anchor_value,
                                which="eta")

    def qp(z):
        pv = np.asarray(ode.p(z), dtype=complex)
        if np.any(pv == 0):
            raise SingularPoint(z if np.ndim(z) == 0 else complex(np.asarray(z).flat[0]))
        return np.asarray(ode.q(z), dtype=complex) / pv

    cache = CachedAntiderivative(qp, z0, ode.exclusions(), ode.cut_rays, tol)

    def eta_sq(z):
        return anchor_value * np.exp(-_lookup(cache, z))

    eta_sq.base_point = z0
    return eta_sq


def build_chi(ode, data, tol=1e-11):
    """Numeric chi from partial WeierstrassData carrying eta_sq and lam.

    chi(z) = chi(z0) - (1/lambda) * int_{z0}^{z} (r/p) / eta^2, so the
    coefficient identity r/p = -lambda eta^2 chi' holds by construction.
    """
    z0 = complex(data.base_point)
    chi0 = complex(data.chi(z0)) if data.chi is not None else data.c2 / data.lam
    lam = complex(data.lam)
    eta_sq = data.eta_sq

    def integrand(z):
        pv = np.asarray(ode.p(z), dtype=complex)
        if np.any(pv == 0):
            raise SingularPoint(complex(np.asarray(z).flat[0]))
        rv = np.asarray(ode.r(z), dtype=complex)
        ev = np.asarray(eta_sq(z), dtype=complex)
        return rv / pv / ev

    cache = CachedAntiderivative(integrand, z0, ode.exclusions(),
                                 ode.cut_rays, tol)

    def chi(z):
        return chi0 - _lookup(cache, z) / lam

    chi.base_point = z0
    return chi


def _anchors(ode, c1, c2, lam, base_point, anchor_value, which):
    cf = closed_form_data(ode, c1 if c1 else 1.0, c2, lam)
    if base_point is None:
        base_point = cf.base_point if cf is not None else _default_base(ode.id)
    z0 = complex(base_point)
    if anchor_value is None:
        if cf is not None:
            anchor_value = complex(cf.eta_sq(z0)) if which == "eta" \
                else complex(cf.chi(z0))
        else:
            anchor_value = 1.0 / complex(c1) if which == "eta" \
                else complex(c2) / complex(lam)
    return z0, complex(anchor_value)


def build_numeric_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None,
                       tol=1e-11):
    """Full numeric WeierstrassData (integral route) for any LinearODE."""
    eta_sq = build_eta(ode, c1=c1, base_point=base_point, tol=tol)
    z0 = eta_sq.base_point
    cf = closed_form_data(ode, c1, c2, lam, base_point=z0) \
        if ode.id in _CLOSED_FORM_IDS else None
    partial = WeierstrassData(
        eta_sq=eta_sq, chi=cf.chi if cf is not None else None,
        c1=complex(c1), c2=complex(c2), lam=complex(lam),
        base_point=z0, source="numeric",
        exclusions=ode.exclusions(), cut_rays=ode.cut_rays,
    )
    chi = build_chi(ode, partial, tol=tol)
    partial.chi = chi
    return partial


_CLOSED_FORM_IDS = {
    "laguerre", "legendre", "legendre_assoc", "bessel", "chebyshev1",
    "chebyshev2", "laguerre_assoc", "hermite", "gegenbauer", "jacobi",
}


def make_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None,
              prefer="closed_form", tol=1e-11):
    """WeierstrassData for an ODE, closed form when available."""
    if prefer == "closed_form":
        data = closed_form_data(ode, c1, c2, lam, base_point) \
            if ode.id in _CLOSED_FORM_IDS else None
        if data is not None:
            return data
    return build_numeric_data(ode, c1, c2, lam, base_point, tol)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class WeierstrassReport:
    """Max coefficient-identity residuals over the sampled points."""

    eta_residual: float          # max |q/p + 2 eta'/eta|
    chi_residual: float          # max |r/p + lambda eta^2 chi'|
    samples: tuple

    def max_residual(self):
        return max(self.eta_residual, self.chi_residual)


def verify_weierstrass(data, ode, samples):
    """Finite-difference check of both coefficient identities."""
    worst_eta = 0.0
    worst_chi = 0.0
    rows = []
    for z in samples:
        z = complex(z)
        qp, rp = ode.ratios(z)
        deta, _ = holo_derivative(data.eta_sq, z)
        ev = complex(data.eta_sq(z))
        res_eta = abs(qp + deta / ev)          # 2 eta'/eta = (eta^2)'/eta^2
        dchi = data.chi_prime(z)
        res_chi = abs(rp + data.lam * ev * dchi)
        rows.append((z, res_eta, res_chi))
        worst_eta = max(worst_eta, res_eta)
        worst_chi = max(worst_chi, res_chi)
    return WeierstrassReport(worst_eta, worst_chi, tuple(rows))
