"""Construction of the Weierstrass pair (eta^2, chi) for an ODE.

Closed-form overrides are provided for the cataloged equations; the
numeric route is one memoized store of (log eta^2, chi) whose legs run
a Chebyshev-panel chain on the coefficient ratios, anchored at a base
point so that numeric and closed-form data agree wherever both exist.
Along a straight edge, the edge moments (edge_moments) carry any start
state of the pair and the Weierstrass integrals with no store (compose).
edge_rows and carry move a node state, the integrals and the pair, along
straight edges on either route: the one place that tells them apart.
"""

import math
from dataclasses import dataclass

import numpy as np

from .contour import (PANEL_S, PANEL_TAIL, contour_quad, gk15_carry,
                      gk15_segments, holo_derivative, panel_lanes,
                      straight_path)
from .errors import (EvaluationFailure, OutOfRange, WsurfError,
                     isolate_failures)
from .geometry import Obstacles, in_range
# not used here: bench/spans.py counts segment tests through these names
from .geometry import segment_crosses_ray, segment_hits_disc  # noqa: F401
from .pathplan import MAX_WAYPOINTS, plan_path

# the numeric pair's chain holds each panel's tails to this (_pair_legs)
PAIR_TOL = 1e-11


@dataclass
class WeierstrassData:
    """Holomorphic pair (eta^2, chi) of an ODE, plus constants and base
    point.  The pair's obstacles are the ODE's exclusion discs and cut
    rays."""

    pair: object                 # callable z -> (eta^2, chi)
    c1: complex
    c2: complex
    lam: complex
    base_point: complex
    source: str                  # "closed_form" | "numeric"
    ode: object                  # the LinearODE the pair is built from

    def hopf(self, z):
        """Hopf differential coefficient Q = -eta^2 chi' = r/(lambda p):
        r/p = -lambda eta^2 chi' holds for every pair of the ODE."""
        return self.ode.ratios(z)[1] / self.lam

    def u_and_chi(self, z):
        """(u, chi) at z from one pair evaluation, u the log conformal
        factor."""
        eta_sq, chi = self.pair(np.asarray(z, dtype=complex))
        return u_of_pair(eta_sq, chi), chi


def u_of_pair(eta_sq, chi):
    """The log conformal factor u = 2 log(|eta^2| (1 + |chi|^2))."""
    return 2.0 * np.log(np.abs(eta_sq) * (1 + np.abs(chi) ** 2))


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


def _hermite_pair(n, c1, c2, lam):
    """Hermite's pair (c1^2 e^{z^2}, k (sqrt(pi)/2) erf z + c2/lambda),
    k = 2n/(lambda c1^2), with a panels method for contour.gk15_segments:
    on a GK15 panel, one erf at its midpoint, carried to the other nodes
    by chi' = k e^{-z^2} (contour.gk15_carry).  A panel where the carry
    is not its integral up to rounding takes erf at every node."""
    from scipy.special import erf       # only hermite needs scipy here
    k = 2 * n / (lam * c1 ** 2)
    scale = k * (math.sqrt(math.pi) / 2)

    def chi(z):
        return scale * erf(np.asarray(z, dtype=complex)) + c2 / lam

    def pair(z):
        return c1 ** 2 * np.exp(z * z), chi(z)

    def panels(nodes, half):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e2 = np.exp(nodes * nodes)
            carried, ok = gk15_carry(1 / e2)
            chi_nodes = chi(nodes[:, 7])[:, None] + (k * half)[:, None] \
                * carried
            if not ok.all():
                chi_nodes[~ok] = chi(nodes[~ok])
            return c1 ** 2 * e2, chi_nodes

    pair.panels = panels
    return pair


def closed_form_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None):
    """Closed-form WeierstrassData for a cataloged equation; the base
    point defaults to ode.pair_base.

    Returns None for an id outside the catalog, and when the table row
    needs special functions outside the in-scope set (e.g.
    non-integer-parameter incomplete gammas).
    """
    par = ode.params
    eq = ode.id
    c1, c2, lam = complex(c1), complex(c2), complex(lam)
    if c1 == 0:
        raise ValueError("c1 must be nonzero")
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    z0 = complex(base_point) if base_point is not None else ode.pair_base

    if eq == "laguerre":
        a = par["alpha"]
        pair = lambda z: (np.exp(z) / (c1 * z),
                          (a * c1 * np.exp(-z) + c2) / lam)
    elif eq == "legendre":
        d1 = par["alpha"] * (par["alpha"] + 1)
        pair = lambda z: (c1 ** 2 / (1 - z * z),
                          -(d1 * z + c2) / (lam * c1 ** 2))
    elif eq == "legendre_assoc":
        a, m = par["alpha"], par["m"]
        delta = a * (a + 1)
        pair = lambda z: (c1 ** 2 / (1 - z * z),
                          ((m * m / 2) * (np.log(1 + z) - np.log(1 - z))
                           - delta * z + c2) / (lam * c1 ** 2))
    elif eq == "bessel":
        nu = par["p"]
        pair = lambda z: (c1 / z,
                          (nu * nu * np.log(z) - z * z / 2 + c2) / (lam * c1))
    elif eq in ("chebyshev1", "chebyshev2"):
        n = par["n"]
        n_eff_sq = n * n if eq == "chebyshev1" else n * (n + 2)
        pair = lambda z: (c1 / np.sqrt(1 - z * z),
                          -(n_eff_sq * np.arcsin(z) + c2) / (lam * c1))
    elif eq == "laguerre_assoc":
        a, n = par["alpha"], par["n"]
        if a != int(a) or a < 0:
            return None
        pair = lambda z: (np.exp(z) / (c1 * z ** (a + 1)),
                          (n * c1 * _upper_gamma_int(a + 1, z) + c2) / lam)
    elif eq == "hermite":
        pair = _hermite_pair(par["n"], c1, c2, lam)
    elif eq == "gegenbauer":
        a, n = par["alpha"], par["n"]
        d2, d3 = n * (n + 2 * a), 2 * a + 1
        expo = a + 0.5

        def ratio_pow(z, s):
            return np.exp(s * (np.log(1 + z) - np.log(1 - z)))
        pair = lambda z: (c1 * ratio_pow(z, expo),
                          (d2 * ratio_pow(z, -expo) + c2) / (lam * c1 * d3))
    elif eq == "jacobi":
        a, b, n = par["alpha"], par["beta"], par["n"]
        if a != int(a) or a < 0:
            return None
        big_n = n * (n + a + b + 1)
        delta = 2 ** a * big_n
        pair = lambda z: (
            c1 * np.exp(-(b + 1) * np.log(1 + z) - (a + 1) * np.log(1 - z)),
            -(delta * np.exp((b + 1) * np.log(1 + z))
              * _hyp2f1_terminating(-a, b + 1, b + 2, (1 + z) / 2)
              + c2) / (lam * c1 * (b + 1)))
    else:
        return None

    # a row that overflows is not finite there, and its callers name the
    # point; numpy's errstate decorator sets the state per call
    return WeierstrassData(
        pair=np.errstate(over="ignore", invalid="ignore")(pair), c1=c1,
        c2=c2, lam=lam, base_point=z0, source="closed_form", ode=ode)


# ---------------------------------------------------------------------------
# numeric route

class CachedAntiderivative:
    """Memoized contour antiderivative of a complex integrand.

    The integrand may be vector-valued (see contour_quad); then
    ``initial_value`` must have its shape, e.g. ``np.zeros(3)``.  Values
    are extended from the nearest already-integrated point, found by a
    dense scan of the store, by a short straight segment when that
    segment is legal, otherwise along a freshly planned path (see
    reach).  The scan costs queries x stored points, which stays small
    because the numeric route's grid edges and circle legs run on edge
    moments, not on the store.  A leg adds its GK15 integral,
    held to tol, unless integrand is None and ``legs(a, b, start)``
    carries the values start along legs a[i] -> b[i] instead.  A scalar
    z gives one value, an array z values of shape ``z.shape + value
    shape``; returned values are never views of the store.
    """

    def __init__(self, integrand, anchor, exclusions=(), cuts=(), tol=1e-11,
                 initial_value=0j, legs=None):
        self.integrand = integrand
        self.anchor = complex(anchor)
        if np.isfinite(self.anchor) and not in_range(self.anchor):
            raise OutOfRange(self.anchor)
        self.obstacles = Obstacles(exclusions, cuts)
        self.tol = tol
        self._legs = legs or self._gk15_legs
        value = np.asarray(initial_value, dtype=complex)
        self._points = np.full(16, self.anchor)
        self._values = np.empty((16,) + value.shape, dtype=complex)
        self._values[0] = value
        self._size = 1

    def __call__(self, z):
        if np.ndim(z) != 0 or self.integrand is None:
            return self._lookup_array(np.asarray(z, dtype=complex))
        z = complex(z)
        if np.isfinite(z) and not in_range(z):
            raise OutOfRange(z)
        idx = int(self._nearest(np.array([z]))[0])
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
        self._insert(np.array([z]), np.asarray(value)[None])
        return value

    def _gk15_legs(self, a, b, start):
        values, failed = gk15_segments(self.integrand, a, b, self.tol)
        return start + values.reshape(start.shape), failed

    def _lookup_array(self, z):
        """__call__ on an array: each distinct point is a stored point or
        is reached from its nearest one by reach, and stored.  Raises
        the WsurfError of the first point, in input order, that failed.
        """
        points, inverse = np.unique(z.ravel(), return_inverse=True)
        values = np.zeros((len(points),) + self._values.shape[1:],
                          dtype=complex)
        inside = in_range(points)
        failures = {int(i): (OutOfRange if np.isfinite(points[i])
                             else EvaluationFailure)(complex(points[i]))
                    for i in np.flatnonzero(~inside)}
        idx = np.flatnonzero(inside)
        near = self._nearest(points[idx])
        values[idx] = self._values[near]
        new = self._points[near] != points[idx]
        idx = idx[new]
        if idx.size:
            values[idx], failed = reach(self.obstacles, self._legs,
                                        self._points[near[new]], values[idx],
                                        points[idx])
            failures.update((int(idx[k]), exc) for k, exc in failed.items())
        done = idx[np.isin(idx, list(failures), invert=True)]
        self._insert(points[done], values[done])
        if failures:
            first = np.flatnonzero(np.isin(inverse, list(failures)))[0]
            raise failures[int(inverse[first])]
        return values[inverse].reshape(z.shape + values.shape[1:])

    def _insert(self, points, values):
        n, m = self._size, len(points)
        if n + m > len(self._points):
            size = max(2 * len(self._points), n + m)
            self._points = np.resize(self._points, size)
            self._values = np.resize(self._values,
                                     (size,) + self._values.shape[1:])
        self._points[n:n + m] = points
        self._values[n:n + m] = values
        self._size = n + m

    def _nearest(self, z):
        """Store index of the stored point nearest to each of z: the
        first one of least dx^2 + dy^2, by a dense scan of the store,
        chunked over the queries so that no (queries x store) temporary
        exceeds _SCAN_ITEMS floats."""
        points = self._points[:self._size]
        x, y = points.real.copy(), points.imag.copy()
        near = np.empty(len(z), dtype=int)
        rows = max(1, _SCAN_ITEMS // len(points))
        for lo in range(0, len(z), rows):
            q = z[lo:lo + rows]
            dx = x - q.real[:, None]
            dy = y - q.imag[:, None]
            near[lo:lo + rows] = np.argmin(dx * dx + dy * dy, axis=1)
        return near


# about 8 MB of float64 per temporary of CachedAntiderivative._nearest
_SCAN_ITEMS = 1 << 20


def reach(obstacles, legs, origins, start, points):
    """Values at points (finite, each not its origin) carried from the
    values start at origins, and {index: WsurfError} of failed points:
    a point takes the straight leg from its origin when obstacles allow
    it, else a legal straight leg from the nearest point planned earlier
    in this batch, else a path from plan_path.  ``legs(a, b, start)``
    carries values along legs a[i] -> b[i] and returns (ends,
    {leg: WsurfError}), once per round: the k-th legs of all paths,
    then the legs from planned points.
    """
    values = np.array(start, dtype=complex)
    failures, planned, parent = {}, [], {}
    clear = obstacles.segment_clear(origins, points)
    routes = [(np.flatnonzero(clear), origins[clear], points[clear],
               np.zeros(clear.sum(), dtype=int))]
    for i in np.flatnonzero(~clear):
        if planned:
            # a clear leg from a point planned in this batch is cheaper
            # than planning another path
            j = planned[int(np.argmin(np.abs(points[planned] - points[i])))]
            if obstacles.segment_clear(points[j], points[i]):
                parent[int(i)] = j
                continue
        try:
            w = np.array(plan_path(origins[i], points[i], obstacles.discs,
                                   obstacles.rays).waypoints)
        except WsurfError as exc:
            failures[int(i)] = exc
            continue
        planned.append(int(i))
        routes.append((np.full(len(w) - 1, i), w[:-1], w[1:],
                       np.arange(len(w) - 1)))
    chained = np.array(list(parent), dtype=int)
    routes.append((chained, points[list(parent.values())], points[chained],
                   np.full(len(chained), MAX_WAYPOINTS)))
    owner, a, b, rank = map(np.concatenate, zip(*routes))
    for r in np.unique(rank):
        if r == MAX_WAYPOINTS:
            for i, j in parent.items():
                values[i] = values[j]
                if j in failures:
                    failures[i] = failures[j]
        on = np.flatnonzero((rank == r) & ~np.isin(owner, list(failures)))
        if on.size:
            # a failed point's value is meaningless
            values[owner[on]], failed = legs(a[on], b[on], values[owner[on]])
            failures.update((int(owner[on[k]]), e) for k, e in failed.items())
    return values, failures


def _lane_integrals(values, c):
    """c S values: (k, M) values on the panels of k lanes to their
    integrals from each panel's start, c the lanes' panel scales.  The
    products are per lane (1 x M), since a 2-D gemm's rounding of a row
    depends on the number of rows, and the temporary goes first, since
    numpy reuses a large right-hand temporary in place with the operands
    swapped, and a complex product's rounding depends on their order:
    so a lane's bits do not depend on its batch."""
    return (values[:, None, :] @ PANEL_S.T)[:, 0] * c[:, None]


def _lane_tails(c, *values):
    """|c| times the largest last Chebyshev coefficient of each lane's
    (k, M) values, in per-lane products as in _lane_integrals."""
    tail = np.max([np.abs((v[:, None, :] @ PANEL_TAIL.T)[:, 0]).max(axis=1)
                   for v in values], axis=0)
    return np.abs(c) * tail


def _pair_legs(ode, lam, eta0):
    """Legs of the store of (L, chi), eta^2 = eta0 e^-L, in
    contour.panel_lanes: on a panel L = L0 + c S (q/p), then
    chi = chi0 - (c/lambda) S ((r/p) e^L / eta0) (Greengard, 1991).  A
    panel is accepted when both integrands' tails times |c| are within
    PAIR_TOL h, an absolute rule: a relative one fails where q/p is 0."""
    def step(y, c, h, qp, rp):
        with np.errstate(over="ignore", invalid="ignore"):
            log_eta = _lane_integrals(qp, c) + y[:, :1]
            g = np.exp(log_eta) * rp / eta0
            chi = _lane_integrals(g, -c / lam) + y[:, 1:]
            ok = _lane_tails(c, qp, g) <= PAIR_TOL * h
        return np.stack([log_eta, chi], axis=1), ok

    return lambda a, b, start: (panel_lanes(ode, a, b, start, step)[0], {})


def _moment_step(lam, tol):
    """edge_moments' panel rule for contour.panel_lanes: on a panel
    l = l0 + c S (q/p), a = a0 - (c/lambda) S ((r/p) e^l), and
    m_k = m_k0 + c S (a^k e^-l) for k = 0, 1, 2, accepted when |c| times
    the largest tail of the five integrands is within tol h."""
    def step(y, c, h, qp, rp):
        with np.errstate(over="ignore", invalid="ignore"):
            ell = _lane_integrals(qp, c) + y[:, :1]
            e = np.exp(ell)
            g = e * rp
            a = _lane_integrals(g, -c / lam) + y[:, 1:2]
            w = 1 / e
            aw = a * w
            a2w = aw * a
            ys = np.stack([ell, a, _lane_integrals(w, c) + y[:, 2:3],
                           _lane_integrals(aw, c) + y[:, 3:4],
                           _lane_integrals(a2w, c) + y[:, 4:5]], axis=1)
            ok = _lane_tails(c, qp, g, w, aw, a2w) <= tol * h
        return ys, ok
    return step


def edge_moments(ode, lam, a, b, tol):
    """Moments (l, a, m0, m1, m2) of the straight edges a[i] -> b[i], an
    (n, 5) array, and {edge: WsurfError} of the edges that failed (their
    rows nan).

    Along an edge, l = int q/p and a = -(1/lambda) int (r/p) e^l, and
    m_k = int a^k e^-l; all five start from 0 at a[i], so they depend on
    the edge alone.  From a start state (eta^2_s, chi_s) the pair is
    eta^2 = eta^2_s e^-l and chi = chi_s + a / eta^2_s along the edge
    (compose).  The edges are the lanes of one contour.panel_lanes call;
    when it raises a WsurfError, errors.isolate_failures bisects the
    edges down to the failing ones.  A lane's bits do not depend on its
    batch (as long as ode.ratios' do not).
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    step = _moment_step(complex(lam), tol)

    def lanes(k):
        start = np.zeros((len(k), 5), dtype=complex)
        return panel_lanes(ode, a[k], b[k], start, step)[0]

    return isolate_failures(lanes, np.arange(len(a)))


def compose(eta_sq, chi, moments):
    """(eta^2, chi, increments) at the ends of edges with edge_moments'
    moments (shape (..., 5)), started from the states (eta_sq, chi): the
    increments, shape (..., 3), are those of int eta^2, int chi^2 eta^2
    and int chi eta^2 along the edges,
    (eta^2_s m0, chi_s^2 eta^2_s m0 + 2 chi_s m1 + m2 / eta^2_s,
    chi_s eta^2_s m0 + m1)."""
    ell, a, m0, m1, m2 = np.moveaxis(moments, -1, 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        i1 = eta_sq * m0
        i3 = chi * i1 + m1
        i2 = (i3 + m1) * chi + m2 / eta_sq
        return (np.exp(-ell) * eta_sq, a / eta_sq + chi,
                np.stack([i1, i2, i3], axis=-1))


def ew_integrand(data):
    """Fused integrand z -> (eta^2, chi^2 eta^2, chi eta^2); shape (..., 3).

    One call of data.pair per evaluation; a pair with a panels method
    (hermite's) gives the integrand one too, which gk15_segments calls
    on its GK15 panels.  A closed-form pair's integrand is marked
    thread_safe, so that gk15_segments may evaluate its chunks
    concurrently: it is numpy arithmetic on its argument alone.  A
    numeric pair's is not: its pair call is a lookup of a
    CachedAntiderivative store that inserts the points it reaches, and
    concurrent lookups would race on the store, with the order of their
    inserts deciding later nearest-point ties.  The numeric route runs
    it only on the legs of ew_cache lookups (grid roots, sample points)
    and in ew_integrals; its grid edges and circle legs take edge
    moments instead (edge_rows).
    """
    pair = data.pair

    def fused(e, x):
        e, x = np.asarray(e), np.asarray(x)
        # an overflow is not finite, and quadrature names its point
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([e, x ** 2 * e, x * e], axis=-1)

    def integrand(z):
        return fused(*pair(z))

    if hasattr(pair, "panels"):
        integrand.panels = lambda nodes, half: fused(*pair.panels(nodes, half))
    integrand.thread_safe = data.source == "closed_form"
    return integrand


# A node state is (int eta^2, int chi^2 eta^2, int chi eta^2, eta^2, chi):
# the three Weierstrass integrals from the immersion's base point and the
# pair at the node.

def edge_rows(data, a, b, tol):
    """Rows (n, 5) of the straight edges a[i] -> b[i] (1-D complex
    arrays), which carry takes from a state at a[i] to the state at
    b[i], and {edge: WsurfError} of the edges that failed (their rows
    meaningless).

    On a closed form a row is the three Weierstrass integrals along the
    edge, by one gk15_segments call of ew_integrand held to tol, and the
    pair at b[i], nan where it raises a WsurfError there.  A pair that
    is not finite at b[i] does not fail the edge: it makes the state at
    b[i] alone not finite, and the callers fail that node.  On the
    numeric route a row is the edge's moments (edge_moments), which
    carry any start state with no store lookup.
    """
    if data.source == "numeric":
        return edge_moments(data.ode, data.lam, a, b, tol)
    values, failures = gk15_segments(ew_integrand(data), a, b, tol)
    (eta_sq, chi), _ = isolate_failures(data.pair, b)
    return np.column_stack([values, eta_sq, chi]), failures


def carry(data, start, rows):
    """The states (..., 5) at the ends of edges with edge_rows' rows,
    started from the states start at their beginnings: the integrals
    add up, and the pair is the row's on a closed form, or composed
    from the start's and the edge's moments on the numeric route
    (compose).  A start of -0.0, the additive identity of IEEE
    arithmetic, gives the increments' own bits."""
    if data.source == "numeric":
        eta_sq, chi, increments = compose(start[..., 3], start[..., 4], rows)
        return np.concatenate([start[..., :3] + increments, eta_sq[..., None],
                               chi[..., None]], axis=-1)
    state = rows.copy()
    state[..., :3] += start[..., :3]
    return state


def build_numeric_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None):
    """Numeric WeierstrassData (integral route) for any LinearODE.

    eta^2(z) = eta^2(z0) exp(-L(z)) with L = int_{z0}^{z} q/p, and
    chi(z) = chi(z0) - (1/lambda) int_{z0}^{z} (r/p) / eta^2, so both
    coefficient identities hold by construction; (L, chi) is one store
    with _pair_legs, looked up once per call of the pair.  The base
    point z0 defaults to ode.pair_base; the values there are the closed
    form's where the catalog has one, else 1/c1 and c2/lambda.
    """
    cf = closed_form_data(ode, c1, c2, lam, base_point)
    c1, c2, lam = complex(c1), complex(c2), complex(lam)
    z0 = complex(base_point) if base_point is not None else ode.pair_base
    if cf is not None:
        eta0, chi0 = map(complex, cf.pair(z0))
    else:
        eta0, chi0 = 1.0 / c1, c2 / lam
    store = CachedAntiderivative(
        None, z0, ode.exclusions(), ode.cut_rays,
        initial_value=np.array([0, chi0]), legs=_pair_legs(ode, lam, eta0))

    def pair(z):
        # [()] makes a point's value a scalar and leaves arrays alone
        value = store(z)
        return eta0 * np.exp(-value[..., 0][()]), value[..., 1][()]

    return WeierstrassData(
        pair=pair, c1=c1, c2=c2, lam=lam, base_point=z0,
        source="numeric", ode=ode)


def make_data(ode, c1=1.0, c2=0.0, lam=1.0, base_point=None):
    """WeierstrassData for an ODE: the closed form when the catalog has
    one, else the numeric route."""
    data = closed_form_data(ode, c1, c2, lam, base_point)
    if data is not None:
        return data
    return build_numeric_data(ode, c1, c2, lam, base_point)


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


def verify_weierstrass(data, samples):
    """Cauchy-circle check of both coefficient identities of the pair's
    ODE on eta^2 and chi themselves: one holo_derivative call on the
    stacked pair, so one array call of data.pair on all the circle
    points, whose mean gives eta^2 at the samples."""
    z = np.array([complex(w) for w in samples], dtype=complex)
    if z.size == 0:
        return WeierstrassReport(0.0, 0.0, ())
    qp, rp = data.ode.ratios(z)
    mean, d, _ = holo_derivative(
        lambda w: np.stack(data.pair(w), axis=-1), z)
    ev = mean[:, 0]
    res_eta = np.abs(qp + d[:, 0] / ev)        # 2 eta'/eta = (eta^2)'/eta^2
    res_chi = np.abs(rp + data.lam * ev * d[:, 1])
    rows = tuple((complex(w), float(a), float(b))
                 for w, a, b in zip(z, res_eta, res_chi))
    return WeierstrassReport(float(res_eta.max()), float(res_chi.max()), rows)
