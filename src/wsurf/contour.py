"""Contour paths, adaptive Gauss-Kronrod quadrature and holomorphic
finite-difference derivatives in the complex plane."""

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationFailure, ToleranceNotReached, WsurfError
from .geometry import Obstacles
# not used here: bench/spans.py counts segment tests through these names
from .geometry import segment_crosses_ray, segment_hits_disc  # noqa: F401

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
# Panels one segment may keep live on one bisection level.  A tolerance
# below the integrand's rounding floor near a singularity doubles the
# live panels on every level; this cap turns that into
# ToleranceNotReached instead of 2^MAX_DEPTH panels.
MAX_LIVE_PANELS = 4096
# Panels per integrand call; bounds the memory of one level.
CHUNK_PANELS = 1024


_CLEAR = Obstacles()     # shared by the many paths without obstacles


@dataclass(frozen=True)
class ContourPath:
    """Piecewise-linear path through two or more waypoints, consecutive
    ones distinct, whose segments are clear of
    Obstacles(excluded_points, cut_rays): (center, radius) discs and
    (anchor, direction) rays."""

    waypoints: tuple
    excluded_points: tuple = field(default_factory=tuple)
    cut_rays: tuple = field(default_factory=tuple)

    def __post_init__(self):
        wp = tuple([complex(w) for w in self.waypoints])
        obstacles = (Obstacles(self.excluded_points, self.cut_rays)
                     if self.excluded_points or self.cut_rays else _CLEAR)
        object.__setattr__(self, "waypoints", wp)
        object.__setattr__(self, "excluded_points", obstacles.discs)
        object.__setattr__(self, "cut_rays", obstacles.rays)
        if len(wp) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(wp, wp[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
            if (blocker := obstacles.blocker(a, b)) is not None:
                raise ValueError(f"segment {a}->{b} {blocker}")

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
    return vals


def _gk15_panels(f, lo, hi):
    """GK15 estimates and their errors, shapes (p, k), on the panels
    lo[i] -> hi[i], and {panel: WsurfError} for the panels where f
    raised one or returned a non-finite value.

    One integrand call per CHUNK_PANELS panels, so that a level's memory
    stays bounded.  Only when a call raises a WsurfError are its panels
    evaluated one by one, so that one bad panel does not sink the others.
    """
    if len(lo) > CHUNK_PANELS:
        parts = [_gk15_panels(f, lo[s:s + CHUNK_PANELS], hi[s:s + CHUNK_PANELS])
                 for s in range(0, len(lo), CHUNK_PANELS)]
        failed = {s * CHUNK_PANELS + i: exc
                  for s, (_, _, bad) in enumerate(parts)
                  for i, exc in bad.items()}
        # a chunk where every panel raised does not know k
        k = max(part[0].shape[1] for part in parts)
        k15, err = (np.concatenate([np.broadcast_to(part[j], (len(part[j]), k))
                                    for part in parts]) for j in (0, 1))
        return k15, err, failed
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
    vals, failed = _eval_panels(f, nodes)
    if not np.isfinite(vals).all():
        finite = np.isfinite(vals).all(axis=2)
        for i in np.flatnonzero(~finite.all(axis=1)):
            failed.setdefault(int(i), EvaluationFailure(
                complex(nodes[i][np.argmin(finite[i])])))
    half = half[:, None]
    k15 = half * (_WK @ vals)
    return k15, np.abs(k15 - half * (_WG @ vals[:, 1::2])), failed


def _eval_panels(f, nodes):
    """f on the (p, 15) nodes of p panels, as (p, 15, k) values, and
    {panel: WsurfError} for the panels where f raised one."""
    p = len(nodes)
    try:
        return _eval_vectorized(f, nodes.ravel()).reshape(p, 15, -1), {}
    except WsurfError as exc:
        if p == 1:
            return np.full((1, 15, 1), np.nan, dtype=complex), {0: exc}
    rows, failed = [], {}
    for i in range(p):
        try:
            rows.append(_eval_vectorized(f, nodes[i]).reshape(15, -1))
        except WsurfError as exc:
            failed[i] = exc
            rows.append(None)
    k = max((r.shape[1] for r in rows if r is not None), default=1)
    return np.stack([np.full((15, k), np.nan, dtype=complex)
                     if r is None else r for r in rows]), failed


def gk15_segments(f, a, b, tol):
    """Adaptive GK15 integrals of f over the straight segments a[i] -> b[i].

    The segments are integrated together, breadth first: each bisection
    level evaluates the live panels of every segment with one integrand
    call per CHUNK_PANELS panels, keeping only their GK15 sums.  A panel
    is accepted when its GK15 error is within tol[i] / 2^depth in every
    component, or at MAX_DEPTH; only the other panels are bisected.

    f maps an (n,) complex array to values of shape (n,) or (n, k).
    Returns ``(values, errors, failures)``: values and errors have shape
    (m,) or (m, k), errors being the summed GK15 estimates; failures maps
    the index of every segment that did not run to completion to its
    WsurfError -- EvaluationFailure naming the first non-finite node, an
    error the integrand raised, or ToleranceNotReached when one level
    needed more than MAX_LIVE_PANELS panels.  Entries of failed
    segments are meaningless.
    """
    lo = np.asarray(a, dtype=complex).reshape(-1)
    hi = np.asarray(b, dtype=complex).reshape(-1)
    m = len(lo)
    tol = np.asarray(tol, dtype=float)
    tol_min = float(tol) if tol.ndim == 0 else tol.min()
    seg = ptol = values = errors = None
    failures = {}
    depth = 0
    while seg is None or seg.size:
        k15, err, failed = _gk15_panels(f, lo, hi)
        if seg is None:
            # one panel per segment, all within tolerance: the common
            # case returns here
            if not failed and err.max() <= tol_min:
                return _squeezed(k15, err, failures)
            seg = np.arange(m)
            ptol = np.broadcast_to(tol, (m,))
            values = np.zeros((m, k15.shape[1]), dtype=complex)
            errors = np.zeros((m, k15.shape[1]))
        if failed:
            for i in sorted(failed):
                failures.setdefault(int(seg[i]), failed[i])
            live = ~np.isin(seg, list(failures))
            seg, lo, hi, ptol, k15, err = (
                x[live] for x in (seg, lo, hi, ptol, k15, err))
        done = err.max(1) <= ptol
        if depth >= MAX_DEPTH:
            done[:] = True
        np.add.at(values, seg[done], k15[done])
        np.add.at(errors, seg[done], err[done])
        more = ~done
        seg, lo, hi, ptol, k15, err = (
            x[more] for x in (seg, lo, hi, ptol, k15, err))
        if 2 * len(seg) > MAX_LIVE_PANELS:
            over = 2 * np.bincount(seg, minlength=m) > MAX_LIVE_PANELS
            for s in np.flatnonzero(over):
                rest = seg == s
                best = values[s] + k15[rest].sum(axis=0)
                failures.setdefault(int(s), ToleranceNotReached(
                    best[0] if len(best) == 1 else best,
                    float(np.max(errors[s] + err[rest].sum(axis=0)))))
            keep = ~over[seg]
            seg, lo, hi, ptol = seg[keep], lo[keep], hi[keep], ptol[keep]
        mid = 0.5 * (lo + hi)
        seg = np.repeat(seg, 2)
        ptol = np.repeat(0.5 * ptol, 2)
        lo = np.stack([lo, mid], axis=1).ravel()
        hi = np.stack([mid, hi], axis=1).ravel()
        depth += 1
    return _squeezed(values, errors, failures)


def _squeezed(values, errors, failures):
    """gk15_segments' result, with (m, 1) columns of a scalar integrand
    as (m,)."""
    if values.shape[1] == 1:
        return values[:, 0], errors[:, 0], failures
    return values, errors, failures


def contour_quad(f, path, tol=1e-10):
    """Integrate f along a ContourPath to absolute tolerance tol.

    f must accept complex scalars or numpy arrays of them.  Values of
    shape (n,) give a complex result; values of shape (n, k) give a (k,)
    result with every component held to tol.  All segments of the path
    go through one gk15_segments call, each held to its length's share
    of tol.  Raises EvaluationFailure naming a node where f is not
    finite, and ToleranceNotReached when bisection bottoms out above tol
    or a segment needs more than MAX_LIVE_PANELS panels on one level.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    points = np.array(path.waypoints)
    a, b = points[:-1], points[1:]
    lengths = np.abs(b - a)
    values, errors, failures = gk15_segments(
        f, a, b, tol * lengths / lengths.sum())
    if failures:
        raise failures[min(failures)]
    values, errors = values.sum(axis=0), errors.sum(axis=0)
    achieved = float(errors.max())
    if achieved > tol:
        raise ToleranceNotReached(values, achieved)
    return values


def holo_derivative(f, z, order=1, h=None):
    """Central-difference estimate of the holomorphic derivative of f.

    Returns (derivative, cr_residual) where cr_residual = |dbar f| is the
    first-order Cauchy-Riemann residual at z; it vanishes for holomorphic
    f up to truncation error.  order=2 returns the second holomorphic
    derivative (with a larger default step to balance rounding).

    z may be an array of points, with h a step or an array of steps of
    its shape; f is then called once per stencil offset on the whole
    array.  f may be vector-valued, giving (k,) values at a point and
    (n, k) on an array; both results then have that shape, the residual
    per component.  A scalar z and a scalar f give a Python complex and
    float.  Raises EvaluationFailure naming a point where f is not
    finite.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    scalar = np.ndim(z) == 0
    z = complex(z) if scalar else np.asarray(z, dtype=complex)
    if h is None:
        h = (1e-5 if order == 1 else 1e-4) * np.maximum(1.0, np.abs(z))
    h = float(h) if scalar else np.asarray(h, dtype=float)

    def ev(w):
        v = np.asarray(f(w), dtype=complex)
        if not np.isfinite(v).all():
            if scalar:
                raise EvaluationFailure(w)
            finite = np.isfinite(v).reshape(w.size, -1).all(axis=1)
            raise EvaluationFailure(complex(w.ravel()[np.argmin(finite)]))
        return v

    fr_p, fr_m = ev(z + h), ev(z - h)
    fi_p, fi_m = ev(z + 1j * h), ev(z - 1j * h)
    # the step of each point, broadcast over the components of a vector f
    s = np.reshape(h, np.shape(h) + (1,) * (fr_p.ndim - np.ndim(h)))
    fx = (fr_p - fr_m) / (2 * s)
    fy = (fi_p - fi_m) / (2 * s)
    cr = np.abs(0.5 * (fx + 1j * fy))
    if order == 1:
        d = 0.5 * (fx - 1j * fy)
    else:
        f0 = ev(z)
        fxx = (fr_p - 2 * f0 + fr_m) / s ** 2
        fyy = (fi_p - 2 * f0 + fi_m) / s ** 2
        fpp, fpm = ev(z + h + 1j * h), ev(z + h - 1j * h)
        fmp, fmm = ev(z - h + 1j * h), ev(z - h - 1j * h)
        fxy = (fpp - fpm - fmp + fmm) / (4 * s ** 2)
        d = 0.25 * (fxx - fyy - 2j * fxy)
    if d.ndim == 0:
        return complex(d), float(cr)
    return d, cr
