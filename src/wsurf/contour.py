"""Contour paths, adaptive Gauss-Kronrod quadrature, the adaptive
Chebyshev-panel engine for an ODE's lanes, and holomorphic derivatives on
small circles in the complex plane."""

import contextvars
import math
import os
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np
from numpy.polynomial import chebyshev as _chebyshev
from numpy.polynomial import legendre as _legendre

from .errors import (EvaluationFailure, SolutionOverflow, StepSizeUnderflow,
                     ToleranceNotReached, isolate_failures)
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

# Bisection levels; a panel still above its share of tol at this depth
# fails its segment with ToleranceNotReached.
MAX_DEPTH = 40
# Panels one segment may keep live on one bisection level.  A tolerance
# below the integrand's rounding floor near a singularity doubles the
# live panels on every level; this cap turns that into
# ToleranceNotReached instead of 2^MAX_DEPTH panels.
MAX_LIVE_PANELS = 4096
# A rejected panel's GK15 sums round at about ROUNDING_FLOOR |h| sum |w f|
# in each component (QUADPACK's qk15 estimate, 50 machine epsilons), and
# bisection halves that floor and the share of tol alike.  So a component
# above its share fails its segment at once when its error is within the
# floor and fell by less than STALL under the last bisection (truncation
# error falls by about 2^15 per halving, rounding error by about 2), or
# when its share is below one unit roundoff of the panel's sum, floor /
# 50, which two rounded sums meet only by agreeing to the last bits.
ROUNDING_FLOOR = 50 * np.finfo(float).eps
STALL = 16
# Panels per integrand call; bounds the memory of one level.
CHUNK_PANELS = 1024

# The roots of unity e^{2 pi i k / N} of the Cauchy-circle rule, shared
# by holo_derivative and the geometry report: the rule's estimates of
# f(z) and f'(z) alias f's Taylor terms of order N and N + 1, a term of
# order r^N relative to the one estimated.
CIRCLE_POINTS = 8
CIRCLE = np.exp(2j * np.pi * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS)

# A panel [t, t + h] of a lane (see panel_lanes) is sampled at the
# second-kind Chebyshev points t + h PANEL_U, its ends first and last.
# PANEL_S maps values there to their integral from t (its first row is
# exactly 0), PANEL_TAIL to their last three Chebyshev coefficients.
PANEL_POINTS = 24
PANEL_U = (1 - np.cos(np.pi * np.arange(PANEL_POINTS)
                      / (PANEL_POINTS - 1))) / 2
_X = 2 * PANEL_U - 1
_VALUES_TO_COEFFS = np.linalg.inv(_chebyshev.chebvander(_X, PANEL_POINTS - 1))
PANEL_S = (_chebyshev.chebvander(_X, PANEL_POINTS) @ _chebyshev.chebint(
    np.eye(PANEL_POINTS), lbnd=-1) @ _VALUES_TO_COEFFS) / 2
PANEL_S[0] = 0.0
PANEL_TAIL = _VALUES_TO_COEFFS[-3:]
# A GK15 panel mid + half x, x in [-1, 1], is sampled at x = _XK.  GK_S
# maps values g there to the integrals of their degree-14 interpolant
# from the midpoint to each node, over half: int_mid^node g = half GK_S g
# up to the interpolant's error (its row 7, the midpoint's, is exactly
# 0).  GK_TAIL maps them to the interpolant's last two Legendre
# coefficients, which bound that error (see gk15_carry).
_GK_VALUES_TO_COEFFS = np.linalg.inv(_legendre.legvander(_XK, 14))
GK_S = (_legendre.legvander(_XK, 15)
        @ _legendre.legint(np.eye(15), lbnd=0) @ _GK_VALUES_TO_COEFFS)
GK_S[7] = 0.0
GK_TAIL = _GK_VALUES_TO_COEFFS[-2:]
# both, as one (15, 17) right-hand factor of gk15_carry's products
_GK_CARRY = np.concatenate([GK_S, GK_TAIL]).T.astype(complex)
# A straight run of segments (see gk15_runs) shares one GK15 panel of
# at most MAX_RUN parts.  On hermite grids over [-2, 2]^2 with a cap of
# 16, every run panel of up to 14 parts passed at 200^2; at 100^2, 98 %
# of those of 7 parts, 81 % of 8 and none of 12 or more; at 50^2, 85 %
# of 4 and 5 % of 6.  A longer cap spends failed panels at 100^2, a
# shorter one spends more panels at 200^2.  Consecutive segments that
# chain have equal vectors when these differ by at most RUN_SLACK units
# of roundoff of their outer ends' moduli: linspace grids differ by up
# to 25 units at 200^2 and 63 at 400^2, and a node off its place on the
# run by that much moves its integrals as much as the rounding of its
# own coordinates does.
MAX_RUN = 8
RUN_SLACK = 64
# the shortest panel, as a part of its lane, and the most panels of a
# lane: a lane approaching a singular point or varying too fast to
# resolve fails with StepSizeUnderflow instead of hanging
H_MIN = 1e-10
MAX_PANELS = 10_000

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
    """f on the nodes of an array, as values of shape nodes.shape + (k,);
    raises TypeError unless f gives one row per node."""
    flat = nodes.ravel()
    vals = np.asarray(f(flat), dtype=complex)
    if vals.shape[:1] != flat.shape:
        raise TypeError(f"integrand returned values of shape {vals.shape} "
                        f"for nodes of shape {flat.shape}")
    return vals.reshape(nodes.shape + (math.prod(vals.shape[1:]),))


def _eval_panels(f, nodes, half, rows):
    """f.panels on the rows of the (p, 15) GK15 nodes and (p,) half
    widths, as values of shape (rows, 15, k); raises TypeError unless it
    gives one value per node."""
    vals = np.asarray(f.panels(nodes[rows], half[rows]), dtype=complex)
    if vals.shape[:2] != (len(rows), 15):
        raise TypeError(f"integrand panels returned values of shape "
                        f"{vals.shape} for {len(rows)} panels")
    return vals.reshape(vals.shape[:2] + (math.prod(vals.shape[2:]),))


def gk15_carry(g):
    """(C, ok) for the (p, 15) values g of p functions at the GK15 nodes
    mid + half _XK of their panels: C = GK_S g, so that half C[:, j] is
    the integral of g's interpolant from mid to node j, and ok, a (p,)
    mask of the panels where that is g's own integral up to rounding.

    Where g's Legendre coefficients fall past degree 14 (as an entire
    function's do on a short panel), the interpolant's error in any of
    these integrals is below its last two coefficients (GK_TAIL g): the
    carry of P_n, 15 <= n <= 31, misses by less than 0.17.  A panel is
    ok when that tail is within ROUNDING_FLOOR sum_k w_k |g_k|, which
    bounds, over |half|, the rounding of GK15's own sum of g on the
    panel (QUADPACK's estimate); a panel with a value that is not finite
    never is.
    The products are per panel (1 x 15 by 15 x 17), as in
    weierstrass._lane_integrals: so a row's bits do not depend on the
    number of rows, and no product is large enough for a threaded BLAS
    to run beside the GK15 pool.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        both = (g[:, None, :] @ _GK_CARRY)[:, 0]
        tail = np.abs(both[:, 15:]).max(axis=1)
        scale = (np.abs(g) * _WK).sum(axis=1)
    return both[:, :15], (tail <= ROUNDING_FLOOR * scale) & (scale < np.inf)


@cache
def run_weights(k):
    """(k + 4, 15) real matrix of a GK15 panel split into k equal parts
    [x_{j-1}, x_j], x_j = -1 + 2j/k, for the values at the panel's nodes
    mid + half _XK: rows 0 and 1 give its Kronrod and Gauss sums, rows 2
    and 3 are GK_TAIL, and row 3 + j gives the integral of the values'
    degree-14 interpolant over part j, over half (the interpolant of
    P_n, 15 <= n <= 31, misses its integral over a part by less than
    0.17, as in gk15_carry)."""
    x = -1 + 2 * np.arange(k + 1) / k
    at = (_legendre.legvander(x, 15) @ _legendre.legint(np.eye(15), lbnd=-1)
          @ _GK_VALUES_TO_COEFFS)
    gauss = np.zeros(15)
    gauss[1::2] = _WG
    return np.concatenate([[_WK, gauss], GK_TAIL, np.diff(at, axis=0)])


def _panel_values(f, lo, hi):
    """(nodes, half, values, {panel: WsurfError}) of f on the GK15
    panels lo[i] -> hi[i]: the (p, 15) nodes, the (p,) half widths and
    the (p, 15, k) values, from one integrand call -- of f.panels(nodes,
    half) when f has a panels attribute -- and isolate_failures, which
    bisects the panels down to the failing ones only when f raises a
    WsurfError (their rows nan)."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
    if hasattr(f, "panels"):
        vals, failed = isolate_failures(
            partial(_eval_panels, f, nodes, half), np.arange(len(lo)))
    else:
        vals, failed = isolate_failures(partial(_eval_vectorized, f), nodes)
    return nodes, half, vals, failed


def _gk15_chunk(f, lo, hi, ptol, prev):
    """GK15 estimates and their errors, shapes (p, k), on the panels
    lo[i] -> hi[i] of one chunk, a mask (p,) of the panels stuck at their
    rounding floor -- some component above its share ptol[i] is stuck
    by the ROUNDING_FLOOR rules, given prev, the error (p, k) of each
    panel's parent (inf on the first level) -- and {panel: WsurfError}
    for the panels where f raised one or returned a non-finite value
    (_panel_values).
    """
    nodes, half, vals, failed = _panel_values(f, lo, hi)
    if not np.isfinite(vals).all():
        finite = np.isfinite(vals).all(axis=2)
        for i in np.flatnonzero(~finite.all(axis=1)):
            failed.setdefault(int(i), EvaluationFailure(
                complex(nodes[i][np.argmin(finite[i])])))
    half = half[:, None]
    # the failed panels' sums are meaningless, so they may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        k15 = half * (_WK @ vals)
        err = np.abs(k15 - half * (_WG @ vals[:, 1::2]))
        stuck = np.zeros(len(lo), dtype=bool)
        rows = np.flatnonzero((err > ptol[:, None]).any(axis=1))
        if rows.size:
            err_r, share = err[rows], ptol[rows, None]
            floor = ROUNDING_FLOOR * np.abs(half[rows]) * (
                _WK @ np.abs(vals[rows]))
            stuck[rows] = ((err_r > share)
                           & ((err_r <= floor) & (STALL * err_r >= prev[rows])
                              | (floor > 50 * share))).any(axis=1)
        return k15, err, stuck, failed


def _run_chunk(f, lo, hi, parts, rtol):
    """The integrals (sum(parts), k) over the equal parts of the runs
    lo[i] -> hi[i] of one chunk, parts[i] each, in run order, from one
    GK15 panel per run and run_weights, and a mask (p,) of the runs
    accepted: their GK15 error is within rtol[i] and, in every
    component, their last two Legendre coefficients within gk15_carry's
    rounding floor, ROUNDING_FLOOR sum_k w_k |g_k|.  A run with a value
    that is not finite, or where f raised a WsurfError, is not.  The
    products are per run, on the values' real and imaginary parts, so a
    row's bits do not depend on the chunk."""
    _, half, vals, _ = _panel_values(f, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        ks = np.unique(parts)
        if ks.size == 1:         # as the circle's diameters: no regrouping
            return _run_rows(ks[0], half, vals, rtol)
        rows = np.empty((parts.sum(), vals.shape[2]), dtype=complex)
        first = np.cumsum(parts) - parts
        ok = np.empty(len(lo), dtype=bool)
        for k in ks:
            runs = np.flatnonzero(parts == k)
            rows[(first[runs, None] + np.arange(k)).ravel()], ok[runs] = (
                _run_rows(k, half[runs], vals[runs], rtol[runs]))
    return rows, ok


def _run_rows(k, half, vals, rtol):
    """_run_chunk's rows and mask for runs of k parts each, given their
    half widths and values."""
    both = (run_weights(k) @ vals.view(float)).view(complex)
    h = half[:, None]
    tail = np.abs(both[:, 2:4]).max(axis=1)
    ok = (np.abs(h * both[:, 0] - h * both[:, 1]) <= rtol[:, None]).all(axis=1)
    # The floor's sum_k w_k |g_k| is at least |sum_k w_k g_k|, the Kronrod
    # sum, up to a few units of roundoff: |g| is taken only for the runs
    # whose tail does not pass below the floor of that sum.
    check = np.flatnonzero(ok & ~(
        tail <= ROUNDING_FLOOR * (1 - 1e-13) * np.abs(both[:, 0])).all(axis=1))
    if check.size:
        ok[check] = (tail[check] <= ROUNDING_FLOOR
                     * (_WK @ np.abs(vals[check]))).all(axis=1)
    return (h[:, None] * both[:, 4:]).reshape(-1, vals.shape[2]), ok


def _chunks(chunk, f, arrays, starts):
    """chunk(f, ...) on the chunks of CHUNK_PANELS panels of the arrays
    that begin at the panel indices starts, in their order."""
    return [chunk(f, *(x[s:s + CHUNK_PANELS] for x in arrays))
            for s in starts]


def _in_chunks(chunk, f, *arrays):
    """chunk(f, *arrays), a tuple of per-panel results, on the arrays of
    per-panel values one chunk of CHUNK_PANELS panels at a time, so that
    a level's memory stays bounded.  The chunks of an integrand marked
    thread_safe are shared out by _in_shares; either way their results
    are joined in panel order: arrays are concatenated, and the panel
    keys of {panel: WsurfError} dicts offset by their chunk's start.
    """
    starts = range(0, len(arrays[0]), CHUNK_PANELS)
    if len(starts) <= 1:
        return chunk(f, *arrays)
    run = partial(_chunks, chunk, f, arrays)
    parts = (_in_shares(run, starts) if getattr(f, "thread_safe", False)
             else run(starts))
    return tuple(
        {s + i: v for s, part in zip(starts, results) for i, v in part.items()}
        if isinstance(results[0], dict) else np.concatenate(results)
        for results in zip(*parts))


@cache
def _pool(pid):
    """(thread pool, its worker count) of the process pid: one worker
    per CPU the process may use, less the calling thread, or (None, 0)
    on one CPU.  Keyed by pid, so that a forked child, which has none
    of its parent's threads, makes its own pool."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = cpus - 1
    if not workers:
        return None, 0
    # about 12 ms of imports, paid only by a run with a multi-chunk level
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers, thread_name_prefix="wsurf-gk15")
    return pool, workers


def _in_shares(run, items):
    """run(items) for a run that maps a sequence of items to a list, one
    entry per item, split into contiguous shares of the items: the
    calling thread runs the first share, and _pool's workers the others,
    each in a copy of the caller's contextvars context (numpy's errstate
    among them).  The shares' lists are joined in order.  Every share
    finishes before this returns or raises, and the exception raised is
    the one of the first share in order that raised."""
    pool, workers = _pool(os.getpid())
    n = min(workers + 1, len(items))
    if n < 2:
        return run(items)
    cuts = [len(items) * j // n for j in range(n + 1)]
    futures = [pool.submit(contextvars.copy_context().run, run, items[a:b])
               for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        parts = run(items[:cuts[1]])
    finally:
        for future in futures:
            future.exception()       # waits; the results are read below
    for future in futures:
        parts += future.result()
    return parts


def gk15_segments(f, a, b, tol):
    """Adaptive GK15 integrals of f over the straight segments a[i] -> b[i].

    The segments are integrated together, breadth first: each bisection
    level evaluates the live panels of every segment with one integrand
    call per CHUNK_PANELS panels, keeping only their GK15 sums.  A panel
    is accepted when its GK15 error is within tol[i] / 2^depth in every
    component; only the other panels are bisected.  So the errors of a
    segment that completes sum to at most tol[i] in every component.

    f maps an (n,) complex array to values of shape (n,) or (n, k).
    An f with a true ``thread_safe`` attribute promises that concurrent
    calls from several threads are safe and give the values of the same
    calls made one by one; the chunks of its multi-chunk levels are then
    evaluated concurrently on every CPU the process may use, each in a
    copy of the caller's contextvars context, so that f sees the
    caller's np.errstate.  An f with a ``panels(nodes, half)`` attribute
    is called through it instead, once per chunk, on the (p, 15) GK15
    nodes mid + half _XK of its p panels and their (p,) half widths,
    and gives values of shape (p, 15) or (p, 15, k), those of f on the
    nodes up to rounding (see gk15_carry); thread_safe promises the
    same of concurrent panels calls.  Such an f must not itself call
    gk15_segments with a thread_safe integrand: its chunks would wait on
    the worker threads running f.  Each chunk's arithmetic, the chunk
    size and the order in which chunks are joined are those of the
    serial loop, so values and failures are bit-identical to it, and an
    exception f raises (other than a WsurfError) is the one of the first
    chunk in panel order that raised.

    Returns ``(values, failures)``: values has shape (m,) or (m, k), and
    failures maps the index of every segment that did not run to
    completion to its WsurfError -- EvaluationFailure naming the first
    non-finite node, an error the integrand raised, or
    ToleranceNotReached (with the segment's summed GK15 error estimate)
    when a panel is still above its share of tol at MAX_DEPTH, one
    level needed more than MAX_LIVE_PANELS panels or a panel is stuck at
    its rounding floor (ROUNDING_FLOOR).  Entries of failed
    segments are meaningless.  With no segments, values has the shape
    of f's values on no nodes, and failures is empty.  Every segment
    starts with a panel of its own; gk15_runs shares one panel among
    the segments of a straight run, and gives its single segments to
    this function.
    """
    lo = np.asarray(a, dtype=complex).reshape(-1)
    hi = np.asarray(b, dtype=complex).reshape(-1)
    m = len(lo)
    tol = np.asarray(tol, dtype=float)
    tol_min = tol.min(initial=np.inf)
    ptol = np.broadcast_to(tol, (m,))
    prev = np.full((m, 1), np.inf)
    seg = values = errors = None
    failures = {}
    depth = 0
    while seg is None or seg.size:
        k15, err, stuck, failed = _in_chunks(_gk15_chunk, f, lo, hi,
                                               ptol, prev)
        if seg is None:
            # one panel per segment, all within tolerance: the common
            # case returns here
            if not failed and err.max(initial=0.0) <= tol_min:
                return _squeezed(k15), failures
            seg = np.arange(m)
            values = np.zeros((m, k15.shape[1]), dtype=complex)
            errors = np.zeros((m, k15.shape[1]))
        if failed:
            for i in sorted(failed):
                failures.setdefault(int(seg[i]), failed[i])
            live = ~np.isin(seg, list(failures))
            seg, lo, hi, ptol, k15, err, stuck = (
                x[live] for x in (seg, lo, hi, ptol, k15, err, stuck))
        done = err.max(1) <= ptol
        np.add.at(values, seg[done], k15[done])
        np.add.at(errors, seg[done], err[done])
        more = ~done
        seg, lo, hi, ptol, k15, err, stuck = (
            x[more] for x in (seg, lo, hi, ptol, k15, err, stuck))
        # the segments that would bisect past MAX_DEPTH, keep more than
        # MAX_LIVE_PANELS panels live or bisect a panel at its rounding
        # floor, fail
        limit = 0 if depth >= MAX_DEPTH else MAX_LIVE_PANELS
        if 2 * len(seg) > limit or stuck.any():
            over = 2 * np.bincount(seg, minlength=m) > limit
            over[seg[stuck]] = True
            for s in np.flatnonzero(over):
                rest = seg == s
                best = values[s] + k15[rest].sum(axis=0)
                failures.setdefault(int(s), ToleranceNotReached(
                    best[0] if len(best) == 1 else best,
                    float(np.max(errors[s] + err[rest].sum(axis=0)))))
            keep = ~over[seg]
            seg, lo, hi, ptol, err = (
                x[keep] for x in (seg, lo, hi, ptol, err))
        ends = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)
        seg = np.repeat(seg, 2)
        ptol = np.repeat(0.5 * ptol, 2)
        prev = np.repeat(err, 2, axis=0)
        lo, hi = ends[:, :2].ravel(), ends[:, 1:].ravel()
        depth += 1
    return _squeezed(values), failures


def _squeezed(values):
    """gk15_segments' values, with the (m, 1) column of a scalar
    integrand as (m,)."""
    return values[:, 0] if values.shape[1] == 1 else values


def straight_runs(a, b):
    """(first, parts, flip) of the straight runs of the segments a[i] ->
    b[i]: consecutive segments, each starting where the one before ends,
    with equal vectors to within RUN_SLACK units of roundoff of their
    outer ends' moduli.  A segment that starts where the next one starts,
    with the opposite vector (to within the same slack), joins it as its
    run's first part, traversed backwards: two legs from one point that
    make a diameter are one run.  A maximal run is cut into pieces of
    near-equal length, at most MAX_RUN; a segment outside any run is a
    piece of one.  Pieces are in segment order, and flip marks those
    whose first part is such a reversed segment."""
    joined = b[:-1] == a[1:]
    flip = (a[:-1] == a[1:]) & ~joined
    if not (joined.any() or flip.any()):
        return (np.arange(len(a)), np.ones(len(a), dtype=int),
                np.zeros(len(a), dtype=bool))
    slack = RUN_SLACK * np.finfo(float).eps
    d = b - a
    i = np.flatnonzero(joined)
    joined[i] = np.abs(d[i + 1] - d[i]) <= (
        slack * (np.abs(a[i]) + np.abs(b[i + 1])))
    i = np.flatnonzero(flip)
    flip[i] = np.abs(d[i + 1] + d[i]) <= (
        slack * (np.abs(b[i]) + np.abs(b[i + 1])))
    link = joined | flip
    link[:-1] &= ~flip[1:]           # a reversed segment starts its run
    start = np.flatnonzero(np.concatenate([[True], ~link]))
    length = np.diff(np.append(start, len(a)))
    first, parts = start, length
    if length.max() > MAX_RUN:
        pieces = -(-length // MAX_RUN)
        run = np.repeat(np.arange(len(start)), pieces)
        j = np.arange(len(run)) - np.repeat(np.cumsum(pieces) - pieces,
                                            pieces)
        base, extra = length[run] // pieces[run], length[run] % pieces[run]
        parts = base + (j < extra)
        first = start[run] + j * base + np.minimum(j, extra)
    return first, parts, np.append(flip & link, False)[first]


def gk15_runs(f, a, b, tol):
    """gk15_segments(f, a, b, tol) with one GK15 panel per straight run.

    The straight runs of the segments (straight_runs) of two parts or
    more are integrated with one GK15 panel each, over the whole piece,
    and the integral over each part comes from run_weights: exact for
    the panel's degree-14 interpolant.  A piece whose first part is a
    reversed segment is integrated from that segment's end, and the
    segment gets its part's integral negated, which is exact.  A run is
    accepted when its GK15 error is within the least tol[i] of its
    segments and, in every component, its last two Legendre
    coefficients are within gk15_carry's rounding floor; then each
    part's integral is the segment's own up to rounding.  A run that is
    not accepted (its integrand is not resolved, not finite or raised a
    WsurfError) splits in two, and so on; its single segments, reversed
    ones in their own orientation, and those outside any run, go to one
    gk15_segments call, so they get its values and failures bit for
    bit.  The run levels evaluate their chunks as gk15_segments does
    (see there for thread_safe and panels).  A node off its place on the
    run moves its segments' integrals by f there times the offset, which
    straight_runs keeps at the rounding of the node's coordinates.
    Returns (values, failures) as gk15_segments does.
    """
    lo = np.asarray(a, dtype=complex).reshape(-1)
    hi = np.asarray(b, dtype=complex).reshape(-1)
    m = len(lo)
    ptol = np.broadcast_to(np.asarray(tol, dtype=float), (m,))
    first, parts, flip = straight_runs(lo, hi)
    single = []
    values = None
    while True:
        single.append(first[parts == 1])
        run = parts > 1
        first, parts, flip = first[run], parts[run], flip[run]
        if not first.size:
            break
        offset = np.cumsum(parts) - parts
        edges = np.repeat(first - offset, parts) + np.arange(parts.sum())
        rows, ok = _in_chunks(_run_chunk, f,
                              np.where(flip, hi[first], lo[first]),
                              hi[first + parts - 1], parts,
                              np.minimum.reduceat(ptol[edges], offset))
        if values is None:
            values = np.empty((m, rows.shape[1]), dtype=complex)
        back = offset[flip]
        rows[back] = -rows[back]
        done = np.repeat(ok, parts)
        values[edges[done]] = rows[done]
        if ok.all():
            break
        first, parts, flip = first[~ok], parts[~ok], flip[~ok]
        head = parts // 2
        first = np.stack([first, first + head], axis=1).ravel()
        parts = np.stack([head, parts - head], axis=1).ravel()
        flip = np.stack([flip, np.zeros_like(flip)], axis=1).ravel()
    if values is None:
        return gk15_segments(f, lo, hi, tol)
    single = np.sort(np.concatenate(single))
    failures = {}
    if single.size:
        rest, failed = gk15_segments(f, lo[single], hi[single], ptol[single])
        values[single] = rest.reshape(len(single), -1)
        failures = {int(single[i]): exc for i, exc in sorted(failed.items())}
    return _squeezed(values), failures


def contour_quad(f, path, tol=1e-10):
    """Integrate f along a ContourPath to absolute tolerance tol.

    f must map a 1-D numpy array of n complex nodes to values of shape
    (n,) or (n, k); values whose first axis is not n raise TypeError.
    Values of shape (n,) give a complex result; values of shape (n, k)
    give a (k,) result with every component held to tol.  All segments
    of the path go through one gk15_segments call, each held to its
    length's share of tol.  Raises the WsurfError of the first segment
    that fails in gk15_segments: EvaluationFailure naming a node where f
    is not finite, or ToleranceNotReached when bisection bottoms out
    above tol or a segment needs more than MAX_LIVE_PANELS panels on one
    level.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    points = np.array(path.waypoints)
    a, b = points[:-1], points[1:]
    lengths = np.abs(b - a)
    values, failures = gk15_segments(
        f, a, b, tol * lengths / lengths.sum())
    if failures:
        raise failures[min(failures)]
    return values.sum(axis=0)


def panel_lanes(ode, a, b, states, step, keep_panels=False):
    """Carry the (n, d) states along the segments a -> b, one lane
    each, in adaptive Chebyshev panels of the ODE with a client's rule.

    Each step samples (q/p, r/p) on the panels of the active lanes in
    one ``ode.ratios`` call per CHUNK_PANELS lanes, so that a step's
    memory stays bounded; ``step(y, c, h, qp, rp)`` gives the (k, d,
    PANEL_POINTS) states on the panels from the start states y, with
    c = (b - a) h, and which panels it accepts.  An accepted panel's h
    doubles, up to the rest of its lane, a rejected one's halves.  The
    steps of transport, of the pair's chain and of the edge moments take
    their products one lane at a time, so a lane's bits do not depend on
    its batch as long as ode.ratios' do not.  Returns the (n, d) states
    at b and, if keep_panels, the accepted panels as (lanes, z, y).
    Raises the errors of ode.ratios, EvaluationFailure for a state not
    finite at a lane's start, and StepSizeUnderflow (or
    SolutionOverflow) for a panel below H_MIN of its lane or a lane of
    MAX_PANELS panels."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dz = b - a
    y = np.array(states, dtype=complex)
    t = np.zeros(a.size)
    h = np.ones(a.size)
    active = np.arange(a.size)
    panels = []
    for _ in range(MAX_PANELS):
        if not active.size:
            return y, panels
        finished = []
        for first in range(0, active.size, CHUNK_PANELS):
            lanes = active[first:first + CHUNK_PANELS]
            tk, hk, last = t[lanes], h[lanes], h[lanes] == 1 - t[lanes]
            z = a[lanes, None] + (tk[:, None] + hk[:, None] * PANEL_U) \
                * dz[lanes, None]
            z[last, -1] = b[lanes[last]]
            qp, rp = ode.ratios(z)
            # a panel starts where an accepted one ended, so this can
            # only fire at the start of a lane
            start = ~np.isfinite(y[lanes]).all(axis=1)
            if start.any():
                w = complex(z[np.argmax(start), 0])
                raise EvaluationFailure(
                    w, f"ODE state is not finite at z={w}")
            ys, ok = step(y[lanes], dz[lanes] * hk, hk, qp, rp)
            done = lanes[ok]
            if keep_panels and done.size:
                panels.append((done, z[ok], ys[ok]))
            y[done] = ys[ok, :, -1]
            t[done] += h[done]
            h[done] = np.minimum(2 * h[done], 1 - t[done])
            h[lanes[~ok]] /= 2
            short = ~ok & (hk / 2 < H_MIN)
            if short.any():
                k = np.argmax(short)
                if not np.isfinite(ys[k]).all():
                    raise SolutionOverflow(
                        f"solution overflowed at z={z[k, 0]}")
                raise StepSizeUnderflow(
                    f"panel below {H_MIN:g} of its segment at z={z[k, 0]}")
            finished.append(ok & last)
        active = active[~np.concatenate(finished)]
    raise StepSizeUnderflow(f"a lane took more than {MAX_PANELS} panels")


def holo_derivative(f, z, r=None):
    """Circle mean, holomorphic derivative and antiholomorphy residual of
    f at z, by the Cauchy-circle rule (Lyness & Moler, SIAM J. Numer.
    Anal. 4, 1967).

    f is called once, on the CIRCLE_POINTS points z + r e^{2 pi i k / N}
    of the circle around every z, stacked into an array of shape (N,) +
    z.shape, and the discrete Fourier coefficients c_j of its values over
    that axis give (c_0, c_1 / r, |c_-1| / r).  For holomorphic f these
    are f(z) and f'(z) up to O(r^N), and a residual that vanishes up to
    O(r^(N-2)); a term c conj(z) adds |c| to the residual.  The radius r
    defaults to 1e-3 max(1, |z|) and may be an array of z's shape.

    f may be vector-valued, giving values of shape w.shape + (k,) at the
    points w; the three results then have shape z.shape + (k,), the
    residual per component.  Raises EvaluationFailure naming a point
    where f is not finite.
    """
    z = np.asarray(z, dtype=complex)
    r = 1e-3 * np.maximum(1.0, np.abs(z)) if r is None \
        else np.asarray(r, dtype=float)
    w = z + r * CIRCLE.reshape((-1,) + (1,) * z.ndim)
    v = np.asarray(f(w), dtype=complex)
    # over a vector f's components; a reshape would fail on no points
    finite = np.isfinite(v).all(axis=tuple(range(w.ndim, v.ndim))).ravel()
    if not finite.all():
        raise EvaluationFailure(complex(w.ravel()[np.argmin(finite)]))
    c = np.fft.fft(v, axis=0) / CIRCLE_POINTS
    # the radius of each point, broadcast over the components of a vector f
    r = np.reshape(r, np.shape(r) + (1,) * (v.ndim - 1 - np.ndim(r)))
    return c[0], c[1] / r, np.abs(c[-1]) / r
