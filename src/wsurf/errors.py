"""Exception hierarchy shared by all wsurf modules, and the policy that
keeps one failing item of an array call from sinking the others."""

import numpy as np


class WsurfError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WsurfError):
    """Evaluation requested at a point where the function is undefined."""


class BranchCutViolation(DomainError):
    """Evaluation requested on (or across) a declared branch cut."""

    def __init__(self, fn_id, z):
        self.fn_id = fn_id
        self.z = z
        super().__init__(f"{fn_id} evaluated on its branch cut at z={z}")


class SingularPoint(DomainError):
    """Evaluation requested at (or too close to) a singularity of the ODE."""

    def __init__(self, z, message=None):
        self.z = z
        super().__init__(message or f"singular point at z={z}")


class OutOfRange(DomainError):
    """A point with a coordinate beyond geometry.COORD_LIMIT (2^500)."""

    def __init__(self, z):
        self.z = z
        super().__init__(f"z={z} is beyond the coordinate range +-2^500")


class EvaluationFailure(WsurfError):
    """An integrand or coefficient function produced a non-finite value."""

    def __init__(self, z, message=None):
        self.z = z
        super().__init__(message or f"evaluation failed at z={z}")


class ToleranceNotReached(WsurfError):
    """Adaptive quadrature ran out of depth before hitting the tolerance.

    The message is formatted when it is read: most of these errors are
    caught and counted, never printed."""

    def __init__(self, best_estimate, achieved_error):
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error
        super().__init__(best_estimate, achieved_error)

    def __str__(self):
        return (f"quadrature error {self.achieved_error:.3e} above "
                f"tolerance; best estimate {self.best_estimate}")


class PathPlanningFailure(WsurfError):
    """No legal piecewise-linear path between the requested endpoints."""


class StepSizeUnderflow(WsurfError):
    """ODE integrator step collapsed, typically approaching a singularity."""


class SolutionOverflow(WsurfError):
    """ODE solution grew beyond the floating-point range."""


class UnknownEquation(WsurfError, KeyError):
    """Requested equation id is not in the catalog."""


class OutsideFixtureDomain(DomainError):
    """Point outside the domain of a figure-caption fixture."""


class StencilOutsideDomain(DomainError):
    """A geometry report at a singular point, where its circle vanishes."""


class EmptyMesh(WsurfError):
    """Mesh export requested but every grid node is masked."""


class IoFailure(WsurfError):
    """Filesystem error during mesh export."""


def isolate_failures(fn, items):
    """(values, {index: WsurfError}) of fn on an array of items.

    fn maps items to an array with one row per item, or to a tuple of
    such arrays, which come back as a tuple.  It is called once on all
    items; only when that call raises a WsurfError is the slice halved,
    and each half called the same way, down to one-item slices
    items[i:i + 1].  So k failing items among n cost O(k log n) calls,
    and every other item keeps the value of the largest slice around it
    that did not raise.  An item where fn raised gets a nan row, shaped
    like the rows that came back, or like fn's value on no items when
    none did.  Non-finite values are left to the caller.
    """
    rows, failures = [], {}
    slices = [(0, len(items))]
    while slices:
        lo, hi = slices.pop()
        try:
            rows.append(fn(items[lo:hi]))
        except WsurfError as exc:
            if hi - lo > 1:
                mid = (lo + hi) // 2
                slices += [(mid, hi), (lo, mid)]    # the lower half first
            elif hi - lo == 1:
                rows.append(None)
                failures[lo] = exc
            else:
                raise
    if len(rows) == 1 and rows[0] is not None:
        return rows[0], failures
    like = next((row for row in rows if row is not None), None)
    if like is None:
        like = fn(items[:0])
    if isinstance(like, tuple):
        return tuple(_joined([None if row is None else row[k]
                              for row in rows], part)
                     for k, part in enumerate(like)), failures
    return _joined(rows, like), failures


def _joined(rows, like):
    """The rows concatenated, a nan row shaped like `like` for each None."""
    blank = np.full((1,) + like.shape[1:], np.nan,
                    dtype=np.result_type(like, float))
    return np.concatenate([blank if row is None else row for row in rows])
