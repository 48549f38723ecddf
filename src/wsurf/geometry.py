"""Planar geometry helpers on complex numbers.

Points are complex scalars; segments are (a, b) pairs; a cut ray is an
(anchor, direction) pair with |direction| = 1, extending from the anchor
to infinity.

segment_hits_disc and segment_crosses_ray also take numpy arrays of
segment endpoints and then return bool arrays.  Those go through the
array forms at the end of this module, which apply the same formulas and
tolerances without the scalar forms' short cuts; the scalar forms stay
separate because pathplan's visibility graph calls them thousands of
times per route, where numpy's per-call overhead would cost several times
the test itself.
"""

import numpy as np

# Far enough to act as infinity for any desk-scale working rectangle.
RAY_LENGTH = 1e6


def seg_point_distance(a, b, p):
    """Distance from point p to the closed segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * np.conj(d)).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _orient(a, b, c):
    return (b - a).real * (c - a).imag - (b - a).imag * (c - a).real


def segments_cross(a, b, c, d, eps=1e-12):
    """True if open segments (a,b) and (c,d) properly intersect or overlap.

    Orientation tolerances are scaled per test point: _orient(p, q, r) is
    of order |q - p| * dist(r, line pq), so comparing it against a single
    tolerance built from the longest segment squared would swallow honest
    sign information whenever one segment (a cut ray) is much longer than
    the other.
    """
    def tol(p, q, r):
        return eps * abs(q - p) * max(abs(q - p), abs(r - p), 1e-30)

    o1, t1 = _orient(a, b, c), tol(a, b, c)
    o2, t2 = _orient(a, b, d), tol(a, b, d)
    o3, t3 = _orient(c, d, a), tol(c, d, a)
    o4, t4 = _orient(c, d, b), tol(c, d, b)
    if ((o1 > t1 and o2 < -t2) or (o1 < -t1 and o2 > t2)) and (
        (o3 > t3 and o4 < -t4) or (o3 < -t3 and o4 > t4)
    ):
        return True
    # collinear overlap
    for o, t, p, q, r in ((o1, t1, a, b, c), (o2, t2, a, b, d),
                          (o3, t3, c, d, a), (o4, t4, c, d, b)):
        if abs(o) <= t and _between(p, q, r):
            return True
    return False


def _between(a, b, p):
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a) < 1e-12
    t = ((p - a) * np.conj(d)).real / L2
    return -1e-12 < t < 1.0 + 1e-12


def segment_hits_disc(a, b, center, radius):
    """True if segment [a, b] passes within radius of center.

    A hair of slack keeps endpoints sitting exactly on the disc boundary
    (grid rings at the exclusion radius) from flipping between legal and
    illegal under rounding.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _seg_point_distances(a, b, center) < radius * (1.0 - 1e-9)
    return bool(seg_point_distance(a, b, center) < radius * (1.0 - 1e-9))


def segment_crosses_ray(a, b, anchor, direction):
    """True if segment [a, b] crosses the cut ray (anchor, direction)."""
    tip = anchor + RAY_LENGTH * direction
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _segments_cross_arrays(a, b, anchor, tip)
    return segments_cross(a, b, anchor, tip)


# -- array forms: the scalar formulas over arrays of endpoints a, b -------

def _seg_point_distances(a, b, p):
    d = b - a
    L2 = np.abs(d) ** 2
    # a point segment gets t = 0, that is |p - a|, as in seg_point_distance
    t = ((p - a) * np.conj(d)).real / np.where(L2 == 0.0, 1.0, L2)
    return np.abs(p - (a + np.minimum(1.0, np.maximum(0.0, t)) * d))


def _segments_cross_arrays(a, b, c, d, eps=1e-12):
    def tol(p, q, r):
        return eps * np.abs(q - p) * np.maximum(
            np.maximum(np.abs(q - p), np.abs(r - p)), 1e-30)

    o1, t1 = _orient(a, b, c), tol(a, b, c)
    o2, t2 = _orient(a, b, d), tol(a, b, d)
    o3, t3 = _orient(c, d, a), tol(c, d, a)
    o4, t4 = _orient(c, d, b), tol(c, d, b)
    cross = ((((o1 > t1) & (o2 < -t2)) | ((o1 < -t1) & (o2 > t2)))
             & (((o3 > t3) & (o4 < -t4)) | ((o3 < -t3) & (o4 > t4))))
    # collinear overlap
    for o, t, p, q, r in ((o1, t1, a, b, c), (o2, t2, a, b, d),
                          (o3, t3, c, d, a), (o4, t4, c, d, b)):
        cross |= (np.abs(o) <= t) & _between_arrays(p, q, r)
    return cross


def _between_arrays(a, b, p):
    d = b - a
    L2 = np.abs(d) ** 2
    t = ((p - a) * np.conj(d)).real / np.where(L2 == 0.0, 1.0, L2)
    return np.where(L2 == 0.0, np.abs(p - a) < 1e-12,
                    (-1e-12 < t) & (t < 1.0 + 1e-12))
