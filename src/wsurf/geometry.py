"""Planar geometry helpers on complex numbers.

Points are complex scalars; segments are (a, b) pairs; a cut ray is an
(anchor, direction) pair with |direction| = 1, extending from the anchor
to infinity.  Obstacles decides which points and segments are legal.

Every test here has one implementation, over numpy arrays: endpoints
(and points) may be complex scalars or arrays that broadcast together.
A bool result is a Python bool for scalar input and a bool array of the
broadcast shape otherwise.
"""

from dataclasses import dataclass

import numpy as np

# Far enough to act as infinity for any desk-scale working rectangle.
RAY_LENGTH = 1e6
# No coordinate of a point may exceed this (about 3.3e150): the squares of
# coordinate differences in the tests below stay finite.
COORD_LIMIT = 2.0 ** 500


def _bool(result):
    """A Python bool for a 0-d result, the array itself otherwise."""
    return bool(result) if np.ndim(result) == 0 else result


def in_range(z):
    """True where z is finite and neither |Re z| nor |Im z| exceeds
    COORD_LIMIT."""
    z = np.asarray(z)
    return _bool((np.abs(z.real) <= COORD_LIMIT)
                 & (np.abs(z.imag) <= COORD_LIMIT))


def seg_point_distance(a, b, p):
    """Distance from point p to the closed segment [a, b]."""
    d = b - a
    L2 = np.abs(d) ** 2
    # a point segment gets t = 0, that is |p - a|
    t = ((p - a) * np.conj(d)).real / np.where(L2 == 0.0, 1.0, L2)
    return np.abs(p - (a + np.minimum(1.0, np.maximum(0.0, t)) * d))


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
        cross |= (np.abs(o) <= t) & _between(p, q, r)
    return _bool(cross)


def _between(a, b, p):
    d = b - a
    L2 = np.abs(d) ** 2
    t = ((p - a) * np.conj(d)).real / np.where(L2 == 0.0, 1.0, L2)
    return np.where(L2 == 0.0, np.abs(p - a) < 1e-12,
                    (-1e-12 < t) & (t < 1.0 + 1e-12))


def segment_hits_disc(a, b, center, radius):
    """True if segment [a, b] passes within radius of center.

    A hair of slack keeps endpoints sitting exactly on the disc boundary
    (grid rings at the exclusion radius) from flipping between legal and
    illegal under rounding.
    """
    return _bool(seg_point_distance(a, b, center) < radius * (1.0 - 1e-9))


def segment_crosses_ray(a, b, anchor, direction):
    """True if segment [a, b] crosses the cut ray (anchor, direction)."""
    return segments_cross(a, b, anchor, anchor + RAY_LENGTH * direction)


@dataclass(frozen=True)
class Obstacles:
    """The legality rules for every point and segment of a contour.

    Obstacles(exclusions, cuts) normalises (center, radius) discs to
    (complex, float) with radius > 0 and (anchor, direction) rays to
    (complex, unit complex).  The Weierstrass integrals are path
    independent on the plane punctured by the discs and cut along the rays.
    """

    discs: tuple = ()
    rays: tuple = ()

    def __post_init__(self):
        discs = tuple((complex(c), float(r)) for c, r in self.discs)
        rays = tuple((complex(p), complex(d)) for p, d in self.rays)
        if not all(r > 0 for _, r in discs):
            raise ValueError(f"exclusion radii must be positive: {discs}")
        if not all(0 < abs(d) < np.inf for _, d in rays):
            raise ValueError(f"cut ray directions must be finite and "
                             f"nonzero: {rays}")
        object.__setattr__(self, "discs", discs)
        object.__setattr__(self, "rays", tuple((p, d / abs(d)) for p, d in rays))

    def segment_clear(self, a, b):
        """True if segment [a, b] keeps out of every disc and crosses no ray."""
        hit = np.zeros(np.broadcast(a, b).shape, dtype=bool)
        for c, r in self.discs:
            hit |= segment_hits_disc(a, b, c, r)
        for p, d in self.rays:
            hit |= segment_crosses_ray(a, b, p, d)
        return _bool(~hit)

    def blocker(self, a, b):
        """None if segment [a, b] is clear, else what it runs into."""
        for c, r in self.discs:
            if segment_hits_disc(a, b, c, r):
                return f"enters exclusion disc at {c} (r={r})"
        for p, d in self.rays:
            if segment_crosses_ray(a, b, p, d):
                return f"crosses cut ray from {p}"
        return None

    def on_ray(self, w):
        """True if point w lies within 1e-9 of a cut ray."""
        hit = np.zeros(np.shape(w), dtype=bool)
        for p, d in self.rays:
            t = ((w - p) * np.conj(d)).real
            hit |= (t >= 0) & (np.abs(w - (p + t * d)) < 1e-9)
        return _bool(hit)

    def point_legal(self, w):
        """True if w is outside every closed disc and on no ray."""
        illegal = np.asarray(self.on_ray(w))
        for c, r in self.discs:
            illegal |= np.abs(w - c) <= r
        return _bool(~illegal)
