"""Deterministic piecewise-linear path planning around exclusion discs
and branch-cut rays.

Routing runs Dijkstra over a small visibility graph: the endpoints plus
a fixed set of candidate waypoints generated from the obstacles.  With
at most a handful of discs and rays this stays well under a thousand
segment tests and is fully deterministic.
"""

import heapq

import numpy as np

from .contour import ContourPath
from .errors import PathPlanningFailure
from .geometry import (segment_crosses_ray, segment_hits_disc,
                       seg_point_distance)

MAX_WAYPOINTS = 8


def _on_ray(w, anchor, d):
    """True if w lies within 1e-9 of the ray (anchor, unit direction d)."""
    t = ((w - anchor) * np.conj(d)).real
    return t >= 0 and abs(w - (anchor + t * d)) < 1e-9


def _point_legal(w, discs, rays):
    for c, r in discs:
        if abs(w - c) <= r:
            return False
    return not any(_on_ray(w, anchor, d) for anchor, d in rays)


def _segment_clear(a, b, discs, rays):
    for c, r in discs:
        if segment_hits_disc(a, b, c, r):
            return False
    for anchor, d in rays:
        if segment_crosses_ray(a, b, anchor, d):
            return False
    return True


def _candidates(a, b, discs, rays):
    """Obstacle-derived waypoint candidates, deterministic order."""
    scale = max(1.0, 0.5 * abs(b - a))
    out = []
    for c, r in discs:
        for k in (3.0, 8.0):
            for j in range(8):
                out.append(c + k * r * np.exp(1j * (np.pi * j / 4)))
    for anchor, d in rays:
        perp = 1j * d
        for s in (0.4, 1.0, 2.5):
            out.append(anchor - s * scale * d)
            out.append(anchor - s * scale * (d + perp) * 0.7071)
            out.append(anchor - s * scale * (d - perp) * 0.7071)
            for t in (0.7, 2.0):
                out.append(anchor + t * scale * d + s * scale * perp)
                out.append(anchor + t * scale * d - s * scale * perp)
    return [w for w in out if _point_legal(w, discs, rays)]


def _route(a, b, discs, rays):
    if _segment_clear(a, b, discs, rays):
        return [a, b]
    nodes = [a, b] + _candidates(a, b, discs, rays)
    n = len(nodes)
    max_hops = MAX_WAYPOINTS - 1
    # adjacency by mutual visibility
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _segment_clear(nodes[i], nodes[j], discs, rays):
                w = abs(nodes[i] - nodes[j])
                adj[i].append((j, w))
                adj[j].append((i, w))
    # Dijkstra with a hop cap; ties broken by node index for determinism
    best = {(0, 0): 0.0}
    queue = [(0.0, 0, 0, (0,))]
    while queue:
        dist, i, hops, trail = heapq.heappop(queue)
        if i == 1:
            return [nodes[k] for k in trail]
        if hops >= max_hops:
            continue
        for j, w in adj[i]:
            key = (j, hops + 1)
            nd = dist + w
            if nd < best.get(key, np.inf) - 1e-12:
                best[key] = nd
                heapq.heappush(queue, (nd, j, hops + 1, trail + (j,)))
    raise PathPlanningFailure(f"no route {a} -> {b}")


def plan_path(xi0, xi, exclusions=(), cuts=()):
    """Shortest-effort deterministic path from xi0 to xi.

    exclusions: (center, radius) discs; cuts: (anchor, unit direction)
    rays.  Raises PathPlanningFailure when no legal detour exists with at
    most 8 waypoints.
    """
    a, b = complex(xi0), complex(xi)
    discs = tuple((complex(c), float(r)) for c, r in exclusions)
    rays = tuple((complex(p), complex(d) / abs(complex(d))) for p, d in cuts)
    for c, r in discs:
        if abs(a - c) < r * (1.0 - 1e-9) or abs(b - c) < r * (1.0 - 1e-9):
            raise PathPlanningFailure(
                f"endpoint inside exclusion disc at {c} (r={r})")
    for anchor, d in rays:
        # segment_crosses_ray counts every segment ending there as a crossing
        if _on_ray(a, anchor, d) or _on_ray(b, anchor, d):
            raise PathPlanningFailure(f"endpoint on cut ray from {anchor}")
    if a == b:
        raise PathPlanningFailure("degenerate path: endpoints coincide")
    waypoints = _route(a, b, discs, rays)
    cleaned = [waypoints[0]]
    for w in waypoints[1:]:
        if w != cleaned[-1]:
            cleaned.append(w)
    return ContourPath(tuple(cleaned), discs, rays)


def path_clearance(path, point):
    """Minimum distance from any path segment to a point."""
    return min(seg_point_distance(a, b, point) for a, b in path.segments())
