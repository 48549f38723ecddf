"""Deterministic piecewise-linear path planning around exclusion discs
and branch-cut rays.

Routing runs Dijkstra over a small visibility graph: the endpoints plus
a fixed set of candidate waypoints generated from the obstacles, with
the segments between all of them tested in one array call.  It is fully
deterministic.
"""

import heapq

import numpy as np

from .contour import ContourPath
from .errors import OutOfRange, PathPlanningFailure
from .geometry import Obstacles, in_range
# not used here: bench/spans.py counts segment tests through these names
from .geometry import segment_crosses_ray, segment_hits_disc  # noqa: F401

MAX_WAYPOINTS = 8


def _candidates(a, b, obstacles):
    """Obstacle-derived waypoint candidates, deterministic order."""
    scale = max(1.0, 0.5 * abs(b - a))
    out = []
    for c, r in obstacles.discs:
        for k in (3.0, 8.0):
            for j in range(8):
                out.append(c + k * r * np.exp(1j * (np.pi * j / 4)))
    for anchor, d in obstacles.rays:
        perp = 1j * d
        for s in (0.4, 1.0, 2.5):
            out.append(anchor - s * scale * d)
            out.append(anchor - s * scale * (d + perp) * 0.7071)
            out.append(anchor - s * scale * (d - perp) * 0.7071)
            for t in (0.7, 2.0):
                out.append(anchor + t * scale * d + s * scale * perp)
                out.append(anchor + t * scale * d - s * scale * perp)
    legal = obstacles.point_legal(np.array(out))
    return [w for w, ok in zip(out, legal) if ok]


def _visibility_graph(nodes, obstacles):
    """adj[i]: (j, |nodes[i] - nodes[j]|) per visible j, in (i, j) order."""
    adj = [[] for _ in nodes]
    first, second = np.triu_indices(len(nodes), 1)
    z = np.array(nodes, dtype=complex)
    clear = obstacles.segment_clear(z[first], z[second])
    for i, j in zip(first[clear].tolist(), second[clear].tolist()):
        w = abs(nodes[i] - nodes[j])
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def _route(a, b, obstacles):
    if obstacles.segment_clear(a, b):
        return [a, b]
    nodes = [a, b] + _candidates(a, b, obstacles)
    max_hops = MAX_WAYPOINTS - 1
    adj = _visibility_graph(nodes, obstacles)
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
    obstacles = Obstacles(exclusions, cuts)
    for w in (a, b):
        if np.isfinite(w) and not in_range(w):
            raise OutOfRange(w)
        for c, r in obstacles.discs:
            if abs(w - c) < r * (1.0 - 1e-9):
                raise PathPlanningFailure(
                    f"endpoint {w} inside exclusion disc at {c} (r={r})")
        # segment_crosses_ray counts every segment ending there as a crossing
        if obstacles.on_ray(w):
            raise PathPlanningFailure(f"endpoint {w} on a cut ray")
    if a == b:
        raise PathPlanningFailure("degenerate path: endpoints coincide")
    waypoints = _route(a, b, obstacles)
    cleaned = [waypoints[0]]
    for w in waypoints[1:]:
        if w != cleaned[-1]:
            cleaned.append(w)
    return ContourPath(tuple(cleaned), obstacles.discs, obstacles.rays)
