"""Deterministic path planning around discs and cut rays."""

import numpy as np
import pytest

from wsurf import pathplan
from wsurf.errors import PathPlanningFailure
from wsurf.pathplan import MAX_WAYPOINTS, path_clearance, plan_path


def test_free_space_is_straight():
    path = plan_path(0j, 1 + 1j)
    assert path.waypoints == (0j, 1 + 1j)


def test_detour_around_log_cut():
    # both endpoints left of the origin; the cut on the negative real
    # axis forces the path around through the right half plane
    path = plan_path(-1 - 0.5j, -1 + 0.5j, cuts=((0j, -1 + 0j),))
    inner = path.waypoints[1:-1]
    assert inner, "a detour is required"
    assert all(w.real > 0 for w in inner)
    assert len(path.waypoints) <= MAX_WAYPOINTS


def test_detour_around_disc():
    path = plan_path(-1 + 0j, 1 + 0j, exclusions=((0j, 0.5),))
    assert len(path.waypoints) >= 3
    assert path_clearance(path, 0j) >= 0.5 * (1 - 1e-9)


def test_endpoint_inside_disc_rejected():
    with pytest.raises(PathPlanningFailure):
        plan_path(0.1 + 0j, 2 + 0j, exclusions=((0j, 0.5),))


def test_degenerate_endpoints_rejected():
    with pytest.raises(PathPlanningFailure):
        plan_path(1 + 1j, 1 + 1j)


@pytest.mark.parametrize("a, b", [(1 + 1j, -1 + 0j), (-2 + 0j, 1 + 1j)])
def test_endpoint_on_cut_ray_fails_fast(monkeypatch, a, b):
    # no segment ending on a cut ray is legal, so no search is run
    def no_search(*args):
        raise AssertionError("_route called")
    monkeypatch.setattr(pathplan, "_route", no_search)
    with pytest.raises(PathPlanningFailure, match="cut ray"):
        plan_path(a, b, cuts=((0j, -1 + 0j),))


def test_endpoint_on_disc_boundary_allowed():
    # grid rings sit exactly at the exclusion radius
    path = plan_path(1 + 0j, 0.02j, exclusions=((0j, 0.02),))
    assert path.end == 0.02j


def test_deterministic():
    # note -1+0j itself would sit on the cut ray and be unreachable
    args = (-1 - 0.8j, 1 + 0j)
    kwargs = dict(exclusions=((0j, 0.4), (0.5 + 0.5j, 0.2)),
                  cuts=((0j, -1 + 0j),))
    p1 = plan_path(*args, **kwargs)
    p2 = plan_path(*args, **kwargs)
    assert p1.waypoints == p2.waypoints


def test_laguerre_grid_reachable(rng):
    # every node of a polar working grid is reachable from the anchor
    exclusions = ((0j, 0.02),)
    cuts = ((0j, -1 + 0j),)
    anchor = 1 + 1j
    for _ in range(100):
        r = rng.uniform(0.05, 3.0)
        t = rng.uniform(0.0, 2 * np.pi)
        z = r * np.exp(1j * t)
        if abs(z - anchor) < 1e-9 or abs(z) < 0.02:
            continue
        if abs(z.imag) < 1e-6 and z.real < 0:
            continue                    # node on the cut itself
        path = plan_path(anchor, z, exclusions, cuts)
        assert len(path.waypoints) <= MAX_WAYPOINTS
        assert path_clearance(path, 0j) >= 0.02 * (1 - 1e-9) - 1e-12


def test_no_route_raises():
    # target boxed in by four overlapping discs
    discs = tuple((c, 1.5) for c in (2 + 0j, -2 + 0j, 2j, -2j))
    with pytest.raises(PathPlanningFailure):
        plan_path(5 + 5j, 0j, exclusions=discs)
