"""The obstacle model: normalisation, validation and the legality rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsurf.catalog import get_equation
from wsurf.geometry import Obstacles


class TestConstruction:
    def test_normalises_discs_and_rays(self):
        obs = Obstacles(((1, 2),), ((1j, -3 + 4j),))
        assert obs.discs == ((1 + 0j, 2.0),)
        assert type(obs.discs[0][0]) is complex
        assert type(obs.discs[0][1]) is float
        ((anchor, d),) = obs.rays
        assert anchor == 1j and type(d) is complex
        assert d == (-3 + 4j) / 5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Obstacles().discs = ((0j, 1.0),)

    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan")])
    def test_rejects_non_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radi"):
            Obstacles(((0j, radius),))

    @pytest.mark.parametrize("direction", [0j, complex(np.inf, 0),
                                           complex(np.nan, 1)])
    def test_rejects_zero_or_non_finite_direction(self, direction):
        with pytest.raises(ValueError, match="direction"):
            Obstacles((), ((0j, direction),))


class TestRules:
    def test_segment_clear(self):
        obs = Obstacles(((0j, 0.5),), ((2 + 0j, 1 + 0j),))
        assert obs.segment_clear(-1 + 1j, 1 + 1j) is True
        assert obs.segment_clear(-1 + 0j, 1 + 0j) is False     # disc
        assert obs.segment_clear(3 - 1j, 3 + 1j) is False      # ray
        assert Obstacles().segment_clear(-1 + 0j, 1 + 0j) is True

    def test_segment_clear_arrays(self):
        obs = Obstacles(((0j, 0.5),), ((2 + 0j, 1 + 0j),))
        a = np.array([-1 + 1j, -1 + 0j, 3 - 1j])
        b = np.array([1 + 1j, 1 + 0j, 3 + 1j])
        assert obs.segment_clear(a, b).tolist() == [True, False, False]
        clear = Obstacles().segment_clear(a, b)
        assert clear.shape == (3,) and clear.all()

    def test_blocker_names_the_obstacle(self):
        obs = Obstacles(((0j, 0.5),), ((2 + 0j, 1 + 0j),))
        assert obs.blocker(-1 + 1j, 1 + 1j) is None
        assert "disc at 0j" in obs.blocker(-1 + 0j, 1 + 0j)
        assert "ray from (2+0j)" in obs.blocker(3 - 1j, 3 + 1j)

    def test_on_ray_any_direction(self):
        # a diagonal ray: the rule is not limited to horizontal cuts
        obs = Obstacles((), ((1 + 1j, 1 + 1j),))
        assert obs.on_ray(1 + 1j)                   # the anchor
        assert obs.on_ray(3 + 3j)
        assert obs.on_ray(3 + 3j + 5e-10j)
        assert not obs.on_ray(3 + 3j + 1e-8j)
        assert not obs.on_ray(0j)                   # behind the anchor

    def test_point_legal_uses_the_closed_disc(self):
        obs = Obstacles(((0j, 0.5),), ((2 + 0j, 1 + 0j),))
        assert not obs.point_legal(0.5 + 0j)        # on the boundary
        assert obs.point_legal(0.5 + 1e-12 + 0j)
        assert not obs.point_legal(3 + 0j)          # on the ray
        assert obs.point_legal(1 + 0j)


@st.composite
def snapped_points(draw, obs):
    """A point in the box [-3, 3]^2, or snapped onto a disc boundary, a
    disc centre, a ray or a ray's anchor."""
    coord = st.floats(-3.0, 3.0)
    kind = draw(st.sampled_from(["free", "boundary", "center", "ray",
                                 "anchor"]))
    if kind == "free":
        return complex(draw(coord), draw(coord))
    if kind in ("boundary", "center"):
        c, r = draw(st.sampled_from(obs.discs))
        if kind == "center":
            return c
        return c + r * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    anchor, d = draw(st.sampled_from(obs.rays))
    if kind == "anchor":
        return anchor
    return anchor + draw(st.floats(0.0, 3.0)) * d


@pytest.mark.parametrize("eq", ["bessel", "legendre"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_segment_clear_matches_scalar_calls(eq, data):
    ode = get_equation(eq)
    obs = Obstacles(ode.exclusions(), ode.cut_rays)
    pairs = data.draw(st.lists(st.tuples(snapped_points(obs),
                                         snapped_points(obs)),
                               min_size=1, max_size=12))
    a, b = np.array(pairs, dtype=complex).T
    clear = obs.segment_clear(a, b)
    assert clear.dtype == bool and clear.shape == a.shape
    assert clear.tolist() == [obs.segment_clear(complex(p), complex(q))
                              for p, q in pairs]
