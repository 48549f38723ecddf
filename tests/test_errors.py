"""errors.isolate_failures: one failing item of an array call costs a few
calls, and leaves the other items' values as they are."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from wsurf import weierstrass
from wsurf.catalog import get_equation
from wsurf.contour import gk15_segments
from wsurf.errors import SingularPoint, isolate_failures


def doubling(bad, calls):
    """2 x items as (n, 1) rows; raises on any item in bad."""
    def fn(items):
        calls.append(len(items))
        hit = np.isin(items, bad)
        if hit.any():
            raise SingularPoint(int(items[hit][0]))
        return 2.0 * items[:, None]
    return fn


class TestIsolateFailures:
    def test_one_bad_item_among_1000(self):
        calls = []
        values, failed = isolate_failures(doubling([617], calls),
                                          np.arange(1000))
        # the whole call, then two per halving down to one item: the
        # slice with 617 is 1000, 500, 250, 125, 63, 32, 16, 8, 4, 2, 1
        assert len(calls) == 1 + 2 * 10
        assert list(failed) == [617]
        assert isinstance(failed[617], SingularPoint)
        assert np.isnan(values[617]).all()
        keep = np.arange(1000) != 617
        assert np.array_equal(values[keep, 0], 2.0 * np.arange(1000)[keep])

    @pytest.mark.parametrize("bad", [[], [0], [999], [3, 4, 5], [0, 999],
                                     list(range(1000))])
    def test_failures_are_the_bad_items(self, bad):
        calls = []
        values, failed = isolate_failures(doubling(bad, calls),
                                          np.arange(1000))
        assert sorted(failed) == bad
        want = 2.0 * np.arange(1000)
        want[bad] = np.nan
        assert np.array_equal(values[:, 0], want, equal_nan=True)
        # k failing items cost at most 1 + 2 k log2(n) calls (and at most
        # a call per node of the halving tree)
        assert len(calls) <= min(1 + 2 * 10 * len(bad), 2 * 1000)

    def test_tuples_and_all_failing(self):
        def fn(items):
            if len(items) and items.max() > 2:
                raise SingularPoint(3)
            return items[:, None] * 1.0, items[:, None, None] * 1j
        (real, imag), failed = isolate_failures(fn, np.arange(5))
        assert sorted(failed) == [3, 4]
        assert real.shape == (5, 1) and imag.shape == (5, 1, 1)
        assert np.array_equal(real[:3, 0], [0.0, 1.0, 2.0])
        assert np.isnan(real[3:]).all() and np.isnan(imag[3:]).all()
        # no item comes back: the rows are shaped like fn's value on none
        (real, imag), failed = isolate_failures(fn, np.arange(3, 6))
        assert sorted(failed) == [0, 1, 2]
        assert real.shape == (3, 1) and np.isnan(real).all()

    def test_success_is_fn_value_itself(self):
        rows = np.arange(3.0)[:, None]
        values, failed = isolate_failures(lambda items: rows, np.arange(3))
        assert values is rows and failed == {}

    def test_no_reference_cycle(self):
        # a cycle would hold the items and the values until the cyclic
        # collector runs: many MB over a grid's GK15 chunks
        gc.disable()
        try:
            items = np.arange(10)
            alive = weakref.ref(items)
            isolate_failures(doubling([], []), items)
            del items
            assert alive() is None
        finally:
            gc.enable()

    def test_no_items(self):
        values, failed = isolate_failures(doubling([], []), np.arange(0))
        assert values.shape == (0, 1) and failed == {}


class TestBisectedValues:
    """With a batch-independent integrand, the values that the bisection
    keeps are those of each item on its own."""

    def test_gk15_segments(self):
        def f(z):
            hit = np.abs(z - (2.5 + 2j)) < 0.1
            if hit.any():
                raise SingularPoint(complex(z[hit][0]))
            return np.stack([np.exp(z) / z, z ** 2], axis=-1)

        t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        a = 1.5 + 2j + np.exp(1j * t)
        b = a + 0.3 * np.exp(2j * t)
        values, failed = gk15_segments(f, a, b, 1e-10)
        assert failed and len(failed) < len(a)
        for k in range(len(a)):
            alone, fail = gk15_segments(f, a[k:k + 1], b[k:k + 1], 1e-10)
            assert list(fail) == ([0] if k in failed else [])
            if k not in failed:
                assert np.array_equal(values[k], alone[0])

    def test_edge_moments(self):
        ode = get_equation("hermite")

        class Spotted(type(ode)):
            def ratios(self, z):
                if np.any(np.abs(np.asarray(z) - 0.75) < 0.05):
                    raise SingularPoint(0.75)
                return super().ratios(z)

        spotted = Spotted(**{f.name: getattr(ode, f.name)
                             for f in dataclasses.fields(ode)})
        a = np.linspace(-1, 1, 33) + 0.1j * np.cos(np.arange(33))
        b = a + 0.5
        values, failed = weierstrass.edge_moments(spotted, 1.0, a, b, 1e-10)
        assert failed and len(failed) < len(a)
        for k in range(len(a)):
            alone, fail = weierstrass.edge_moments(
                spotted, 1.0, a[k:k + 1], b[k:k + 1], 1e-10)
            if k in failed:
                assert list(fail) == [0]
                assert np.isnan(values[k]).all()
            else:
                assert fail == {}
                assert np.array_equal(values[k], alone[0])
