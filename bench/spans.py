"""Spans and counters at wsurf's module boundaries, installed from outside.

``Tracer.install()`` replaces the public functions listed in ``SPANS`` in
every ``wsurf`` namespace that imported them, plus a few counters without
spans on hot helpers; ``Tracer.uninstall()`` puts every original back.
Nothing in the package changes, and nothing is wrapped while tracing is
off, so untraced runs pay no cost.

A span's self time is its duration minus the durations of its direct
child spans (the process is single-threaded, so children never overlap).
Nested spans of one name, such as contour_quad -> antiderivative ->
contour_quad on the numeric (eta^2, chi) route, count every call and every
self time once; their inclusive time is taken from the outermost span only.
Spans are aggregated as they close instead of being kept as a list: a
200x200 sweep opens several hundred thousand of them.
"""

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (home module, attribute, span name)
SPANS = (
    ("wsurf.pathplan", "plan_path", "pathplan.plan_path"),
    ("wsurf.weierstrass", "make_data", "weierstrass.make_data"),
    ("wsurf.weierstrass", "verify_weierstrass",
     "weierstrass.verify_weierstrass"),
    ("wsurf.contour", "holo_derivative", "contour.holo_derivative"),
    ("wsurf.immersion", "geometry_report", "immersion.geometry_report"),
    ("wsurf.immersion", "ew_integrals", "immersion.ew_integrals"),
    ("wsurf.linearproblem", "integrate_wavefunction",
     "linearproblem.integrate_wavefunction"),
    ("wsurf.linearproblem", "lp_residual", "linearproblem.lp_residual"),
    ("wsurf.mesh", "build_mesh", "mesh.build_mesh"),
    ("wsurf.mesh", "mesh_from_samples", "mesh.mesh_from_samples"),
    ("wsurf.catalog", "get_equation", "catalog.get_equation"),
    ("wsurf.catalog", "load_user_ode", "catalog.load_user_ode"),
    ("wsurf.catalog", "coefficient_ratios", "catalog.coefficient_ratios"),
    ("wsurf.cli", "run_pipeline", "cli.run_pipeline"),
)

ANTIDERIVATIVE = "weierstrass.antiderivative"
CONTOUR_QUAD = "contour.contour_quad"
PLAN_PATH = "pathplan.plan_path"

# Geometry segment tests are counted per calling module, without spans.
SEGMENT_TEST_CALLERS = ("pathplan", "contour", "weierstrass")
SEGMENT_TESTS = ("segment_hits_disc", "segment_crosses_ray")


def _wsurf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wsurf" or name.startswith("wsurf."))]


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.with_child = Counter()   # (span, child span) -> spans having it
        self._stack = []
        self._depth = Counter()
        self._patches = []            # (namespace, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        """fn wrapped in a span called name."""
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0, None]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if not depth[name]:
                    self.incl_s[name] += duration
                if frame[2]:
                    for child in frame[2]:
                        self.with_child[(name, child)] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    if parent[2] is None:
                        parent[2] = {name}
                    else:
                        parent[2].add(name)

        traced.__wrapped__ = fn
        return traced

    def counter(self, key, fn):
        """fn wrapped in a call counter."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _integrand(self, f):
        """The integrand of one contour_quad, counting its evaluations.

        GK15 evaluates a panel's 15 nodes as one array call; contour's
        scalar fallback repeats a failed array call node by node.
        """
        counts = self.counts

        def integrand(z):
            if np.ndim(z) == 0:
                counts["contour.scalar_evals"] += 1
                return f(z)
            size = np.size(z)
            if size == 15:
                counts["contour.gk_panels"] += 1
            out = f(z)
            if np.shape(out) == np.shape(z):
                counts["contour.vector_evals"] += 1
                counts["contour.vector_points"] += size
            return out

        return integrand

    def _contour_quad(self, fn):
        traced = self.span(CONTOUR_QUAD, fn)
        wrap = self._integrand

        def contour_quad(f, *args, **kwargs):
            return traced(wrap(f), *args, **kwargs)

        contour_quad.__wrapped__ = fn
        return contour_quad

    def _export_mesh(self, fn):
        per_format = {}
        counts = self.counts

        def export_mesh(mesh, fmt, *args, **kwargs):
            traced = per_format.get(fmt)
            if traced is None:
                traced = per_format[fmt] = self.span(
                    f"mesh.export_mesh.{fmt}", fn)
            written = traced(mesh, fmt, *args, **kwargs)
            counts[f"mesh.export_mesh.{fmt}.bytes"] += written
            return written

        export_mesh.__wrapped__ = fn
        return export_mesh

    # -- installation -----------------------------------------------------

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def _patch_everywhere(self, home, attr, make):
        """Replace home.attr in every wsurf namespace that imported it."""
        original = getattr(sys.modules[home], attr)
        replacement = make(original)
        for module in _wsurf_modules():
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import wsurf.weierstrass
        for home, attr, name in SPANS:
            self._patch_everywhere(
                home, attr, lambda fn, name=name: self.span(name, fn))
        self._patch_everywhere("wsurf.contour", "contour_quad",
                               self._contour_quad)
        self._patch_everywhere("wsurf.mesh", "export_mesh", self._export_mesh)
        cached = wsurf.weierstrass.CachedAntiderivative
        self._patch(cached, "__call__",
                    self.span(ANTIDERIVATIVE, cached.__call__))
        for caller in SEGMENT_TEST_CALLERS:
            module = sys.modules[f"wsurf.{caller}"]
            for attr in SEGMENT_TESTS:
                self._patch(module, attr, self.counter(
                    f"{caller}.segment_tests", getattr(module, attr)))
        lp = sys.modules["wsurf.linearproblem"]
        self._patch(lp, "solve_ivp",
                    self.counter("linearproblem.ivp_solves", lp.solve_ivp))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def patched(self):
        """(namespace, attribute, original) for every replaced name."""
        return list(self._patches)

    # -- readings -----------------------------------------------------------

    def snapshot(self):
        """The counts that must repeat exactly for identical inputs."""
        return {
            "plan_path": self.calls[PLAN_PATH],
            "gk_panels": self.counts["contour.gk_panels"],
            "geometry_report": self.calls["immersion.geometry_report"],
            "antiderivative": self.calls[ANTIDERIVATIVE],
            "ivp_solves": self.counts["linearproblem.ivp_solves"],
        }

    def layer_metrics(self):
        """Per-layer metrics of the traced pass, by name: (value, unit)."""
        calls, self_s, incl, counts = (self.calls, self.self_s, self.incl_s,
                                       self.counts)

        def per_call(name):
            return incl[name] / calls[name] if calls[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        scalar = counts["contour.scalar_evals"]
        vector = counts["contour.vector_evals"]
        m = {}
        for name in (PLAN_PATH, "immersion.geometry_report"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
            m[f"{name}.s_per_call"] = (per_call(name), "s")
        m["pathplan.segment_tests"] = (counts["pathplan.segment_tests"],
                                       "count")
        m[f"{ANTIDERIVATIVE}.calls"] = (calls[ANTIDERIVATIVE], "count")
        m[f"{ANTIDERIVATIVE}.self_s"] = (self_s[ANTIDERIVATIVE], "s")
        m[f"{ANTIDERIVATIVE}.planned_frac"] = (
            ratio(self.with_child[(ANTIDERIVATIVE, PLAN_PATH)],
                  calls[ANTIDERIVATIVE]), "frac")
        m["weierstrass.segment_tests"] = (
            counts["weierstrass.segment_tests"], "count")
        m["weierstrass.make_data.s"] = (incl["weierstrass.make_data"], "s")
        m["weierstrass.verify_weierstrass.s"] = (
            incl["weierstrass.verify_weierstrass"], "s")
        m[f"{CONTOUR_QUAD}.calls"] = (calls[CONTOUR_QUAD], "count")
        m[f"{CONTOUR_QUAD}.self_s"] = (self_s[CONTOUR_QUAD], "s")
        m["contour.gk_panels"] = (counts["contour.gk_panels"], "count")
        m["contour.panels_per_quad"] = (
            ratio(counts["contour.gk_panels"], calls[CONTOUR_QUAD]), "count")
        m["contour.integrand_points"] = (
            counts["contour.vector_points"] + scalar, "count")
        m["contour.vector_eval_frac"] = (ratio(vector, vector + scalar),
                                         "frac")
        m["contour.segment_tests"] = (counts["contour.segment_tests"],
                                      "count")
        m["contour.holo_derivative.calls"] = (
            calls["contour.holo_derivative"], "count")
        m["contour.holo_derivative.self_s"] = (
            self_s["contour.holo_derivative"], "s")
        m["immersion.ew_integrals.calls"] = (calls["immersion.ew_integrals"],
                                             "count")
        m["linearproblem.integrate_wavefunction.s"] = (
            incl["linearproblem.integrate_wavefunction"], "s")
        m["linearproblem.lp_residual.calls"] = (
            calls["linearproblem.lp_residual"], "count")
        m["linearproblem.lp_residual.self_s"] = (
            self_s["linearproblem.lp_residual"], "s")
        m["linearproblem.ivp_solves"] = (counts["linearproblem.ivp_solves"],
                                         "count")
        m["mesh.build_mesh.self_s"] = (self_s["mesh.build_mesh"], "s")
        m["mesh.mesh_from_samples.s"] = (incl["mesh.mesh_from_samples"], "s")
        for fmt in ("obj", "csv"):
            m[f"mesh.export_mesh.{fmt}.s"] = (incl[f"mesh.export_mesh.{fmt}"],
                                              "s")
            m[f"mesh.export_mesh.{fmt}.bytes"] = (
                counts[f"mesh.export_mesh.{fmt}.bytes"], "bytes")
        m["catalog.get_equation.calls"] = (calls["catalog.get_equation"],
                                           "count")
        m["catalog.load_user_ode.s"] = (incl["catalog.load_user_ode"], "s")
        m["catalog.coefficient_ratios.calls"] = (
            calls["catalog.coefficient_ratios"], "count")
        m["cli.run_pipeline.self_s"] = (self_s["cli.run_pipeline"], "s")
        return m
