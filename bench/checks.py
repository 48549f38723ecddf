"""Output checks for every benchmark operation.

A surface operation passes when it exits 0, prints and writes the expected
vertex count, writes only finite values, and its sampled vertices lie
within ``TOL`` of an independent reference:

* figure sets and the bessel residual CSV: the figure-caption closed form
  (``wsurf.catalog.get_fixture``), at vertices where the caption's branch
  agrees with the pipeline's cut plane;
* hermite: Gauss-Legendre quadrature of the Weierstrass pair
  (eta^2 = exp(z^2), chi = sqrt(pi) erf(z) at the CLI defaults) along the
  straight segment from the base point, which is legal because hermite has
  no singular points or cuts.

Residual CSVs must also be byte-identical across the passes of a run.  A
verify operation passes when it exits 0 and prints eight finite residuals,
each marked ok.  References are computed before the timed passes.
"""

import hashlib
import math
import random
import re

import numpy as np
from scipy import special as sps

TOL = 1e-7              # acceptance criterion 4's tolerance
SAMPLES = 16            # vertices compared per surface operation
GAUSS_NODES = 160

HERMITE_BASE = 1 + 3j   # the catalog's hermite base point

VERIFY_NAMES = ("weierstrass", "linear_problem", "wavefunction_dbar",
                "conformality", "metric", "mean_curvature",
                "hopf_holomorphy", "liouville")
_VERIFY_LINE = re.compile(
    r"^(\w+): max residual (\S+) \(threshold \S+\) (ok|FAIL)$")
_SURFACE_LINE = re.compile(r": (\d+) vertices, (\d+) faces, (\d+) bytes$")


def grid_points(kind, ranges, resolution):
    """Nodes of a grid, laid out as ``wsurf.catalog.GridSpec.points``."""
    (a0, a1), (b0, b1) = ranges
    A, B = np.meshgrid(np.linspace(a0, a1, resolution[0]),
                       np.linspace(b0, b1, resolution[1]), indexing="ij")
    return A * np.exp(1j * B) if kind == "polar" else A + 1j * B


def _parse_grid(spec):
    """(kind, ranges, resolution) of a kind:a0,a1,b0,b1,n1,n2 flag."""
    kind, _, rest = spec.partition(":")
    a0, a1, b0, b1, n1, n2 = rest.split(",")
    return (kind, ((float(a0), float(a1)), (float(b0), float(b1))),
            (int(n1), int(n2)))


def vertex_points(op):
    """Parameter values of the op's vertices, in export order.

    The mesh keeps, row-major, every node outside the exclusion discs
    except those on a cut ray, which no legal path reaches.
    """
    from wsurf.catalog import SINGULARITY_RADIUS, get_equation
    ode = get_equation(op.equation)
    if op.grid is None:
        grid = ode.default_domain
        pts = grid_points(grid.kind, grid.ranges, grid.resolution)
    else:
        pts = grid_points(*_parse_grid(op.grid))
    pts = pts.ravel()
    keep = np.ones(pts.shape, dtype=bool)
    for c, r in ode.exclusions():
        keep &= np.abs(pts - c) >= max(r, SINGULARITY_RADIUS) * (1 - 1e-12)
    for anchor, d in ode.cut_rays:
        keep &= ~_on_ray(pts, anchor, d)
    return pts[keep]


def _on_ray(z, anchor, direction):
    w = (z - anchor) * np.conj(complex(direction) / abs(complex(direction)))
    return (w.real >= 0) & (np.abs(w.imag) < 1e-9)


def hermite_reference(z, base=HERMITE_BASE):
    """F at z for the CLI's hermite surface, by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    dz = z - base
    t = base + 0.5 * (x + 1) * dz
    eta_sq = np.exp(t * t)
    chi = math.sqrt(math.pi) * sps.erf(t)
    weights = 0.5 * w * dz
    i1 = np.sum(weights * eta_sq)
    i2 = np.sum(weights * chi * chi * eta_sq)
    i3 = np.sum(weights * chi * eta_sq)
    return np.array([0.5 * (i1 - i2).real, -0.5 * (i1 + i2).imag, i3.real])


def _fixture_applies(fixture, ode, probe, z):
    """True where the caption's branch and the pipeline's agree at z.

    Both vanish at the base point and agree at the probe just above it;
    a straight probe-to-z segment that crosses no cut of either and keeps
    out of every disc continues both along the same path.
    """
    from wsurf.geometry import segment_crosses_ray, segment_hits_disc
    if not fixture.domain_contains(z):
        return False
    for c, r in ode.exclusions():
        if segment_hits_disc(probe, z, c, r):
            return False
    for anchor, d in tuple(fixture.cut_rays) + tuple(ode.cut_rays):
        d = complex(d) / abs(complex(d))
        if segment_crosses_ray(probe, z, anchor, d) or _on_ray(z, anchor, d):
            return False
    return True


def reference_samples(op, seed):
    """[(vertex index, z, F_ref)] for SAMPLES seeded vertices of the op."""
    pts = vertex_points(op)
    if op.equation == "hermite":
        candidates = list(range(len(pts)))
        ref = hermite_reference
    else:
        from wsurf.catalog import get_equation, get_fixture, reference_surface
        fixture = get_fixture(op.equation)
        ode = get_equation(op.equation)
        probe = complex(fixture.base_point) + 0.5j
        candidates = [k for k, z in enumerate(pts)
                      if _fixture_applies(fixture, ode, probe, complex(z))]

        def ref(z):
            return reference_surface(fixture, z)
    rng = random.Random(f"{op.name}-{seed}")
    chosen = sorted(rng.sample(candidates, min(SAMPLES, len(candidates))))
    return [(k, complex(pts[k]), ref(complex(pts[k]))) for k in chosen]


def _read_obj(path):
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii").splitlines()
    verts = [ln[2:] for ln in lines if ln.startswith("v ")]
    faces = sum(1 for ln in lines if ln.startswith("f "))
    values = np.array(" ".join(verts).split(), dtype=float).reshape(-1, 3)
    return values, faces


def _read_csv(path):
    with open(path, "rb") as fh:
        payload = fh.read()
    lines = payload.decode("ascii").splitlines()
    header = lines[0].split(",")
    rows = np.array(",".join(lines[1:]).split(","), dtype=float)
    table = rows.reshape(-1, len(header))
    return payload, header, table


class Checker:
    """Checks one workload's outputs; keeps the per-run CSV digests."""

    def __init__(self, seed):
        self.seed = seed
        self.refs = {}
        self.digests = {}

    def prepare(self, op):
        if op.kind in ("obj", "csv") and op.vertices is not None:
            self.refs[op.name] = reference_samples(op, self.seed)

    def check(self, op, code, out):
        """Problems found in the op's result; an empty list means it passed."""
        try:
            return self._check(op, code, out)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check(self, op, code, out):
        if op.kind == "verify":
            return ([] if code == 0 else [f"exit code {code}"]) \
                + _check_verify(out)
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        printed = _SURFACE_LINE.search(out.strip())
        if printed is None:
            return [f"no summary line in output {out.strip()[-200:]!r}"]
        n_printed, f_printed = int(printed.group(1)), int(printed.group(2))
        if op.kind == "obj":
            verts, faces = _read_obj(op.out)
            if faces != f_printed:
                problems.append(f"{faces} faces written, {f_printed} printed")
        else:
            payload, header, table = _read_csv(op.out)
            if not np.all(np.isfinite(table)):
                problems.append("non-finite value in the CSV")
            digest = hashlib.sha256(payload).hexdigest()
            if self.digests.setdefault(op.name, digest) != digest:
                problems.append("CSV differs from the run's first pass")
            verts = table[:, [header.index(c) for c in ("F1", "F2", "F3")]]
        if len(verts) != n_printed:
            problems.append(f"{len(verts)} vertices written, "
                            f"{n_printed} printed")
        if op.vertices is not None and len(verts) != op.vertices:
            problems.append(f"{len(verts)} vertices, expected {op.vertices}")
        if not np.all(np.isfinite(verts)):
            problems.append("non-finite vertex")
        if problems:
            return problems
        problems += check_vertices(verts, self.refs.get(op.name, ()))
        if op.kind == "csv" and op.name in self.refs:
            zs = table[:, header.index("re")] + 1j * table[:, header.index("im")]
            for k, z, _ in self.refs[op.name]:
                if abs(zs[k] - z) > 1e-12 * max(1.0, abs(z)):
                    problems.append(f"row {k} is at {zs[k]}, expected {z}")
                    break
        return problems


def check_vertices(verts, refs):
    """Problems where sampled vertices miss their reference by over TOL."""
    problems = []
    for k, z, want in refs:
        dev = float(np.max(np.abs(verts[k] - want)))
        if not dev <= TOL:
            problems.append(f"vertex {k} at z={z:.6g} off its reference "
                            f"by {dev:.3e}")
    return problems


def _check_verify(out):
    seen = {}
    for line in out.splitlines():
        m = _VERIFY_LINE.match(line.strip())
        if m:
            seen[m.group(1)] = (float(m.group(2)), m.group(3))
    problems = [f"{name}: missing" for name in VERIFY_NAMES
                if name not in seen]
    for name, (value, verdict) in seen.items():
        if not math.isfinite(value) or verdict != "ok":
            problems.append(f"{name}: {value:.3e} {verdict}")
    return problems
