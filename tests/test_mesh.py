"""Grid sampling, mesh assembly and export formats."""

import numpy as np
import pytest

from wsurf.catalog import GridSpec, get_equation, get_fixture, reference_surface
from wsurf.errors import EmptyMesh, IoFailure
from wsurf.mesh import (build_mesh, ew_cache, export_mesh, immersion_at,
                        import_csv, sample_grid)
from wsurf.weierstrass import closed_form_data


def unit_square_grid(n=2):
    return GridSpec("cartesian", ((0.0, 1.0), (0.0, 1.0)), (n, n), 0j)


class TestSampling:
    def test_plane_quad(self, plane_data):
        samples = sample_grid(None, data=plane_data, grid=unit_square_grid(),
                              with_residuals=False)
        assert len(samples) == 4
        s = {complex(x.z): x for x in samples}
        assert np.allclose(s[1 + 1j].F, [0.5, -0.5, 0.0], atol=1e-10)
        assert s[0j].u == 0.0 and s[0j].Q == 0.0

    def test_samples_carry_residuals(self, plane_data):
        samples = sample_grid(None, data=plane_data, grid=unit_square_grid(),
                              with_residuals=True)
        for s in samples:
            assert s.residuals["meanCurvature"] <= 1e-8
            assert s.residuals["conformality"] <= 1e-8

    def test_masked_singular_nodes(self):
        # a grid straddling the laguerre singularity drops the origin node
        grid = GridSpec("cartesian", ((-0.5, 0.5), (-0.01, 0.99)), (3, 3),
                        1 + 1j)
        samples = sample_grid("laguerre", grid=grid, with_residuals=False)
        zs = [s.z for s in samples]
        assert all(abs(z) >= 0.0199 for z in zs)

    def test_empty_grid_raises(self):
        grid = GridSpec("cartesian", ((-0.01, 0.01), (-0.01, 0.01)), (2, 2),
                        1 + 0j)
        with pytest.raises(EmptyMesh):
            sample_grid("laguerre", grid=grid, with_residuals=False)

    def test_jacobi_region_enforced(self):
        grid = get_equation("jacobi").default_domain
        small = GridSpec(grid.kind, ((-1.5, 0.5), (0.0, 1.5)), (8, 8),
                         grid.base_point)
        samples = sample_grid("jacobi", grid=small, with_residuals=False)
        assert samples
        for s in samples:
            assert abs(s.z) < 1 and abs(s.z + 1) < 2

    def test_needs_equation_or_data(self):
        with pytest.raises(ValueError):
            sample_grid(None, grid=unit_square_grid())


class TestAnchoredImmersion:
    def test_matches_fixture_regular_anchor(self):
        fx = get_fixture("laguerre")
        ode = get_equation("laguerre", fx.params)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        data.cut_rays = fx.cut_rays
        for z in (2 + 1j, 0.5 + 0.8j, -1 + 1.2j):
            F, _ = immersion_at(data, fx.base_point, z)
            assert np.max(np.abs(F - reference_surface(fx, z))) <= 1e-8

    def test_matches_fixture_singular_anchor(self):
        # the chebyshev base point sits on a singular point; the first
        # leg is integrable and handled by the regularized staging leg
        fx = get_fixture("chebyshev1")
        ode = get_equation("chebyshev1", fx.params)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        cache = ew_cache(data, fx.base_point)
        from wsurf.immersion import combine_euclidean
        for z in (0.5j, 2j, -0.5 + 1j):
            F = combine_euclidean(*cache(z))
            assert np.max(np.abs(F - reference_surface(fx, z))) <= 1e-8


class TestMeshExport:
    def build_plane(self, plane_data, n=3, residuals=False):
        return build_mesh(None, data=plane_data, grid=unit_square_grid(n),
                          with_residuals=residuals)

    def test_quad_topology(self, plane_data):
        mesh = self.build_plane(plane_data, n=3)
        assert mesh.vertex_count() == 9
        assert len(mesh.faces) == 4
        for f in mesh.faces:
            assert len(f) == 4 and all(0 <= i < 9 for i in f)

    def test_obj(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=2)
        out = tmp_path / "plane.obj"
        written = export_mesh(mesh, "obj", str(out))
        text = out.read_text()
        assert written == len(text.encode())
        lines = text.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("f ")) == 1
        assert "nan" not in text

    def test_ply(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=2)
        out = tmp_path / "plane.ply"
        export_mesh(mesh, "ply", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 4" in lines
        assert "element face 1" in lines

    def test_csv_round_trip(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=3, residuals=True)
        out = tmp_path / "plane.csv"
        export_mesh(mesh, "csv", str(out))
        points, vertices, attrs = import_csv(str(out))
        assert np.array_equal(points, mesh.points)
        assert np.array_equal(vertices, mesh.vertices)
        for k in ("u", "absQ", "H_residual"):
            assert np.array_equal(attrs[k], mesh.attributes[k])
        # a second export is byte-identical
        out2 = tmp_path / "plane2.csv"
        export_mesh(mesh, "csv", str(out2))
        assert out.read_bytes() == out2.read_bytes()

    def test_unknown_format(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data)
        with pytest.raises(ValueError):
            export_mesh(mesh, "stl", str(tmp_path / "x.stl"))

    def test_io_failure(self, plane_data):
        mesh = self.build_plane(plane_data)
        with pytest.raises(IoFailure):
            export_mesh(mesh, "obj", "/nonexistent-dir/mesh.obj")
