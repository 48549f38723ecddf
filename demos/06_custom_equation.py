"""Surfaces from a user-defined equation.

Any second-order linear ODE given as p w'' + q w' + r w = 0 can be fed
to the pipeline as a flat text definition; the Weierstrass pair is then
constructed by numerical contour integration.  Here we define a shifted
variant of the Laguerre equation, verify its pair, export a mesh, and
spot-check the surface geometry.
"""

from wsurf import (GridSpec, build_mesh, export_mesh, geometry_report,
                   make_data, parse_user_ode, verify_weierstrass)

DEFINITION = """
id = shifted-laguerre
params = alpha=2
p = z - 0.5
q = 1.5 - z
r = alpha
singularities = 0.5
"""

ode = parse_user_ode(DEFINITION)
data = make_data(ode, c1=1, c2=0, lam=1, base_point=2 + 0j)

points = [2 + 1j, 1.5 - 0.8j, 3 + 0.5j]
report = verify_weierstrass(data, points)
print(f"numeric pair identity residuals: eta {report.eta_residual:.2e}, "
      f"chi {report.chi_residual:.2e}")

grid = GridSpec("polar", ((0.7, 2.0), (0.0, 6.283185307179586)), (30, 30),
                base_point=2 + 0j)
mesh = build_mesh(data, grid, with_residuals=False)
written = export_mesh(mesh, "obj", "custom_surface.obj")
print(f"wrote custom_surface.obj: {mesh.vertex_count()} vertices, "
      f"{len(mesh.faces)} quads, {written} bytes")

print("\ngeometry spot checks (Cauchy circles on the numeric surface):")
for z in (1.5 + 0.5j, -1 + 1j):
    rep = geometry_report(data, z)
    print(f"  z = {z}: |H| = {rep.mean_curvature:.2e}, "
          f"conformality defect = {rep.conformality:.2e}")
