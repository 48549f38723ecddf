"""A first minimal surface.

Integrates the three Weierstrass integrands of the Laguerre pair over a
polar grid and writes the resulting immersed surface to OBJ.  The same
point is also shown in all three representations: the Euclidean triple
F, the su(2) matrix F~, and the Sym-Tafel matrix built from chi alone.
"""

import numpy as np

from wsurf import (build_mesh, export_mesh, get_equation, immersion_at,
                   make_data, pauli_decompose, sym_tafel)

ode = get_equation("laguerre", {"alpha": 1})
data = make_data(ode, c1=1, c2=0, lam=1, base_point=1 + 1j)

xi = 2 + 1j
F, Ftilde = immersion_at(data, 1 + 1j, xi)
print(f"surface point at xi = {xi}")
print(f"  F  = {F}")
print(f"  F~ =\n{np.array_str(Ftilde, precision=6)}")
print(f"  Pauli coefficients of F~: {pauli_decompose(Ftilde)}  (equal to F)")
chi = complex(data.pair(xi)[1])
print(f"  Sym-Tafel matrix:\n{np.array_str(sym_tafel(chi), precision=6)}")

print()
# the pair's equation supplies the grid: its default domain, whose base
# point is the 1 + 1j the pair is anchored at
mesh = build_mesh(data, with_residuals=False)
written = export_mesh(mesh, "obj", "laguerre_surface.obj")
print(f"wrote laguerre_surface.obj: {mesh.vertex_count()} vertices, "
      f"{len(mesh.faces)} quads, {written} bytes")
print("open it in any OBJ viewer to see the funnel-shaped surface")
