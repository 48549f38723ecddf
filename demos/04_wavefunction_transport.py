"""Transporting the linear-problem wavefunction along a contour.

The pair (eta^2, chi) defines a traceless su(2) potential U; solutions
Psi of dPsi = U Psi are built from solutions of the original scalar ODE.
This demo transports an initial state along a planned path around the
Laguerre singularity at the origin and checks the residuals of the
linear problem at points off the path.
"""

import numpy as np

from wsurf import (get_equation, integrate_wavefunction, lp_residual,
                   make_data, plan_path, potential_matrix)

ode = get_equation("laguerre", {"alpha": 1})
data = make_data(ode, c1=1, c2=0, lam=1)

print("potential matrix at z = 2:")
print(np.array_str(potential_matrix(data, 2.0), precision=6))

# w = 1 - z solves the alpha = 1 Laguerre equation, so transporting the
# state (psi1, psi1') = (0, -1) from z = 1 must reproduce it exactly
path = plan_path(1 + 0j, -1 + 1j, ode.exclusions(), ode.cut_rays)
print(f"\nplanned path waypoints: {path.waypoints}")

wf = integrate_wavefunction(data, (0.0, -1.0), path)
print("\ntransported state vs the exact solution psi1 = 1 - z:")
for z in (-1 + 1j, 0.5 + 0.5j, 1.5 + 0.2j):
    got = wf.state_at(z)[0]
    print(f"  psi1({z}) = {got:.10f}   exact {1 - z:.10f}   "
          f"error {abs(got - (1 - z)):.2e}")

print("\nlinear-problem residuals ||dPsi - U Psi|| off the path:")
# one array call: the circles of all points are one batched transport
zs = np.array([0.8 + 0.9j, 1.4 + 0.6j, -0.5 + 1.2j])
res, dbar = lp_residual(data, wf, zs)
for z, r, d in zip(zs, res, dbar):
    print(f"  z = {z}: residual {r:.2e}, dbar {d:.2e}")
