"""Differential-geometric verification of an immersed surface.

Every surface the pipeline produces should be conformally immersed and
minimal, with a holomorphic Hopf differential that matches its second
fundamental form, and a conformal factor satisfying the Liouville
equation.  The properties are checked on a small Cauchy circle around
each point, from quadrature legs of the surface itself, so mistakes in
the immersion integrals cannot hide.
"""

from wsurf import geometry_report, get_equation, make_data

data = make_data(get_equation("laguerre", {"alpha": 1}), lam=1)

print(f"{'z':>12s} {'e^u':>10s} {'|Q|':>8s} "
      f"{'conf':>9s} {'metric':>9s} {'|H|':>9s} {'Q-FzzN':>9s} "
      f"{'dbar Q':>9s} {'liou':>9s}")
for z in (2 + 1j, 1 + 2j, -1 + 1j, 0.3 + 0.3j, 0.1j):
    rep = geometry_report(data, z)
    print(f"{z!s:>12s} {rep.conformal_factor:>10.3e} {abs(rep.hopf):>8.3f} "
          f"{rep.conformality:>9.2e} {rep.metric:>9.2e} "
          f"{rep.mean_curvature:>9.2e} {rep.hopf_residual:>9.2e} "
          f"{rep.hopf_holomorphy:>9.2e} {rep.liouville:>9.2e}")

print()
print("conf   -- conformality defect |(dF, dF)|, zero for conformal maps")
print("metric -- |(dF, dbar F) - e^u / 2|, the induced-metric identity")
print("|H|    -- mean curvature magnitude, zero for minimal surfaces")
print("Q-FzzN -- |F_zz . N - Q|, the Hopf coefficient against the surface")
print("dbar Q -- antiholomorphy of the Hopf coefficient")
print("liou   -- Liouville equation residual for the conformal factor")
