# The minimal action level and the charge obey frequency power laws, and the
# level's restriction to the scaling curve has closed-form derivatives; all
# are checked against independent solves.

from dnls3.grid import Grid
from dnls3.ground_state import SolverConfig, h_curve, mu_scaling_check
from dnls3.params import PhysParams, WaveParams

phys = PhysParams(1.0, 1.0, 1.0)
grid = Grid(512, 40.0)
solver = SolverConfig(restarts=1)

print("frequency power laws  mu(omega, sqrt(omega) c0) = omega^(2 - d/2) mu(1, c0)")
print("                      Q(omega, sqrt(omega) c0)  = omega^(1 - d/2) Q(1, c0)")
print(f"{'omega':>7s} {'mu (solved)':>16s} {'mu (power law)':>16s} {'mu rel error':>13s} {'Q rel error':>12s}")
for p in mu_scaling_check(grid, phys, (0.0,), [0.5, 1.0, 2.0, 4.0], solver):
    print(f"{p.omega:7.2f} {p.mu:16.10f} {p.mu_predicted:16.10f} {p.rel_error:13.2e} {p.q_scaling_error:12.2e}")

print()
print("scaling-curve derivatives at tau = 0 (five-point stencil vs closed form)")
rep = h_curve(grid, phys, WaveParams(1.0, (0.0,)), config=solver)
print(f"  h(0)   solved curve {rep.h0:16.10f}")
print(f"  h'(0)  stencil {rep.fd_h1:+14.8f}   closed {rep.closed_h1:+14.8f}   rel {rep.rel_h1:.2e}")
print(f"  h''(0) stencil {rep.fd_h2:+14.8f}   closed {rep.closed_h2:+14.8f}   rel {rep.rel_h2:.2e}")
