# Compute a 1-D ground state of the three-component derivative NLS system
# and verify the structural identities of the converged profile.

import numpy as np

from dnls3.functionals import evaluate
from dnls3.grid import Grid
from dnls3.ground_state import SolverConfig, solve_ground_state
from dnls3.params import PhysParams, WaveParams

phys = PhysParams(alpha=1.0, beta=1.0, gamma=1.0)
wave = WaveParams(omega=1.0, c=(0.5,))
grid = Grid(512, 40.0)

print("=" * 68)
print(f"Nehari-constrained minimization at omega={wave.omega}, c={wave.c}")
print(f"grid: n={grid.n}, extent={grid.extent}, admissible: {wave.admissible(phys)}")
print("=" * 68)

res = solve_ground_state(grid, phys, wave, SolverConfig(restarts=1))
rep = res.report

print(f"converged in {res.iterations} iterations, residual {res.histories[-1].residual[-1]:.2e}")
print(f"minimal action level  mu = {res.mu:.12f}")
print()
print("functional report:")
for name in ("Q", "L", "N", "E", "S", "K", "Lqc", "G"):
    print(f"  {name:4s} = {getattr(rep, name):+.10f}")
print(f"  P    = {rep.P}")
print()
print("identities of the minimizer:")
print(f"  |K| / max(1, Lqc)            = {rep.nehari_residual():.2e}   (constraint)")
print(f"  dilation (Pohozaev) residual = {rep.pohozaev_residual():.2e}")
print(f"  (4-d) charge/momentum resid  = {rep.fourd_residual(res.mu):.2e}")
print(f"  S - K/3 - Lqc/6 (rel)        = {rep.identity_residuals()['S_from_K_Lqc']:.2e}")
print()
print(f"stability margin G/(2 omega) = {rep.stability_margin():.6f}  (positive favors stability)")
print(f"tail mass in outer 10% of box = {res.tail_mass:.2e}")

# profile amplitudes along the axis
x = grid.axes[0]
amp = np.sqrt(np.sum(np.abs(res.phi.u) ** 2, axis=(0, 1)))
print()
print("profile |U(x)|:")
for xi in (-10, -5, -2, 0, 2, 5, 10):
    i = int(np.argmin(np.abs(x - xi)))
    print(f"  x={xi:+6.1f}   |U| = {amp[i]:.6e}")
