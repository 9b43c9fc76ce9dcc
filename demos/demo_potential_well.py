# The potential well below the minimal action level has two equivalent
# descriptions (sign of the Nehari value vs position of the coupling term),
# and the quadratic part of the action is coercive with explicit constants.

import numpy as np

from dnls3.functionals import WellMembership, coercivity_certificate, evaluate
from dnls3.grid import Grid, norm_h1
from dnls3.ground_state import SolverConfig, reports_below_level, solve_ground_state
from dnls3.params import PhysParams, WaveParams

phys = PhysParams(1.0, 1.0, 1.0)
wave = WaveParams(1.0, (0.5,))
grid = Grid(256, 40.0)

res = solve_ground_state(grid, phys, wave, SolverConfig(restarts=1))
print(f"level mu = {res.mu:.8f}")

cert = coercivity_certificate(phys, wave)
print()
print("coercivity certificate:")
print(f"  A = {np.round(cert.A, 4)}")
print(f"  gradient coefficients {np.round(cert.grad_coeffs, 4)}")
print(f"  mass coefficients     {np.round(cert.mass_coeffs, 4)}")
print(f"  min coefficient       {cert.min_coeff:.4f}  (bounds Lqc / ||U||_H1^2 from below)")

rng = np.random.default_rng(0)
worst = np.inf
for _ in range(200):
    u = rng.standard_normal((3, 1, 256)) + 1j * rng.standard_normal((3, 1, 256))
    from dnls3.grid import State

    state = State(grid, u)
    rep = evaluate(state, phys, wave)
    worst = min(worst, rep.Lqc / norm_h1(state) ** 2)
print(f"  observed min Lqc/||U||^2 over 200 random states: {worst:.4f}")

print()
print("well membership on 300 random states below the level:")
# one batch report of the 300 samples; the well rule applies to each row
reports = reports_below_level(grid, phys, wave, res.mu, rng, 300)
m = WellMembership.from_report(reports, res.mu)
print(f"  {np.count_nonzero(m.aplus)} inside the well (K > 0), {np.count_nonzero(m.aminus)} outside (K < 0)")
print(f"  disagreements between the two descriptions: {np.count_nonzero(~m.agree)}")
