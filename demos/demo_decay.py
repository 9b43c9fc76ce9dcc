# Ground-state tails decay exponentially; the fitted rates are compared to
# the guaranteed bound p_max/2 with
# p_max = sqrt(4 omega sigma0) (1 - sqrt(sigma/(4 omega)) |c|),
# and to the exact rates of the linear tail equation,
# r_j = sqrt(4 m_j kappa_j omega - |c|^2) / (2 kappa_j).

import numpy as np

from dnls3.evolution import decay_rate_fit
from dnls3.grid import Grid
from dnls3.ground_state import SolverConfig, solve_ground_state
from dnls3.params import PhysParams, WaveParams

phys = PhysParams(1.0, 1.0, 1.0)
grid = Grid(512, 40.0)
# the fit needs the residual converged below the tail amplitudes
solver = SolverConfig(restarts=1, residual_tol=1e-11)

for c in (0.0, 0.5):
    wave = WaveParams(1.0, (c,))
    res = solve_ground_state(grid, phys, wave, solver)
    rep = decay_rate_fit(res.phi, phys, wave)
    print(f"omega=1, c={c}:")
    print(f"  p_max = {rep.p_max:.4f}, guaranteed half-rate = {rep.half_bound:.4f}")
    for j, rate in enumerate(rep.rates):
        print(f"  component {j + 1}: fitted rate {rate:.4f}, exact {rep.exact_rates[j]:.4f}  (fit rms {rep.fit_residuals[j]:.2e})")
    print()

# calibration on a synthetic profile with known rate 2
x = grid.axes[0]
u = np.zeros((3, 1, 512), dtype=complex)
for j in range(3):
    u[j, 0] = np.exp(-2.0 * np.abs(x))
from dnls3.grid import State  # noqa: E402

cal = decay_rate_fit(State(grid, u), phys, WaveParams(1.0, (0.0,)))
print(f"synthetic exp(-2|x|) calibration: fitted rates {np.round(cal.rates, 6)}")
