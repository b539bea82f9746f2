"""Relax a qubit into a thermal bath and check against the rate equations.

The jump expansion for a ladder-coupled qubit reduces to two rates, down
gamma(omega0) and up gamma(-omega0).  Everything about the trajectory
follows in closed form, so the propagator has nothing to hide behind.
"""

import numpy as np

from qmekit.core import build_spectrum, ladder_channels
from qmekit.bath import thermal_ohmic_spectrum
from qmekit.kernels import build_kernel
from qmekit.dynamics import build_liouvillian, evolve_markov, steady_state
from qmekit.oracle import qubit_analytic

beta, omega0 = 1.3, 1.0
spectrum = build_spectrum([0.0, omega0])
couplings = ladder_channels(np.array([[0, 1], [0, 0]], dtype=complex))
bath = thermal_ohmic_spectrum(0.2, 5.0, beta, n_channels=2)

gd = bath.gamma(omega0)[0, 0].real
gu = bath.gamma(-omega0)[0, 0].real
forms = qubit_analytic(beta, gu, gd, omega0)
print(f"rates: down {gd:.4f}, up {gu:.4f}  (ratio {gu / gd:.4f} "
      f"vs exp(-beta omega0) {np.exp(-beta * omega0):.4f})")
print(f"T1 {forms.t1:.3f}, T2 {forms.t2:.3f}, steady p_e {forms.p_excited:.4f}")
print()

kernel = build_kernel(spectrum, couplings, bath, "lindblad")
liouv = build_liouvillian(spectrum, kernel)

# start half excited with full coherence, watch both channels decay
rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
t = np.linspace(0.0, 4 * forms.t1, 9)
traj = evolve_markov(liouv, rho0, t)

pop = forms.population_trajectory(0.5)
coh = forms.coherence_trajectory(0.5)
print(f"{'t':>6}  {'p_e':>9}  {'closed form':>11}  {'|rho_eg|':>9}  {'closed form':>11}")
for i, tv in enumerate(t):
    pe = traj.states[i, 1, 1].real
    ce = abs(traj.states[i, 1, 0])
    print(f"{tv:6.2f}  {pe:9.6f}  {pop(tv):11.6f}  {ce:9.6f}  {abs(coh(tv)):11.6f}")

err_p = max(abs(traj.states[i, 1, 1].real - pop(tv))
            for i, tv in enumerate(t))
err_c = max(abs(traj.states[i, 1, 0] - coh(tv))
            for i, tv in enumerate(t))
print(f"\nworst population error {err_p:.2e}, worst coherence error {err_c:.2e}")

rho_ss = steady_state(liouv)["states"][0]["matrix"]     # multiplicity 1 here
print(f"steady ratio p_e/p_g = {rho_ss[1, 1].real / rho_ss[0, 0].real:.10f}, "
      f"Gibbs says {np.exp(-beta * omega0):.10f}")
