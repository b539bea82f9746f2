"""Check the second-order kernel against an exactly solvable bath.

Sixty oscillator modes discretize a linear spectral density.  The
rotating coupling conserves excitation number, so a qubit starting
excited over the vacuum evolves inside a 62-dimensional sector and the
reduced state comes out exact.  Halving the coupling should shrink the
gap to the Markov propagator fourfold if that gap is really the
next-order term; the ratio lands in [3, 5] when it does.
"""

import time
import numpy as np

from qmekit.core import build_spectrum, ladder_channels
from qmekit.bath import custom_spectrum
from qmekit.kernels import build_kernel
from qmekit.dynamics import build_liouvillian, evolve_markov, trace_distance
from qmekit.oracle import FiniteBathModel, exact_reduced_evolution, gauss_legendre_modes

eta0, band, n_modes, t_star = 2e-5, 5.0, 60, 30.0

spectrum = build_spectrum([0.0, 1.0])
couplings = ladder_channels(np.array([[0, 1], [0, 0]], dtype=complex))
rho0 = np.array([[0, 0], [0, 1]], dtype=complex)

omegas, gs, _ = gauss_legendre_modes(lambda w: eta0 * w, band, n_modes)
t = np.linspace(0.0, t_star, 121)
print(f"{n_modes} modes on (0, {band}), J(w) = {eta0:g} w, horizon {t_star}")
print(f"{'scale':>6}  {'eta':>9}  {'trace distance':>14}")

t0 = time.perf_counter()
rows = []
for c in (1.0, 0.5, 0.25):
    model = FiniteBathModel(spectrum, couplings, omegas, c * gs, n_max=1,
                            beta=np.inf, coupling_kind="rotating-pair")
    exact = exact_reduced_evolution(model, rho0, t)

    eta = eta0 * c * c

    def gamma_fn(w, eta=eta):
        w = np.asarray(w, dtype=float)
        j = np.where((w > 0) & (w < band), 2 * eta * np.clip(w, 0, None), 0.0)
        out = np.zeros(w.shape + (2, 2))
        out[..., 0, 0] = j
        return out

    bath = custom_spectrum(2, gamma_fn, beta=np.inf, support_scale=band + 1.0)
    kernel = build_kernel(spectrum, couplings, bath, "lindblad")
    markov = evolve_markov(build_liouvillian(spectrum, kernel), rho0, t)
    td = trace_distance(exact.states[-1], markov.states[-1])
    rows.append(td)
    print(f"{c:6.2f}  {eta:9.2e}  {td:14.6e}")

print(f"\ncontraction ratios: {rows[0] / rows[1]:.3f}, {rows[1] / rows[2]:.3f} "
      f"(expected band 3..5)")
print(f"elapsed {time.perf_counter() - t0:.2f} s")
