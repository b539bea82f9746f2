"""Measure the transient slip between the memory propagator and Markov.

A gaussian bath of width sigma forgets on a 1/sigma timescale.  During
that window the memory propagator has not yet accumulated the full
kernel, so it lags the Markov trajectory by an amount proportional to
1/sigma; afterwards the two run in parallel.  The table shows the peak
trace distance shrinking linearly as the bath broadens, which is the
operational meaning of "the Markov limit".
"""

import numpy as np

from qmekit.core import build_spectrum, hermitian_channel
from qmekit.bath import gaussian_spectrum, time_correlation
from qmekit.kernels import build_kernel
from qmekit.dynamics import (build_liouvillian, evolve_markov, evolve_nonlocal,
                             trace_distance)

rate = 0.1
spectrum = build_spectrum([0.0, 1.0])
coupling = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
rho0 = np.array([[0, 0], [0, 1]], dtype=complex)

h = 1e-3
t = np.arange(0.0, 20.0 + h / 2, h)

print(f"{'sigma':>6}  {'peak distance':>13}  {'sigma * peak':>12}")
for sigma in (25.0, 50.0, 100.0):
    bath = gaussian_spectrum(rate, sigma)
    tau_mem = 8.0 / sigma
    tau = np.arange(0.0, tau_mem + 0.125 / sigma, 0.25 / sigma)
    corr = time_correlation(bath, tau, tau_memory=tau_mem)
    nl = evolve_nonlocal(spectrum, coupling, corr, rho0, t)

    kernel = build_kernel(spectrum, coupling, bath, "redfield-in")
    mk = evolve_markov(build_liouvillian(spectrum, kernel), rho0, t)

    peak = float(np.max(trace_distance(nl.states, mk.states)))
    print(f"{sigma:6.0f}  {peak:13.3e}  {sigma * peak:12.4f}")

print("\nconstant sigma*peak means the slip scales as 1/sigma.")
