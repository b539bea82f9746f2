"""Certify complete positivity on three generators.

One is a jump expansion: its Choi matrix, compressed onto the complement
of the maximally entangled vector, is positive semidefinite, which
certifies exp(L t) as CP for every t >= 0.  One has its gain terms
negated, which is the classic way a hand-derived kernel goes wrong.  One
is the incoming-resonance Redfield kernel of a three-level system.  Both
fail the certificate, and for both a pure state is found that L pushes
out of the state cone at once: a witness, checkable by replaying
exp(L t) at a short time.  The last, a qubit whose ladder coupling
sigma_minus + sigma_z / 2 feeds the incoming-resonance kernel, fails the
certificate too, yet no scanned state leaves the cone: the verdict there
is inconclusive, because positive maps that are not completely positive
exist.
"""

import numpy as np
from scipy.linalg import expm

from qmekit.core import build_spectrum, hermitian_channel, ladder_channels
from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum
from qmekit.kernels import build_kernel
from qmekit.dynamics import build_liouvillian
from qmekit.diagnostics import flip_gain_sign, map_check


def show(tag, liouv):
    result = map_check(liouv)
    scale = np.max(np.abs(liouv.data))
    print(f"{tag}: {result.verdict}")
    print(f"  Choi certificate {result.choi_min / scale:.3e} max|L|, "
          f"state scan minimum {result.scan_min / scale:.3e} max|L|")
    if result.witness_ket is not None:
        ket = result.witness_ket
        t = 1e-3 * abs(result.scan_min) / scale ** 2
        rho = (expm(liouv.data * t) @ np.outer(ket, ket.conj()).ravel()).reshape(len(ket), -1)
        low = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]
        print(f"  witness state {np.round(ket, 4)}")
        print(f"  replayed: lowest eigenvalue {low:.3e} at t={t:.3e}")
    print()


qubit = build_spectrum([0.0, 1.0])
ladder = ladder_channels(np.array([[0, 1], [0, 0]], dtype=complex))
qbath = flat_spectrum(2, 0.3)
show("jump expansion", build_liouvillian(qubit, build_kernel(qubit, ladder, qbath, "lindblad")))

show("gain-negated kernel", build_liouvillian(qubit, flip_gain_sign(qubit, ladder, qbath)))

three = build_spectrum([0.0, 5 / 16, 1.0])
coupling = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))
rk = build_kernel(three, coupling, thermal_ohmic_spectrum(0.4, 5.0, 1.3), "redfield-in")
show("incoming-resonance kernel", build_liouvillian(three, rk))

mixed = ladder_channels(np.array([[0.5, 1], [0, -0.5]], dtype=complex))
obath = thermal_ohmic_spectrum(0.4, 5.0, 1.3, n_channels=2)
show("qubit with a longitudinal part, incoming resonance",
     build_liouvillian(qubit, build_kernel(qubit, mixed, obath, "redfield-in")))
