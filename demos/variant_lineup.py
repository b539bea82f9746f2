"""Build all five kernel variants for two systems and tabulate how far
apart they land.

For a two-level system with a (lower, raise) coupling pair and a flat
bath, every variant gives the same matrix, bit for bit: the frequency
argument stops mattering when the spectrum is constant, and the ladder
coupling has no matrix elements that could populate the non-resonant
entries the variants disagree about.  A three-level system with a
hermitian coupling and a structured bath pulls them apart.
"""

import numpy as np

from qmekit.core import build_spectrum, hermitian_channel, ladder_channels
from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum
from qmekit.kernels import VARIANT_TAGS, build_kernel, kernel_difference


def lineup(title, spectrum, couplings, bath, omega):
    kernels = {
        v: build_kernel(spectrum, couplings, bath, v,
                        omega=omega if v == "born" else None)
        for v in VARIANT_TAGS
    }
    print(title)
    width = max(len(v) for v in VARIANT_TAGS)
    header = " " * (width + 2) + "  ".join(v.rjust(width) for v in VARIANT_TAGS)
    print(header)
    for a in VARIANT_TAGS:
        row = [a.ljust(width + 2)]
        for b in VARIANT_TAGS:
            diff = kernel_difference(kernels[a], kernels[b])[0]
            row.append(f"{diff:{width}.2e}")
        print("  ".join(row))
    print()


qubit = build_spectrum([0.0, 1.0])
ladder = ladder_channels(np.array([[0, 1], [0, 0]], dtype=complex))
lineup("qubit, ladder coupling, flat bath (rate 0.3), born at omega=0.7",
       qubit, ladder, flat_spectrum(2, 0.3), omega=0.7)

three = build_spectrum([0.0, 5 / 16, 1.0])
coupling = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))
lineup("three levels, hermitian coupling, thermal bath (beta 1.3), born at 0.7",
       three, coupling, thermal_ohmic_spectrum(0.4, 5.0, 1.3), omega=0.7)

print("The energy-conserving and lindblad columns agree in both tables;")
print("that identity is algebraic and holds for every system and bath.")
