"""Dissipative kernels for open quantum systems in the energy eigenbasis.

Builds the second-order kernel of a reduced density matrix five ways
(frequency-resolved, two Redfield resonance conventions, an
energy-conserving selection-rule form, and the jump-operator form),
propagates Markovian and time-nonlocal master equations, certifies
complete positivity on the generator itself (its Choi matrix, with a
short-time state witness when that fails), and checks everything
against independent oracles: closed-form qubit results, exact
finite-bath unitary dynamics, and direct double-commutator quadrature.

The headline algebraic fact, exercised to float rounding in the test
suite: the energy-conserving kernel and the jump-operator kernel are
the same object, with no rotating-wave averaging anywhere.
"""

from .core import (
    InputError,
    InvariantError,
    EnergySpectrum,
    CouplingChannelSet,
    DensityMatrix,
    Superoperator,
    JumpOperatorSet,
    build_spectrum,
    hermitian_channel,
    ladder_channels,
    bohr_frequencies,
    decompose_jump_operators,
)
from .bath import (
    BathSpectrum,
    TimeCorrelation,
    flat_spectrum,
    thermal_ohmic_spectrum,
    lorentzian_spectrum,
    gaussian_spectrum,
    custom_spectrum,
    tabulated_spectrum,
    time_correlation,
    kms_residual,
)
from .kernels import (
    VARIANT_TAGS,
    born_kernel_frequency,
    redfield_kernel,
    energy_conserving_kernel,
    lindblad_kernel,
    build_kernel,
    kernel_difference,
    trace_condition_residual,
)
from .dynamics import (
    Trajectory,
    build_liouvillian,
    evolve_markov,
    evolve_nonlocal,
    steady_state,
    block_structure_report,
    trace_distance,
)
from .diagnostics import (
    MapCheck,
    choi_matrix,
    map_check,
    flip_gain_sign,
    equivalence_report,
)
from .oracle import (
    QubitClosedForms,
    FiniteBathModel,
    qubit_analytic,
    gauss_legendre_modes,
    exact_reduced_evolution,
    eqm_born_kernel,
)

__version__ = "0.1.0"
