"""Holonomic quantum gates from dynamical invariants.

The package builds drive+Zeeman+Ising pulse Hamiltonians together with their
closed-form dynamical invariants, propagates each segment in closed form in
the frame rotating with its drive (one small eigendecomposition, checked
against a fourth-order Magnus integrator), splits cyclic phases into
geometric and dynamical parts, optimizes pulse parameters toward target
gates under the vanishing dynamical-phase constraint, and characterizes the
results with simulated process tomography and randomized benchmarking.
"""

from .linalg import (
    GATES,
    ValidationError,
    kron,
    named_gate,
    pauli_basis,
    pauli_on,
    pauli_string,
    unitary_fidelity,
)
from .model import (
    LoopSequence,
    PulseParams,
    di_residual,
    hamiltonian,
    hamiltonian_path,
    invariant,
    invariant_path,
)
from .propagation import (
    PhaseRecord,
    eigenframe_propagator,
    loop_params,
    ode_propagator,
    phases,
    sequence_evolution,
    sequence_phases,
    sequence_propagator,
    single_qubit_loop_gate,
    zero_dynamical_phase_amplitude,
)
from .synthesis import (
    SynthesisProblem,
    SynthesisResult,
    correlation_matrix,
    correlation_singular_values,
    entangling_score,
    find_entangling,
    gate_length,
    objective,
    synthesize,
)
from .characterization import (
    CLIFFORD_1Q_ROTATIONS,
    ChannelSequence,
    DepolarizingChannel,
    RBRecord,
    RBRun,
    TransferMatrix,
    UnitaryChannel,
    fit_decay,
    pauli_transfer,
    process_fidelity,
    qpt_setting_count,
    rb_gate_fidelity,
    rb_run,
    simulate_qpt,
)

__version__ = "0.1.0"
