"""Simulator of the optimal universal 1-to-2 qubit cloning machine.

Two independent tiers realize the same machine: an abstract qubit gate
network and a single-photon linear-optics train (polarization plus beam
paths), cross-checked against a closed-form oracle. A tomography stack
reconstructs the replicas from simulated photon counts, and an error model
compares waveplate-jitter perturbation sweeps against the analytic bound.
"""

from .angles import PrepAngles, SolverError, prep_circuit, solve_prep_angles
from .gates import CNOT, CSWAP, SWAP, Circuit, Rotation, apply_circuit, circuit_unitary, gate_unitary
from .hilbert import (
    AUX,
    DensityMatrix,
    LabelError,
    PureState,
    fidelity,
    partial_trace,
    stokes_compose,
    stokes_decompose,
)
from .network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_FIDELITY,
    TRIPLICATOR_PREP_TARGET,
    CloneResult,
    build_cloning_circuit,
    build_cloning_network,
    build_measurement_circuit,
    clone,
    cloner_prep_angles,
    optimal_fidelity,
    triplicate,
    triplicator_prep_angles,
)
from .optics import (
    AJWP,
    BS,
    HWP,
    PBS,
    LossyTrainError,
    OpticalTrain,
    PhaseShift,
    build_cloner_train,
    element_matrix,
    modes_to_qubits,
    optical_measurement_state,
    verify_equivalence,
)
from .tomography import (
    BASES,
    CountsRecord,
    FidelityReport,
    ReconstructionError,
    exact_report,
    fidelity_report,
    montecarlo_report,
    reconstruct_replica,
    signal_probabilities,
    simulate_counts,
)
from .errormodel import (
    fidelity_error_bound,
    perturbation_sweep,
)

__all__ = [
    # angles
    "PrepAngles",
    "SolverError",
    "prep_circuit",
    "solve_prep_angles",
    # gates
    "CNOT",
    "CSWAP",
    "SWAP",
    "Circuit",
    "Rotation",
    "apply_circuit",
    "circuit_unitary",
    "gate_unitary",
    # hilbert
    "AUX",
    "DensityMatrix",
    "LabelError",
    "PureState",
    "fidelity",
    "partial_trace",
    "stokes_compose",
    "stokes_decompose",
    # network
    "CLONER_PREP_TARGET",
    "TRIPLICATOR_FIDELITY",
    "TRIPLICATOR_PREP_TARGET",
    "CloneResult",
    "build_cloning_circuit",
    "build_cloning_network",
    "build_measurement_circuit",
    "clone",
    "cloner_prep_angles",
    "optimal_fidelity",
    "triplicate",
    "triplicator_prep_angles",
    # optics
    "AJWP",
    "BS",
    "HWP",
    "PBS",
    "LossyTrainError",
    "OpticalTrain",
    "PhaseShift",
    "build_cloner_train",
    "element_matrix",
    "modes_to_qubits",
    "optical_measurement_state",
    "verify_equivalence",
    # tomography
    "BASES",
    "CountsRecord",
    "FidelityReport",
    "ReconstructionError",
    "exact_report",
    "fidelity_report",
    "montecarlo_report",
    "reconstruct_replica",
    "signal_probabilities",
    "simulate_counts",
    # errormodel
    "fidelity_error_bound",
    "perturbation_sweep",
]

__version__ = "0.1.0"
