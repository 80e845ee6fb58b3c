"""Object-tier reference implementations, kept for the tests only.

No command runs these. Each builds labeled states and density matrices
step by step (tensor products, a gate-level probe swap, one path at a time),
where the package computes the same thing as array arithmetic, so the
release criteria and the kernel tests use them as independent references;
`measurement_state` is the gate-tier detector input that the tests feed to
`tomography.signal_probabilities`.
`misaligned_cloner_train` is the one faulty bench the tests feed to the
optics equivalence check.
"""

import math

import numpy as np

from uqcm.gates import CSWAP, Circuit, apply_circuit
from uqcm.hilbert import AUX, DensityMatrix, LabelError, PureState, canonical_labels, stokes_compose
from uqcm.network import _clone_outputs, _input_amplitudes, _reference_outputs
from uqcm.optics import BENCH_REGISTER, HWP, OpticalTrain, build_cloner_train
from uqcm.tomography import (
    _SQ2,
    ReconstructionError,
    _aux_cswap,
    _path_stokes,
    reconstruct_replica,
    signal_probabilities,
)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Combined state on the union register; label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"overlapping qubit labels: {sorted(map(str, overlap))}")
    return PureState(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))


def random_pure_state(labels, rng: np.random.Generator) -> PureState:
    """Haar-style random pure state on the given register (for checks and tests)."""
    canon = canonical_labels(labels)
    d = 2 ** len(canon)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(canon, amps / np.linalg.norm(amps))


def input_state(theta: float, delta: float) -> PureState:
    """Input qubit cos(theta)|0> + e^(i delta) sin(theta)|1> on qubit 1.

    Accepts theta in (-pi/2, pi/2] and delta in the full [0, 2 pi) range
    (sweeps typically use the narrower [0, pi) slice).
    """
    return PureState([1], _input_amplitudes(theta, delta))


def reference_clone_output(psi: PureState) -> PureState:
    """Closed-form machine output for a single-qubit input.

    Serves as the oracle for the gate network and the optical train: the
    output is the input amplitudes contracted with the fixed basis images.
    """
    if psi.n_qubits != 1:
        raise ValueError("input must be a single-qubit state")
    return PureState((1, 2, 3), _reference_outputs(psi.amplitudes))


_AUX_CSWAP = Circuit((1, 2, 3, AUX), (CSWAP(AUX, 1, 2),))


def attach_aux_cswap(out3: PureState) -> PureState:
    """Attach the probe qubit and apply the probe-controlled replica swap.

    Maps the three-qubit machine output to
    (|0>_aux |psi_123> + |1>_aux |psi_213>) / sqrt(2).
    """
    if out3.labels != (1, 2, 3):
        raise ValueError(f"expected a state on qubits (1, 2, 3), got {out3.labels!r}")
    probe = PureState([AUX], [_SQ2, _SQ2])
    joint = tensor_product(probe, out3)
    return apply_circuit(_AUX_CSWAP, joint)


def measurement_state(theta: float, delta: float) -> PureState:
    """Gate-tier four-qubit state entering the detectors.

    The machine output comes from the compiled network image
    (`network._clone_outputs`) and the probe-controlled swap is an axis
    exchange (`tomography._aux_cswap`); no replica matrices are formed.
    """
    return PureState(BENCH_REGISTER, _aux_cswap(_clone_outputs(_input_amplitudes(theta, delta))))


def reconstruct_single_qubit(c_h, c_v, c_d, c_r, label=1) -> DensityMatrix:
    """Linear-inversion reconstruction from one path's four settings.

    Accepts integer counts or exact (float) probabilities; the formulas are
    scale-invariant as long as all four share one scale.
    """
    if min(c_h, c_v, c_d, c_r) < 0:
        raise ValueError("counts must be nonnegative")
    if not c_h + c_v > 0:
        raise ReconstructionError("no H/V counts: cannot normalize the inversion")
    return stokes_compose(*_path_stokes(np.array([c_h, c_v, c_d, c_r], dtype=float)), label=label)


def replicas_from_state(meas: PureState) -> tuple:
    """Exact-probability reconstruction of both replicas (the noise-free pipeline)."""
    probs = signal_probabilities(meas)
    return reconstruct_replica(probs, 1), reconstruct_replica(probs, 2)


def misaligned_cloner_train(offset_deg: float) -> OpticalTrain:
    """The cloner bench at the (0, 0) input with its first half-wave plate
    turned by `offset_deg` degrees: one misaligned plate, which the optics
    equivalence check must catch."""
    train = build_cloner_train()
    elements = list(train.elements)
    k = next(k for k, e in enumerate(elements) if isinstance(e, HWP))
    elements[k] = HWP(elements[k].path, elements[k].angle + math.radians(offset_deg))
    return OpticalTrain(elements)
