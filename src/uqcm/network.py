"""The optimal symmetric 1-to-2 qubit cloning network.

The machine is a two-stage gate network on qubits (1, 2, 3): a preparation
stage entangling the blank qubit 2 and ancilla qubit 3 (no information
flows out of qubit 1), followed by a cloning stage of four CNOT gates that
redistributes the input qubit's information. Both output copies (qubits 1
and 2) reach the optimal universal fidelity 5/6 for every pure input.

`build_cloning_network` is the one gate list of the machine and
`_network_outputs` its one array runner. The compiled 8 x 2 image, the
triplicator and the bench-layout circuit of `build_measurement_circuit` are
all derived from them. A direct closed-form transform of the same machine
doubles as an oracle against which the gate network and the optical
realization are checked.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .angles import PrepAngles, prep_circuit, solve_prep_angles
from .gates import CNOT, CSWAP, SWAP, Circuit, Rotation, _apply_gates
from .hilbert import (
    ATOL,
    AUX,
    DensityMatrix,
    PureState,
    _qubit_stokes,
    _require_isometry,
    _require_physical_stokes,
    _stokes_fidelity,
    stokes_compose,
)

# Preparation target for the 1-to-2 cloner: (2|00> + |01> + |11>) / sqrt(6)
# on qubits (2, 3).
CLONER_PREP_TARGET = np.array([2.0, 1.0, 0.0, 1.0]) / math.sqrt(6.0)

# Preparation target for the symmetric triplicator of real-amplitude inputs:
# (sqrt(3)/2) |00> + (1 / (2 sqrt(3))) (|01> + |10> + |11>). Derived in
# closed form by scripts/derive_triplicator.py: of the five prep states (up to
# global sign) for which the three reduced outputs coincide and their
# fidelity is independent of the (real) input, it is the one of highest
# fidelity; the other four give F = 1/2.
TRIPLICATOR_PREP_TARGET = np.array(
    [math.sqrt(3.0) / 2.0, 0.5 / math.sqrt(3.0), 0.5 / math.sqrt(3.0), 0.5 / math.sqrt(3.0)]
)

# Common replica fidelity of the triplicator, derived in closed form with its
# prep state (scripts/derive_triplicator.py); not an input to the simulation.
TRIPLICATOR_FIDELITY = 5.0 / 6.0


def _input_amplitudes(theta, delta) -> np.ndarray:
    """(..., 2) amplitudes cos(theta), e^(i delta) sin(theta) for theta and
    delta of one shape (...); rejects any value out of range."""
    theta, delta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(delta, dtype=float))
    bad_theta = ~((-math.pi / 2 < theta) & (theta <= math.pi / 2))
    if np.any(bad_theta):
        raise ValueError(f"theta value {float(theta[bad_theta][0])!r} outside (-pi/2, pi/2]")
    bad_delta = ~((0.0 <= delta) & (delta < 2.0 * math.pi))
    if np.any(bad_delta):
        raise ValueError(f"delta value {float(delta[bad_delta][0])!r} outside [0, 2*pi)")
    return np.stack([np.cos(theta), np.exp(1j * delta) * np.sin(theta)], axis=-1)


@lru_cache(maxsize=None)
def cloner_prep_angles() -> PrepAngles:
    """Solved rotation angles preparing the cloner target on qubits (2, 3)."""
    return solve_prep_angles(CLONER_PREP_TARGET)


@lru_cache(maxsize=None)
def triplicator_prep_angles() -> PrepAngles:
    """Solved rotation angles preparing the triplicator target on qubits (2, 3)."""
    return solve_prep_angles(TRIPLICATOR_PREP_TARGET)


def build_cloning_circuit() -> Circuit:
    """The four-CNOT cloning stage on qubits (1, 2, 3)."""
    return Circuit(
        (1, 2, 3),
        (CNOT(1, 2), CNOT(1, 3), CNOT(2, 1), CNOT(3, 1)),
    )


def build_cloning_network(prep_angles: PrepAngles | None = None) -> Circuit:
    """Full two-stage network (preparation then cloning) on qubits (1, 2, 3);
    the preparation defaults to the cloner angles."""
    prep = prep_circuit(cloner_prep_angles() if prep_angles is None else prep_angles)
    return Circuit((1, 2, 3), prep.gates + build_cloning_circuit().gates)


# Images of the basis inputs under the cloning machine, basis order (1, 2, 3):
#   |0> -> sqrt(2/3)|000> + sqrt(1/6)(|101> + |011>)
#   |1> -> sqrt(2/3)|111> + sqrt(1/6)(|100> + |010>)
_IMAGE_OF_0 = np.zeros(8, dtype=complex)
_IMAGE_OF_0[0b000] = math.sqrt(2.0 / 3.0)
_IMAGE_OF_0[0b101] = math.sqrt(1.0 / 6.0)
_IMAGE_OF_0[0b011] = math.sqrt(1.0 / 6.0)
_IMAGE_OF_1 = np.zeros(8, dtype=complex)
_IMAGE_OF_1[0b111] = math.sqrt(2.0 / 3.0)
_IMAGE_OF_1[0b100] = math.sqrt(1.0 / 6.0)
_IMAGE_OF_1[0b010] = math.sqrt(1.0 / 6.0)


def _reference_outputs(amps) -> np.ndarray:
    """(..., 8) closed-form outputs a0 * image(|0>) + a1 * image(|1>) for
    (..., 2) input amplitudes."""
    amps = np.asarray(amps)
    return amps[..., 0, None] * _IMAGE_OF_0 + amps[..., 1, None] * _IMAGE_OF_1


def _network_outputs(amps, prep: PrepAngles | None = None) -> np.ndarray:
    """(..., 8) outputs of the gate sequence of `build_cloning_network(prep)`
    for (..., 2) input amplitudes on qubit 1, qubits 2 and 3 blank, as one batch."""
    amps = np.asarray(amps)
    joint = (amps[..., None] * np.eye(4)[0]).reshape(amps.shape[:-1] + (8,))
    return _apply_gates(build_cloning_network(prep), joint)


@lru_cache(maxsize=4)
def _network_image(prep: PrepAngles) -> np.ndarray:
    """8 x 2 read-only image of the input basis states |0>, |1> (qubit 1,
    blank qubits 2 and 3) under the cloning network.

    The machine is linear in the input qubit, so these two columns carry the
    whole network: the output for input amplitudes (a0, a1) is
    a0 * image[:, 0] + a1 * image[:, 1]. Compiled once per prep-angle set,
    on first use.
    """
    image = _network_outputs(np.eye(2), prep).T
    _require_isometry(image, "cloning network image")
    image.flags.writeable = False
    return image


def _clone_outputs(amps) -> np.ndarray:
    """(..., 8) machine outputs on qubits (1, 2, 3) for (..., 2) input amplitudes.

    One product with the compiled network image; every output must have
    unit norm within ATOL.
    """
    out = np.asarray(amps) @ _network_image(cloner_prep_angles()).T
    norm2 = np.sum(np.abs(out) ** 2, axis=-1)
    off = ~(np.abs(norm2 - 1.0) <= ATOL)
    if np.any(off):
        raise ValueError(f"machine output is not normalized: sum |a|^2 = {float(norm2[off][0])!r}")
    return out


def _replica_stokes_of_outputs(out) -> np.ndarray:
    """(..., 2, 3) Stokes vectors of replicas 1 and 2 (qubits 1 and 2) of (..., 8) outputs."""
    stokes = np.stack([_qubit_stokes(out, 0), _qubit_stokes(out, 1)], axis=-2)
    _require_physical_stokes(stokes)
    return stokes


class CloneResult(NamedTuple):
    output: PureState
    rho1: DensityMatrix
    rho2: DensityMatrix
    fidelity1: float
    fidelity2: float


def clone(theta: float, delta: float) -> CloneResult:
    """Run the cloning machine on the (theta, delta) input qubit.

    Returns the three-qubit output, both replicas' reduced density
    matrices, and their fidelities (1 + S . n) / 2 against the input (5/6
    each). A single-point use of the grid kernels `_clone_outputs` and
    `_replica_stokes_of_outputs`.
    """
    amps = _input_amplitudes(theta, delta)
    out = _clone_outputs(amps)
    stokes = _replica_stokes_of_outputs(out)
    f1, f2 = _stokes_fidelity(stokes, _qubit_stokes(amps))
    return CloneResult(
        PureState((1, 2, 3), out),
        stokes_compose(*stokes[0], label=1),
        stokes_compose(*stokes[1], label=2),
        float(f1),
        float(f2),
    )


def optimal_fidelity(m: int, n: int) -> float:
    """Optimal fidelity of symmetric universal M-to-N qubit cloning.

    F(M, N) = (M N + N + M) / (N (M + 2)), so F(1, 2) = 5/6.
    """
    if int(m) != m or int(n) != n:
        raise ValueError("M and N must be integers")
    m, n = int(m), int(n)
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= M <= N, got M={m}, N={n}")
    return (m * n + n + m) / (n * (m + 2))


def triplicate(theta: float) -> tuple:
    """Clone a real-amplitude input into three equal copies.

    Runs the network with the triplicator preparation angles on
    cos(theta)|0> + sin(theta)|1> and returns the three reduced density
    matrices, which coincide with an input-independent fidelity.
    """
    out = _input_amplitudes(theta, 0.0) @ _network_image(triplicator_prep_angles()).T
    return tuple(stokes_compose(*_qubit_stokes(out, k), label=k + 1) for k in range(3))


def build_measurement_circuit() -> Circuit:
    """Gate-level model of the full optical bench on qubits (1, 2, 3, aux).

    Mirrors the bench layout: the input qubit is first swapped onto qubit 2,
    so later stages see a definite qubit 1. The gates of
    `build_cloning_network` therefore follow with qubits 1 and 2 exchanged.
    The probe qubit is then spread into (|0> + |1>)/sqrt(2) and controls a
    swap of the two replicas, so each half of the probe carries one copy.
    Because the machine output is symmetric under exchanging qubits 1 and 2,
    this pipeline measures the same replicas as the plain network.
    """

    def exchanged(gate):
        qubits = {f.name: getattr(gate, f.name) for f in fields(gate) if f.name != "angle"}
        return replace(gate, **{name: {1: 2, 2: 1}.get(q, q) for name, q in qubits.items()})

    network = [exchanged(g) for g in build_cloning_network().gates]
    return Circuit((1, 2, 3, AUX), (SWAP(1, 2), *network, Rotation(AUX, math.pi / 4), CSWAP(AUX, 1, 2)))
