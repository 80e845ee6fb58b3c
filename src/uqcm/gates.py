"""Gate library and circuits over labeled qubits.

The rotation convention is R(t)|0> = cos t |0> + sin t |1> and
R(t)|1> = -sin t |0> + cos t |1>.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .hilbert import LabelError, PureState, _Record, canonical_labels


class Rotation(_Record):
    __slots__ = ("target", "angle")

    def __init__(self, target, angle: float):
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle must be finite, got {angle!r}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "angle", angle)

    @property
    def labels(self):
        return (self.target,)


class CNOT(_Record):
    __slots__ = ("control", "target")

    def __init__(self, control, target):
        if control == target:
            raise LabelError("CNOT control and target must differ")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "target", target)

    @property
    def labels(self):
        return (self.control, self.target)


class SWAP(_Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a == b:
            raise LabelError("SWAP qubits must differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def labels(self):
        return (self.a, self.b)


class CSWAP(_Record):
    __slots__ = ("control", "a", "b")

    def __init__(self, control, a, b):
        if len({control, a, b}) != 3:
            raise LabelError("CSWAP qubits must be distinct")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def labels(self):
        return (self.control, self.a, self.b)


Gate = Union[Rotation, CNOT, SWAP, CSWAP]


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


class Circuit:
    """Ordered gate list over a fixed register of labeled qubits."""

    def __init__(self, register, gates=()):
        self._register = canonical_labels(register)
        gates = tuple(gates)
        reg = set(self._register)
        for g in gates:
            bad = set(g.labels) - reg
            if bad:
                raise LabelError(
                    f"gate {g!r} touches qubits outside the register: {sorted(map(str, bad))}"
                )
        self._gates = gates

    @property
    def register(self) -> tuple:
        return self._register

    @property
    def gates(self) -> tuple:
        return self._gates

    def __repr__(self):
        return f"Circuit(register={self._register!r}, gates={self._gates!r})"


def _bit_weight(register: tuple, label) -> int:
    # Canonical order: first label is the most significant bit.
    pos = register.index(label)
    return 1 << (len(register) - 1 - pos)


def gate_unitary(gate: Gate, register) -> np.ndarray:
    """Full 2^n x 2^n unitary of `gate` embedded in the given register."""
    register = canonical_labels(register)
    reg = set(register)
    bad = set(gate.labels) - reg
    if bad:
        raise LabelError(f"gate qubits not in register: {sorted(map(str, bad))}")
    n = len(register)
    dim = 1 << n

    if isinstance(gate, Rotation):
        pos = register.index(gate.target)
        u = np.kron(np.eye(1 << pos, dtype=complex), rotation_matrix(gate.angle))
        return np.kron(u, np.eye(1 << (n - 1 - pos), dtype=complex))

    # The remaining gates permute computational basis states.
    u = np.zeros((dim, dim), dtype=complex)
    if isinstance(gate, CNOT):
        cbit = _bit_weight(register, gate.control)
        tbit = _bit_weight(register, gate.target)
        for i in range(dim):
            j = i ^ tbit if i & cbit else i
            u[j, i] = 1.0
    elif isinstance(gate, SWAP):
        abit = _bit_weight(register, gate.a)
        bbit = _bit_weight(register, gate.b)
        for i in range(dim):
            j = i
            if bool(i & abit) != bool(i & bbit):
                j = i ^ abit ^ bbit
            u[j, i] = 1.0
    elif isinstance(gate, CSWAP):
        cbit = _bit_weight(register, gate.control)
        abit = _bit_weight(register, gate.a)
        bbit = _bit_weight(register, gate.b)
        for i in range(dim):
            j = i
            if i & cbit and bool(i & abit) != bool(i & bbit):
                j = i ^ abit ^ bbit
            u[j, i] = 1.0
    else:
        raise TypeError(f"unknown gate type: {gate!r}")
    return u


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Composite unitary of the whole circuit."""
    dim = 1 << len(circuit.register)
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, circuit.register) @ u
    return u


def _basis_permutation(gate: Gate, register: tuple) -> np.ndarray:
    """Image of every computational basis index under a CNOT, SWAP or CSWAP.

    Each of these gates is its own inverse, so the permutation is too.
    """
    idx = np.arange(1 << len(register))
    if isinstance(gate, CNOT):
        cbit = _bit_weight(register, gate.control)
        return np.where(idx & cbit, idx ^ _bit_weight(register, gate.target), idx)
    abit = _bit_weight(register, gate.a)
    bbit = _bit_weight(register, gate.b)
    move = ((idx & abit) > 0) != ((idx & bbit) > 0)
    if isinstance(gate, CSWAP):
        move &= (idx & _bit_weight(register, gate.control)) > 0
    return np.where(move, idx ^ abit ^ bbit, idx)


def _apply_gates(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """(..., 2^n) amplitudes after the circuit's gates, for any leading batch
    shape; the register is the circuit's, unchecked.

    A rotation moves its qubit's axis to the front, so the whole batch is
    one (2, M) matrix, and multiplies it by the 2x2 rotation matrix once;
    CNOT, SWAP and CSWAP permute basis states, so they only reindex the
    amplitudes. No dense 2^n x 2^n gate matrix is built (`gate_unitary`
    remains the reference).
    """
    register = circuit.register
    amps = np.asarray(amps, dtype=complex)
    for g in circuit.gates:
        if isinstance(g, Rotation):
            # Canonical order: the qubit at position k has 2^k more significant states.
            high = 1 << register.index(g.target)
            axis = amps.reshape(-1, high, 2, amps.shape[-1] // (2 * high)).transpose(2, 0, 1, 3)
            turned = (rotation_matrix(g.angle) @ axis.reshape(2, -1)).reshape(axis.shape)
            amps = turned.transpose(1, 2, 0, 3).reshape(amps.shape)
        else:
            amps = amps[..., _basis_permutation(g, register)]
    return amps


def apply_circuit(circuit: Circuit, state: PureState) -> PureState:
    """Apply the circuit's gates in order to one state on the circuit's register."""
    if state.labels != circuit.register:
        raise LabelError(
            f"state register {state.labels!r} does not match circuit register "
            f"{circuit.register!r}"
        )
    return PureState(circuit.register, _apply_gates(circuit, state.amplitudes))
