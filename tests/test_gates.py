"""Gate unitaries, circuit validation, and circuit application."""

import numpy as np
import pytest

from uqcm.gates import (
    CNOT,
    CSWAP,
    SWAP,
    Circuit,
    Rotation,
    _apply_gates,
    apply_circuit,
    circuit_unitary,
    gate_unitary,
)
from uqcm.hilbert import AUX, LabelError, PureState, random_pure_state
from uqcm.network import build_cloning_network, build_measurement_circuit


def test_rotation_zero_is_identity():
    u = gate_unitary(Rotation(1, 0.0), (1, 2))
    assert np.allclose(u, np.eye(4), atol=1e-15)


def test_rotation_convention():
    # R(t)|0> = cos t |0> + sin t |1>
    u = gate_unitary(Rotation(1, 0.3), (1,))
    assert np.allclose(u @ [1, 0], [np.cos(0.3), np.sin(0.3)])
    assert np.allclose(u @ [0, 1], [-np.sin(0.3), np.cos(0.3)])


def test_cnot_permutes_target_on_control_one():
    u = gate_unitary(CNOT(1, 2), (1, 2))
    expect = np.zeros((4, 4))
    expect[0b00, 0b00] = expect[0b01, 0b01] = 1  # control 0: unchanged
    expect[0b11, 0b10] = expect[0b10, 0b11] = 1  # control 1: |10> <-> |11>
    assert np.allclose(u, expect)


def test_cswap_swaps_targets_when_control_set():
    u = gate_unitary(CSWAP(AUX, 1, 2), (1, 2, AUX))
    # |1>_aux |ab> -> |1>_aux |ba>; aux is the most significant bit.
    state = np.zeros(8)
    state[0b101] = 1.0  # aux = 1, q1 = 0, q2 = 1
    out = u @ state
    assert out[0b110] == 1.0
    # aux = 0 leaves everything alone
    state = np.zeros(8)
    state[0b001] = 1.0
    assert (u @ state)[0b001] == 1.0


def test_gate_unitaries_are_unitary():
    gates = [
        Rotation(1, 0.7),
        Rotation(3, -1.2),
        CNOT(1, 3),
        CNOT(3, 2),
        SWAP(1, 2),
        CSWAP(AUX, 1, 2),
    ]
    reg = (1, 2, 3, AUX)
    for g in gates:
        u = gate_unitary(g, reg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


def test_gate_label_validation():
    with pytest.raises(LabelError):
        CNOT(1, 1)
    with pytest.raises(LabelError):
        CSWAP(1, 1, 2)
    with pytest.raises(ValueError):
        Rotation(1, float("nan"))
    with pytest.raises(LabelError):
        gate_unitary(CNOT(1, 5), (1, 2))


def test_circuit_rejects_foreign_labels():
    with pytest.raises(LabelError, match="outside the register"):
        Circuit((1, 2), [CNOT(1, 3)])


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(2)
    psi = random_pure_state((1, 2), rng)
    out = apply_circuit(Circuit((1, 2)), psi)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_apply_circuit_register_mismatch():
    psi = PureState([1], [1, 0])
    with pytest.raises(LabelError, match="does not match"):
        apply_circuit(Circuit((1, 2), [CNOT(1, 2)]), psi)


def test_apply_circuit_matches_composite_unitary():
    rng = np.random.default_rng(8)
    circuits = (
        Circuit(
            (1, 2, 3),
            [Rotation(2, 0.5), CNOT(2, 3), Rotation(3, -0.9), CNOT(3, 1), SWAP(1, 2)],
        ),
        Circuit(
            (1, 2, 3, AUX),
            [Rotation(AUX, 0.4), SWAP(1, 3), CNOT(AUX, 2), Rotation(1, 1.3),
             CSWAP(AUX, 1, 2), CSWAP(2, 3, AUX), Rotation(3, -0.2), SWAP(AUX, 2)],
        ),
    )
    for circ in circuits:
        u = circuit_unitary(circ)
        dim = u.shape[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
        for _ in range(20):
            psi = random_pure_state(circ.register, rng)
            out = apply_circuit(circ, psi)
            assert np.allclose(out.amplitudes, u @ psi.amplitudes, atol=1e-12)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    ("build", "lead"), [(build_cloning_network, (40,)), (build_measurement_circuit, (3, 7))]
)
def test_batched_kernel_matches_per_state_apply(build, lead):
    circ = build()
    dim = 1 << len(circ.register)
    rng = np.random.default_rng(31)
    amps = rng.normal(size=lead + (dim,)) + 1j * rng.normal(size=lead + (dim,))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    out = _apply_gates(circ, amps)
    assert out.shape == amps.shape
    for idx in np.ndindex(lead):
        ref = apply_circuit(circ, PureState(circ.register, amps[idx])).amplitudes
        assert np.max(np.abs(out[idx] - ref)) <= 1e-15
