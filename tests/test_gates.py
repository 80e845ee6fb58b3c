"""Gate unitaries, circuit validation, and circuit application."""

import itertools
import types

import numpy as np
import pytest

from uqcm.gates import (
    CNOT,
    CSWAP,
    SWAP,
    Circuit,
    Rotation,
    _apply_gates,
    _basis_permutation,
    apply_circuit,
    circuit_unitary,
    gate_unitary,
    rotation_matrix,
)
from uqcm.hilbert import AUX, LabelError, PureState, canonical_labels
from uqcm.network import (
    _network_image,
    build_cloning_network,
    build_measurement_circuit,
    cloner_prep_angles,
    triplicator_prep_angles,
)
from uqcm.tomography import _BASIS_MATRIX, _click_probabilities

from reference import random_pure_state


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


def test_gate_unitary_rejects_an_unknown_gate_type():
    with pytest.raises(TypeError, match=r"^unknown gate type: namespace\(labels=\(1,\)\)$"):
        gate_unitary(types.SimpleNamespace(labels=(1,)), (1, 2))


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


def test_permutation_gates_match_their_unitaries_in_every_placement():
    # Every CNOT, SWAP and CSWAP on (1, 2, 3), each qubit in each role, the
    # least significant one (3) included: the runner's basis permutation
    # against the dense unitary.
    register = (1, 2, 3)
    amps = np.arange(8) + 1j * np.arange(8, 16)
    gates = [CNOT(a, b) for a, b in itertools.permutations(register, 2)]
    gates += [SWAP(a, b) for a, b in itertools.permutations(register, 2)]
    gates += [CSWAP(c, a, b) for c, a, b in itertools.permutations(register, 3)]
    for gate in gates:
        out = _apply_gates(Circuit(register, [gate]), amps)
        assert np.array_equal(out, gate_unitary(gate, register) @ amps), gate


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


def stacked_runner(circuit, amps):
    """The gate runner as it was: each rotation one stacked product, a 2x2
    by 2 x k matrix per (input, higher-qubit index)."""
    register = circuit.register
    amps = np.asarray(amps, dtype=complex)
    lead = amps.shape[:-1]
    for g in circuit.gates:
        if isinstance(g, Rotation):
            high = 1 << register.index(g.target)
            amps = (rotation_matrix(g.angle) @ amps.reshape(lead + (high, 2, -1))).reshape(amps.shape)
        else:
            amps = amps[..., _basis_permutation(g, register)]
    return amps


def kron_chain(gate, register):
    """`gate_unitary` of a rotation as it was: one kron per register qubit."""
    u = np.eye(1, dtype=complex)
    for lab in canonical_labels(register):
        u = np.kron(u, rotation_matrix(gate.angle) if lab == gate.target else np.eye(2, dtype=complex))
    return u


class TestWholeBatchProducts:
    """The whole-batch products against the stacked forms they replace."""

    LEAD_SHAPES = [(), (1,), (2,), (7,), (100,), (1000,), (3, 7)]

    @pytest.mark.parametrize("build", [build_cloning_network, build_measurement_circuit])
    @pytest.mark.parametrize("lead", LEAD_SHAPES)
    def test_runner_matches_the_stacked_products(self, build, lead):
        circ = build()
        dim = 1 << len(circ.register)
        rng = np.random.default_rng(len(lead) * 1009 + sum(lead))
        amps = rng.normal(size=lead + (dim,)) + 1j * rng.normal(size=lead + (dim,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        out = _apply_gates(circ, amps)
        assert out.shape == amps.shape
        # Off the last qubit the stacked product was a BLAS matrix product per
        # stack, as the whole-batch product is: the same arithmetic, the same bits.
        last = circ.register[-1]
        inner = Circuit(circ.register, [g for g in circ.gates if not (isinstance(g, Rotation) and g.target == last)])
        assert _apply_gates(inner, amps).tobytes() == stacked_runner(inner, amps).tobytes()
        # On the last qubit each stack was a matrix-vector product, rounded
        # differently: at most a few units of the last place per rotation.
        rotations = sum(isinstance(g, Rotation) for g in circ.gates)
        assert np.max(np.abs(out - stacked_runner(circ, amps))) <= 4 * rotations * np.finfo(float).eps

    @pytest.mark.parametrize("register", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, AUX)])
    def test_rotation_unitary_matches_the_kron_chain(self, register):
        for target in register:
            for angle in (0.0, 0.3, -1.2, np.pi / 2, 2.9, -np.pi):
                gate = Rotation(target, angle)
                assert gate_unitary(gate, register).tobytes() == kron_chain(gate, register).tobytes()

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4), (700,)])
    def test_click_table_matches_the_stacked_product(self, lead):
        rng = np.random.default_rng(47)
        rows = rng.normal(size=lead + (8, 2)) + 1j * rng.normal(size=lead + (8, 2))
        views = [rows, rows[..., ::-1], rows[..., ::2, :], np.swapaxes(np.swapaxes(rows, -1, -2).copy(), -1, -2)]
        for view in views:
            assert _click_probabilities(view).tobytes() == (np.abs(view @ _BASIS_MATRIX) ** 2).tobytes()

    @pytest.mark.parametrize("prep", [cloner_prep_angles(), triplicator_prep_angles()])
    def test_network_image_matches_the_stacked_runner(self, prep):
        # Equal by value: a zero the stacked product gave as -0.0 may now be
        # +0.0 (4 entries of the cloner's image), which no |.|^2 can see.
        basis = (np.eye(2)[:, :, None] * np.eye(4)[0]).reshape(2, 8)
        assert np.array_equal(_network_image(prep), stacked_runner(build_cloning_network(prep), basis).T)
