"""Cloning network: stage contracts, oracle equivalence, fidelities, triplicator."""

import math

import numpy as np
import pytest

from uqcm.gates import CNOT, CSWAP, SWAP, Rotation, apply_circuit, circuit_unitary
from uqcm.hilbert import (
    AUX,
    DensityMatrix,
    PureState,
    _qubit_stokes,
    _stokes_fidelity,
    fidelity,
    partial_trace,
)
from uqcm.network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_FIDELITY,
    _clone_outputs,
    _input_amplitudes,
    _network_image,
    _replica_stokes_of_outputs,
    build_cloning_circuit,
    build_cloning_network,
    build_measurement_circuit,
    build_preparation_circuit,
    clone,
    cloner_prep_angles,
    optimal_fidelity,
    triplicate,
    triplicator_prep_angles,
)

from reference import input_state, random_pure_state, reference_clone_output, tensor_product

BLANK = PureState((2, 3), [1, 0, 0, 0])
F_OPT = 5.0 / 6.0


def test_preparation_circuit_reproduces_target_state():
    out = apply_circuit(build_preparation_circuit(), BLANK)
    assert np.allclose(out.amplitudes, CLONER_PREP_TARGET, atol=1e-10)


def test_cloning_stage_on_basis_zero():
    # |0>_1 x prep state -> (2|000> + |101> + |011>) / sqrt(6)
    start = tensor_product(PureState([1], [1, 0]), PureState((2, 3), CLONER_PREP_TARGET))
    out = apply_circuit(build_cloning_circuit(), start)
    expect = np.zeros(8)
    expect[0b000] = 2 / math.sqrt(6)
    expect[0b101] = 1 / math.sqrt(6)
    expect[0b011] = 1 / math.sqrt(6)
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


def test_cloning_stage_on_basis_one():
    start = tensor_product(PureState([1], [0, 1]), PureState((2, 3), CLONER_PREP_TARGET))
    out = apply_circuit(build_cloning_circuit(), start)
    expect = np.zeros(8)
    expect[0b111] = 2 / math.sqrt(6)
    expect[0b100] = 1 / math.sqrt(6)
    expect[0b010] = 1 / math.sqrt(6)
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


def test_cloning_stage_linearity():
    plus = tensor_product(
        PureState([1], np.array([1, 1]) / math.sqrt(2)),
        PureState((2, 3), CLONER_PREP_TARGET),
    )
    out = apply_circuit(build_cloning_circuit(), plus)
    v0 = apply_circuit(
        build_cloning_circuit(),
        tensor_product(PureState([1], [1, 0]), PureState((2, 3), CLONER_PREP_TARGET)),
    ).amplitudes
    v1 = apply_circuit(
        build_cloning_circuit(),
        tensor_product(PureState([1], [0, 1]), PureState((2, 3), CLONER_PREP_TARGET)),
    ).amplitudes
    assert np.allclose(out.amplitudes, (v0 + v1) / math.sqrt(2), atol=1e-12)


def test_reference_images_of_basis_states():
    out0 = reference_clone_output(PureState([1], [1, 0]))
    assert out0.amplitudes[0b000] == pytest.approx(math.sqrt(2 / 3))
    assert out0.amplitudes[0b101] == pytest.approx(math.sqrt(1 / 6))
    assert out0.amplitudes[0b011] == pytest.approx(math.sqrt(1 / 6))
    out1 = reference_clone_output(PureState([1], [0, 1]))
    assert out1.amplitudes[0b111] == pytest.approx(math.sqrt(2 / 3))
    assert out1.amplitudes[0b100] == pytest.approx(math.sqrt(1 / 6))
    assert out1.amplitudes[0b010] == pytest.approx(math.sqrt(1 / 6))


def test_network_matches_reference_oracle():
    rng = np.random.default_rng(100)
    network = build_cloning_network()
    for _ in range(200):
        psi = random_pure_state([1], rng)
        out = apply_circuit(network, tensor_product(psi, BLANK))
        ref = reference_clone_output(psi)
        assert abs(np.vdot(out.amplitudes, ref.amplitudes)) >= 1 - 1e-12


def test_network_composite_is_unitary():
    for circ in (build_preparation_circuit(), build_cloning_circuit(), build_cloning_network()):
        u = circuit_unitary(circ)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


def test_clone_fidelities_are_optimal():
    for theta, delta in ((0.0, 0.0), (math.pi / 4, math.pi / 2), (-0.9, 5.5)):
        res = clone(theta, delta)
        assert res.fidelity1 == pytest.approx(F_OPT, abs=1e-9)
        assert res.fidelity2 == pytest.approx(F_OPT, abs=1e-9)


def test_clone_replicas_coincide_for_random_inputs():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        theta = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
        delta = rng.uniform(0, 2 * math.pi)
        res = clone(theta, delta)
        assert np.max(np.abs(res.rho1.matrix - res.rho2.matrix)) < 1e-12


def test_replica_is_shrunk_input():
    rng = np.random.default_rng(4321)
    network = build_cloning_network()
    for _ in range(50):
        psi = random_pure_state([1], rng)
        out = apply_circuit(network, tensor_product(psi, BLANK))
        rho1 = partial_trace(out, [1]).matrix
        shrunk = (2 / 3) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + np.eye(2) / 6
        assert np.max(np.abs(rho1 - shrunk)) < 1e-10


def test_input_state_validation():
    with pytest.raises(ValueError, match="theta"):
        input_state(2.0, 0.0)
    with pytest.raises(ValueError, match="delta"):
        input_state(0.0, -0.1)
    with pytest.raises(ValueError, match="delta"):
        input_state(0.0, 2 * math.pi)
    # the full [0, 2*pi) phase range is accepted
    input_state(0.3, 5.9)


class TestOptimalFidelity:
    def test_one_to_two(self):
        assert optimal_fidelity(1, 2) == pytest.approx(5 / 6, abs=0)

    def test_no_op_copying_is_perfect(self):
        for m in (1, 2, 7):
            assert optimal_fidelity(m, m) == pytest.approx(1.0)

    def test_one_to_three(self):
        assert optimal_fidelity(1, 3) == pytest.approx(7 / 9, abs=1e-15)

    def test_strictly_decreasing_in_n(self):
        for m in (1, 2, 3):
            values = [optimal_fidelity(m, n) for n in range(m, m + 50)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_asymptote(self):
        # F(M, N) - (M+1)/(M+2) = M / (N (M+2)) exactly, so the deviation at
        # N = 10^6 is ~3e-7 by the formula's own algebra; 1e-9 needs N = 10^9.
        for m in (1, 2, 5):
            expected_gap = m / (10**6 * (m + 2))
            assert optimal_fidelity(m, 10**6) - (m + 1) / (m + 2) == pytest.approx(
                expected_gap, abs=1e-12
            )
            assert optimal_fidelity(m, 10**9) == pytest.approx((m + 1) / (m + 2), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_fidelity(2, 1)
        with pytest.raises(ValueError):
            optimal_fidelity(0, 2)
        with pytest.raises(ValueError):
            optimal_fidelity(1.5, 3)


class TestTriplicator:
    def test_three_equal_copies_at_theta_zero(self):
        r1, r2, r3 = triplicate(0.0)
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-10
        assert np.max(np.abs(r1.matrix - r3.matrix)) < 1e-10

    def test_fidelity_is_input_independent(self):
        network = build_cloning_network(triplicator_prep_angles())
        values = []
        for theta in np.linspace(-1.5, 1.5, 9):
            r1, r2, r3 = triplicate(theta)
            psi = input_state(theta, 0.0)
            # The image product against the circuit and partial-trace route.
            out = apply_circuit(network, tensor_product(psi, BLANK))
            for q, r in zip((1, 2, 3), (r1, r2, r3)):
                assert r.labels == (q,)
                assert np.max(np.abs(r.matrix - partial_trace(out, [q]).matrix)) < 1e-12
            fs = [fidelity(psi, DensityMatrix([1], r.matrix)) for r in (r1, r2, r3)]
            assert max(fs) - min(fs) < 1e-10
            values.append(fs[0])
        assert max(values) - min(values) < 1e-9
        # regression against the recorded derivation-run value
        assert values[0] == pytest.approx(TRIPLICATOR_FIDELITY, abs=1e-9)


def bench_layout_gates(prep):
    """The bench-layout circuit written out by hand: the input swap, the
    network with qubits 1 and 2 exchanged, then the probe and its swap."""
    t1, t2, t3 = prep.as_tuple()
    return (
        SWAP(1, 2),
        Rotation(1, t1),
        CNOT(1, 3),
        Rotation(3, t2),
        CNOT(3, 1),
        Rotation(1, t3),
        CNOT(2, 1),
        CNOT(2, 3),
        CNOT(1, 2),
        CNOT(3, 2),
        Rotation(AUX, math.pi / 4),
        CSWAP(AUX, 1, 2),
    )


@pytest.mark.parametrize("prep", [cloner_prep_angles(), triplicator_prep_angles()], ids=["cloner", "triplicator"])
def test_measurement_circuit_is_the_relabelled_network(prep):
    circuit = build_measurement_circuit(prep)
    assert circuit.register == (AUX, 1, 2, 3)
    assert circuit.gates == bench_layout_gates(prep)


def test_measurement_circuit_produces_probe_superposition():
    # Applying the bench circuit to |0>_aux |psi>_1 |00>_23 must equal the
    # hand-built probe attachment of the machine output (the output is
    # symmetric under exchanging the replicas, so the input swap is invisible).
    from uqcm.tomography import measurement_state

    for theta, delta in ((0.0, 0.0), (0.7, 1.3)):
        psi = input_state(theta, delta)
        start = tensor_product(
            PureState([AUX], [1, 0]), tensor_product(psi, BLANK)
        )
        out = apply_circuit(build_measurement_circuit(), start)
        expect = measurement_state(theta, delta)
        assert abs(np.vdot(out.amplitudes, expect.amplitudes)) >= 1 - 1e-10


class TestNetworkImage:
    """The compiled 8 x 2 image and the grid kernels built on it."""

    @staticmethod
    def random_amplitudes(rng, n):
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        return amps / np.linalg.norm(amps, axis=1, keepdims=True)

    def test_image_is_a_read_only_cached_isometry(self):
        prep = cloner_prep_angles()
        image = _network_image(prep)
        assert image.shape == (8, 2)
        assert not image.flags.writeable
        assert _network_image(prep) is image
        assert np.max(np.abs(image.conj().T @ image - np.eye(2))) < 1e-12

    def test_image_times_amplitudes_equals_apply_circuit(self):
        # The image is the gate runner's output on the basis inputs, bit for bit.
        for prep in (cloner_prep_angles(), triplicator_prep_angles()):
            network = build_cloning_network(prep)
            columns = [apply_circuit(network, tensor_product(PureState([1], b), BLANK)).amplitudes for b in np.eye(2)]
            assert np.array_equal(_network_image(prep), np.stack(columns, axis=1))
        rng = np.random.default_rng(81)
        amps = self.random_amplitudes(rng, 40)
        network = build_cloning_network()
        batch = _clone_outputs(amps)
        assert batch.shape == (40, 8)
        for a, out in zip(amps, batch):
            ref = apply_circuit(network, tensor_product(PureState([1], a), BLANK))
            assert np.max(np.abs(_network_image(cloner_prep_angles()) @ a - ref.amplitudes)) < 1e-12
            assert np.max(np.abs(out - ref.amplitudes)) < 1e-12

    def test_batched_replica_fidelities_match_partial_traces(self):
        rng = np.random.default_rng(82)
        thetas = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2, size=30)
        deltas = rng.uniform(0.0, 2 * math.pi, size=30)
        amps = _input_amplitudes(thetas, deltas)
        fids = _stokes_fidelity(_replica_stokes_of_outputs(_clone_outputs(amps)), _qubit_stokes(amps))
        network = build_cloning_network()
        for theta, delta, f in zip(thetas, deltas, fids):
            psi = input_state(theta, delta)
            out = apply_circuit(network, tensor_product(psi, BLANK))
            ref = [fidelity(psi, DensityMatrix([1], partial_trace(out, [q]).matrix)) for q in (1, 2)]
            assert np.max(np.abs(f - ref)) < 1e-12

    def test_input_amplitudes_match_input_state(self):
        thetas = np.array([-1.5, -0.2, 0.0, 0.7, math.pi / 2])
        deltas = np.array([0.0, 1.3, 6.2, 3.0, 0.5])
        amps = _input_amplitudes(thetas, deltas)
        for theta, delta, a in zip(thetas, deltas, amps):
            assert np.array_equal(a, input_state(theta, delta).amplitudes)

    def test_input_amplitudes_reject_any_value_out_of_range(self):
        with pytest.raises(ValueError, match="theta value 2.0 outside"):
            _input_amplitudes(np.array([0.1, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="delta"):
            _input_amplitudes(np.array([0.1, 0.2]), np.array([0.0, 2 * math.pi]))

    def test_nan_input_amplitude_is_not_normalized(self):
        with pytest.raises(ValueError, match="machine output is not normalized: sum \\|a\\|\\^2 = nan"):
            _clone_outputs(np.array([np.nan, 0.0]))

    def test_clone_is_the_single_point_kernel(self):
        res = clone(0.6, 2.5)
        amps = _input_amplitudes(0.6, 2.5)
        assert np.array_equal(res.output.amplitudes, _clone_outputs(amps))
        assert res.rho1.labels == (1,) and res.rho2.labels == (2,)
        shrunk = (2 / 3) * np.outer(amps, amps.conj()) + np.eye(2) / 6
        assert np.max(np.abs(res.rho1.matrix - shrunk)) < 1e-12
        assert np.max(np.abs(res.rho2.matrix - shrunk)) < 1e-12
