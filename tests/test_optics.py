"""Optics tier: element conventions, mode/qubit mapping, compiled train."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from uqcm.gates import CNOT, SWAP, Circuit, circuit_unitary
from uqcm.hilbert import fidelity, DensityMatrix
from uqcm.network import build_measurement_circuit, input_state
from uqcm.optics import (
    AJWP,
    BS,
    HWP,
    ORIENTED_ELEMENTS,
    PBS,
    QWP,
    LossyTrainError,
    ModeSpace,
    OpticalTrain,
    PhaseShift,
    PhotonState,
    Polarizer,
    apply_train,
    build_cloner_train,
    crot_path_controls_polarization,
    crot_polarization_controls_path,
    element_matrix,
    mode_qubit_labels,
    modes_to_qubits,
    optical_measurement_state,
    qubits_to_modes,
    source_photon,
    verify_equivalence,
    _apply_element,
    _bench_modes,
    _bench_path_amplitudes,
    _jones,
    _unit_norms,
)
from uqcm.tomography import measurement_state, path_distribution, per_path_amplitudes, replicas_from_state

SP2 = ModeSpace(2)
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cloner_train.txt")


def two_qubit_unitary(train):
    """Extract a 2-path train's matrix in the (pol, path) qubit basis."""
    from uqcm.optics import _mode_to_qubit_permutation

    perm = _mode_to_qubit_permutation(2)
    u = np.zeros((4, 4), dtype=complex)
    u[np.ix_(perm, perm)] = train.unitary()
    return u


class TestElements:
    def test_hwp_at_45_deg_flips_polarization(self):
        u = element_matrix(HWP(0, math.pi / 4), SP2)
        photon = source_photon(SP2, 0, "H")
        out = u @ photon.amplitudes
        assert out[SP2.index(0, "V")] == pytest.approx(1.0)

    def test_hwp_at_22_5_deg_makes_diagonal(self):
        u = element_matrix(HWP(0, math.pi / 8), SP2)
        out = u @ source_photon(SP2, 0, "H").amplitudes
        assert out[SP2.index(0, "H")] == pytest.approx(1 / math.sqrt(2))
        assert out[SP2.index(0, "V")] == pytest.approx(1 / math.sqrt(2))

    def test_bs_splits_50_50(self):
        u = element_matrix(BS(0, 1), SP2)
        out = u @ source_photon(SP2, 0, "H").amplitudes
        probs = np.abs(out) ** 2
        assert probs[SP2.index(0, "H")] == pytest.approx(0.5)
        assert probs[SP2.index(1, "H")] == pytest.approx(0.5)

    def test_pbs_transmits_h_reflects_v(self):
        u = element_matrix(PBS(0, 1), SP2)
        assert (u @ source_photon(SP2, 0, "H").amplitudes)[SP2.index(0, "H")] == 1.0
        assert (u @ source_photon(SP2, 0, "V").amplitudes)[SP2.index(1, "V")] == 1.0

    def test_all_non_polarizer_elements_are_unitary(self):
        els = [
            HWP(0, 0.3),
            QWP(1, 1.1),
            AJWP(0, 2.2),
            PBS(0, 1),
            BS(0, 1),
            PhaseShift(1, -0.4),
        ]
        for e in els:
            u = element_matrix(e, SP2)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_aligned_polarizer_is_transparent(self):
        train = OpticalTrain(SP2, [Polarizer(0, 0.0)])
        out = apply_train(train, source_photon(SP2, 0, "H"))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_crossed_polarizer_absorbs(self):
        train = OpticalTrain(SP2, [Polarizer(0, math.pi / 2)])
        out = apply_train(train, source_photon(SP2, 0, "H"))
        assert out.norm() == pytest.approx(0.0, abs=1e-12)

    def test_invalid_path_reference(self):
        with pytest.raises(ValueError, match="outside"):
            element_matrix(HWP(5, 0.0), SP2)


# One element of every kind on a 4-path space, mostly off path 0 so row offsets matter.
ALL_KINDS = (
    HWP(1, 0.3),
    QWP(2, 1.1),
    AJWP(3, 2.2),
    PBS(0, 3),
    BS(3, 1),
    Polarizer(2, 0.7),
    PhaseShift(1, -0.4),
)


def _random_modes(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestRowUpdateKernel:
    """The in-place row update equals the dense element matrix product."""

    SPACE = ModeSpace(4)

    @pytest.mark.parametrize("element", ALL_KINDS, ids=lambda e: type(e).__name__)
    def test_unbatched_matches_dense(self, element):
        rng = np.random.default_rng(11)
        m = _random_modes(rng, (self.SPACE.dim, 3))
        got = m.copy()
        _apply_element(element, got)
        assert np.max(np.abs(got - element_matrix(element, self.SPACE) @ m)) < 1e-12

    @pytest.mark.parametrize("element", ALL_KINDS, ids=lambda e: type(e).__name__)
    def test_batched_matches_dense(self, element):
        rng = np.random.default_rng(12)
        m = _random_modes(rng, (5, self.SPACE.dim, 3))
        got = m.copy()
        if isinstance(element, ORIENTED_ELEMENTS):
            angles = rng.uniform(-math.pi, math.pi, size=5)
            _apply_element(element, got, _jones(element, angles))
            dense = [element_matrix(replace(element, angle=a), self.SPACE) for a in angles]
        else:
            _apply_element(element, got)
            dense = [element_matrix(element, self.SPACE)] * 5
        for b in range(5):
            assert np.max(np.abs(got[b] - dense[b] @ m[b])) < 1e-12


def test_ajwp_array_retardance_gives_one_jones_matrix_per_entry():
    deltas = np.array([0.0, 0.4, 2.5, 6.1])
    stack = _jones(AJWP(0, deltas))
    assert stack.shape == (4, 2, 2)
    for d, j in zip(deltas, stack):
        assert np.array_equal(j, _jones(AJWP(0, float(d))))
        assert np.max(np.abs(j - element_matrix(AJWP(0, float(d)), ModeSpace(1)))) < 1e-15


class TestTrains:
    def test_empty_train_is_identity(self):
        train = OpticalTrain(SP2, [])
        photon = source_photon(SP2, 1, "V")
        out = apply_train(train, photon)
        assert np.allclose(out.amplitudes, photon.amplitudes)

    def test_double_pbs_restores_association(self):
        train = OpticalTrain(SP2, [PBS(0, 1), PBS(0, 1)])
        assert np.max(np.abs(train.unitary() - np.eye(4))) < 1e-12

    def test_elementwise_application_equals_composite(self):
        rng = np.random.default_rng(42)
        train = build_cloner_train()
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        photon = PhotonState(train.space, amps)
        stepwise = apply_train(train, photon)
        direct = train.unitary() @ amps
        assert np.max(np.abs(stepwise.amplitudes - direct)) < 1e-12

    def test_composite_matches_dense_product(self):
        train = build_cloner_train(0.5, 2.5)
        dense = np.eye(16, dtype=complex)
        for e in train.elements:
            dense = element_matrix(e, train.space) @ dense
        assert np.max(np.abs(train.unitary() - dense)) < 1e-12

    def test_train_rejects_path_outside_space(self):
        with pytest.raises(ValueError, match="outside"):
            OpticalTrain(SP2, [BS(0, 2)])

    def test_lossless_composites_are_unitary(self):
        trains = [
            OpticalTrain(SP2, [HWP(0, 0.3), PBS(0, 1), BS(0, 1), QWP(1, 0.2)]),
            crot_polarization_controls_path(SP2, 0, 1, 1.234),
            build_cloner_train(0.5, 2.5),
        ]
        for train in trains:
            assert not train.has_loss
            u = train.unitary()
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10

    def test_mode_space_mismatch(self):
        train = OpticalTrain(SP2, [])
        photon = source_photon(ModeSpace(4), 0, "H")
        with pytest.raises(ValueError, match="lives on"):
            apply_train(train, photon)


class TestModeQubitMapping:
    def test_labels_per_path_count(self):
        assert mode_qubit_labels(2) == (1, 2)
        assert mode_qubit_labels(4) == (1, 2, 3)
        assert mode_qubit_labels(8)[0] == "aux"

    def test_path0_h_maps_to_all_zero(self):
        psi = modes_to_qubits(source_photon(ModeSpace(4), 0, "H"))
        assert psi.amplitudes[0b000] == 1.0

    def test_path1_v_maps_to_101(self):
        # path 1 = (q2, q3) = (0, 1); polarization V = qubit 1 set
        psi = modes_to_qubits(source_photon(ModeSpace(4), 1, "V"))
        assert psi.amplitudes[0b101] == 1.0

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(5)
        space = ModeSpace(8)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        photon = PhotonState(space, amps)
        back = qubits_to_modes(modes_to_qubits(photon), space)
        assert np.max(np.abs(back.amplitudes - photon.amplitudes)) < 1e-12

    def test_lossy_state_rejected(self):
        space = ModeSpace(2)
        train = OpticalTrain(space, [Polarizer(0, math.pi / 4)])
        out = apply_train(train, source_photon(space, 0, "H"))
        with pytest.raises(LossyTrainError, match="norm"):
            modes_to_qubits(out)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            modes_to_qubits(source_photon(ModeSpace(3), 0, "H"))


class TestControlledRotationFragments:
    def test_angle_zero_is_identity(self):
        frag = crot_polarization_controls_path(SP2, 0, 1, 0.0)
        assert np.max(np.abs(frag.unitary() - np.eye(4))) < 1e-10

    def test_angle_half_pi_is_cnot(self):
        frag = crot_polarization_controls_path(SP2, 0, 1, math.pi / 2)
        expect = circuit_unitary(Circuit((1, 2), [CNOT(1, 2)]))
        assert np.max(np.abs(two_qubit_unitary(frag) - expect)) < 1e-10

    def test_generic_angle_is_block_controlled_unitary(self):
        angle = 0.77
        frag = crot_polarization_controls_path(SP2, 0, 1, angle)
        u = two_qubit_unitary(frag)
        # H block untouched, V block is P+ + e^(2 i angle) P- in the path flip basis
        assert np.max(np.abs(u[:2, :2] - np.eye(2))) < 1e-10
        x = np.array([[0, 1], [1, 0]])
        expect = (np.eye(2) + x) / 2 + np.exp(2j * angle) * (np.eye(2) - x) / 2
        assert np.max(np.abs(u[2:, 2:] - expect)) < 1e-10

    def test_three_fragments_compose_to_swap(self):
        outer = crot_polarization_controls_path(SP2, 0, 1, math.pi / 2)
        middle = crot_path_controls_polarization(SP2, 1, math.pi / 2)
        composite = OpticalTrain(SP2, outer.elements + middle.elements + outer.elements)
        expect = circuit_unitary(Circuit((1, 2), [SWAP(1, 2)]))
        assert np.max(np.abs(two_qubit_unitary(composite) - expect)) < 1e-10


class TestClonerTrain:
    def test_unitary_equivalence_with_measurement_circuit(self):
        report = verify_equivalence(build_cloner_train(), build_measurement_circuit(), tol=1e-9)
        assert report.passed, str(report)

    def test_misaligned_waveplate_breaks_equivalence(self):
        from dataclasses import replace

        base = build_cloner_train()
        devs = []
        for offset_deg in (0.1, 0.5):
            elements = list(base.elements)
            for i, e in enumerate(elements):
                if isinstance(e, HWP):
                    elements[i] = replace(e, angle=e.angle + math.radians(offset_deg))
                    break
            bad = OpticalTrain(base.space, elements)
            report = verify_equivalence(bad, build_measurement_circuit(), tol=1e-9)
            assert not report.passed
            devs.append(report.max_deviation)
        assert devs[1] > devs[0] > 0

    def test_identity_train_matches_empty_circuit(self):
        report = verify_equivalence(
            OpticalTrain(ModeSpace(8), []),
            Circuit(mode_qubit_labels(8)),
            tol=1e-12,
        )
        assert report.max_deviation == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_equivalence(OpticalTrain(SP2, []), build_measurement_circuit())

    def test_photon_number_conserved(self):
        out = apply_train(build_cloner_train(0.4, 1.0), source_photon(ModeSpace(8), 0, "H"))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_distribution_matches_gate_tier(self):
        for theta, delta in ((0.0, 0.0), (0.8, 2.1)):
            optics = optical_measurement_state(theta, delta)
            gates = measurement_state(theta, delta)
            for basis in ("H", "V", "D", "R"):
                po = path_distribution(optics, basis)
                pg = path_distribution(gates, basis)
                assert np.max(np.abs(po - pg)) < 1e-10

    def test_isometry_path_matches_full_train(self):
        rng = np.random.default_rng(20)
        for _ in range(24):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            delta = rng.uniform(0.0, 2 * math.pi)
            column = build_cloner_train(theta, delta).unitary()[:, 0]
            state = optical_measurement_state(theta, delta)
            amps = qubits_to_modes(state, ModeSpace(8)).amplitudes
            assert np.max(np.abs(amps - column)) < 1e-12

    def test_batched_amplitudes_match_full_train(self):
        rng = np.random.default_rng(21)
        thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=24)
        deltas = rng.uniform(0.0, 2 * math.pi, size=24)
        modes = _bench_modes(thetas, deltas)
        rows = _bench_path_amplitudes(thetas, deltas)
        assert modes.shape == (24, 16) and rows.shape == (24, 8, 2)
        for theta, delta, m, r in zip(thetas, deltas, modes, rows):
            column = build_cloner_train(theta, delta).unitary()[:, 0]
            assert np.max(np.abs(m - column)) < 1e-12
            expect = per_path_amplitudes(optical_measurement_state(theta, delta))
            assert np.max(np.abs(r - expect)) < 1e-12

    def test_batched_lossy_photon_rejected(self):
        modes = _bench_modes(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 2.0]))
        modes[1] *= 0.99
        with pytest.raises(LossyTrainError, match="photon norm"):
            _unit_norms(modes)

    def test_optics_pipeline_reaches_optimal_fidelity(self):
        thetas = np.linspace(-math.pi / 2 + math.pi / 36, math.pi / 2, 7)
        for delta in (0.0, math.pi / 2):
            for theta in thetas:
                rho1, rho2 = replicas_from_state(optical_measurement_state(theta, delta))
                psi = input_state(theta, delta)
                for rho in (rho1, rho2):
                    f = fidelity(psi, DensityMatrix([1], rho.matrix))
                    assert f == pytest.approx(5 / 6, abs=1e-9)


class TestSerialization:
    def test_describe_format(self):
        train = OpticalTrain(SP2, [HWP(0, math.pi / 4), PBS(0, 1), PhaseShift(1, -0.5)])
        lines = train.describe().splitlines()
        assert lines[0] == "HWP 0 0.785398"
        assert lines[1] == "PBS 0 1"
        assert lines[2] == "PhaseShift 1 -0.500000"

    def test_golden_cloner_train(self):
        with open(GOLDEN, "r", encoding="ascii") as fh:
            golden = fh.read()
        assert build_cloner_train().describe() == golden
