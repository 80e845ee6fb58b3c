"""Optics tier: element conventions, mode/qubit mapping, compiled train."""

import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from uqcm import optics
from uqcm.gates import Circuit, Rotation
from uqcm.hilbert import IsometryError, fidelity, DensityMatrix, _qubit_stokes
from uqcm.network import _input_amplitudes, build_measurement_circuit
from uqcm.optics import (
    AJWP,
    BENCH_REGISTER,
    BS,
    HWP,
    MODE_QUBIT_INDEX,
    N_BENCH_PATHS,
    PBS,
    LossyTrainError,
    OpticalTrain,
    PhaseShift,
    build_cloner_train,
    element_matrix,
    modes_to_qubits,
    optical_measurement_state,
    verify_equivalence,
    _apply_element,
    _bench_modes,
    _bench_path_amplitudes,
    _coefficient_dev,
    _coefficients,
    _hwp_dev,
    _cloner_train_elements,
    _propagate,
    _unit_norms,
)
from uqcm.tomography import (
    _click_probabilities,
    _path_rows,
    _replica_stokes,
    signal_probabilities,
)

from reference import input_state, measurement_state, misaligned_cloner_train, replicas_from_state

DIM = 2 * N_BENCH_PATHS
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cloner_train.txt")


def _mode(path, pol):
    """Amplitude index of the (path, polarization) mode, pol "H" or "V"."""
    return 2 * path + "HV".index(pol)


def _photon(path, pol):
    """Amplitudes of a photon definitely in one (path, polarization) mode."""
    return np.eye(DIM)[_mode(path, pol)]


class TestElements:
    def test_hwp_at_45_deg_flips_polarization(self):
        u = element_matrix(HWP(0, math.pi / 4))
        out = u @ _photon(0, "H")
        assert out[_mode(0, "V")] == pytest.approx(1.0)

    def test_hwp_at_22_5_deg_makes_diagonal(self):
        u = element_matrix(HWP(0, math.pi / 8))
        out = u @ _photon(0, "H")
        assert out[_mode(0, "H")] == pytest.approx(1 / math.sqrt(2))
        assert out[_mode(0, "V")] == pytest.approx(1 / math.sqrt(2))

    def test_bs_splits_50_50(self):
        u = element_matrix(BS(0, 1))
        out = u @ _photon(0, "H")
        probs = np.abs(out) ** 2
        assert probs[_mode(0, "H")] == pytest.approx(0.5)
        assert probs[_mode(1, "H")] == pytest.approx(0.5)

    def test_pbs_transmits_h_reflects_v(self):
        u = element_matrix(PBS(0, 1))
        assert (u @ _photon(0, "H"))[_mode(0, "H")] == 1.0
        assert (u @ _photon(0, "V"))[_mode(1, "V")] == 1.0

    def test_all_non_polarizer_elements_are_unitary(self):
        els = [
            HWP(0, 0.3),
            AJWP(0, 2.2),
            PBS(0, 1),
            BS(0, 1),
            PhaseShift(1, -0.4),
        ]
        for e in els:
            u = element_matrix(e)
            assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-12

    def test_invalid_path_reference(self):
        with pytest.raises(ValueError, match="outside"):
            element_matrix(HWP(8, 0.0))
        with pytest.raises(ValueError, match="outside"):
            element_matrix(BS(-1, 2))


# One element of every kind, mostly off path 0 so row offsets matter.
ALL_KINDS = (
    HWP(1, 0.3),
    AJWP(3, 2.2),
    PBS(0, 3),
    BS(3, 1),
    PhaseShift(1, -0.4),
)


def _random_modes(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestRowUpdateKernel:
    """The in-place row update equals the dense element matrix product."""

    @pytest.mark.parametrize("element", ALL_KINDS, ids=lambda e: type(e).__name__)
    def test_unbatched_matches_dense(self, element):
        rng = np.random.default_rng(11)
        m = _random_modes(rng, (DIM, 3))
        got = m.copy()
        _apply_element(element, got)
        assert np.max(np.abs(got - element_matrix(element) @ m)) < 1e-12

    @pytest.mark.parametrize("element", ALL_KINDS, ids=lambda e: type(e).__name__)
    def test_batched_matches_dense(self, element):
        # Batch axis last: entry b of `got` (5, dim, 3) is updated through
        # the (dim, 3, 5) view, with its own axis angle.
        rng = np.random.default_rng(12)
        m = _random_modes(rng, (5, DIM, 3))
        got = m.copy()
        if isinstance(element, HWP):
            angles = rng.uniform(-math.pi, math.pi, size=5)
            _apply_element(element, np.moveaxis(got, 0, -1), angles)
            dense = [element_matrix(replace(element, angle=a)) for a in angles]
        else:
            _apply_element(element, np.moveaxis(got, 0, -1))
            dense = [element_matrix(element)] * 5
        for b in range(5):
            assert np.max(np.abs(got[b] - dense[b] @ m[b])) < 1e-12


class TestJitteredPropagation:
    """`_propagate` with per-entry axis offsets: every copy equals the dense
    product of its own element matrices, and each element is checked."""

    B = 6

    def _train(self, rng):
        retardance = rng.uniform(0.0, 2 * math.pi, size=self.B)
        return [
            HWP(0, 0.4), AJWP(1, retardance), BS(0, 2), HWP(2, -1.1), PBS(3, 0),
            PhaseShift(2, 0.9), HWP(3, 2.0), BS(1, 3), PBS(1, 2), AJWP(0, 0.7), HWP(1, 0.05),
        ]

    def test_matches_dense_products(self):
        rng = np.random.default_rng(21)
        elements = self._train(rng)
        n_hwp = sum(isinstance(e, HWP) for e in elements)
        offsets = rng.uniform(-0.3, 0.3, size=(self.B, n_hwp))
        m = _random_modes(rng, (self.B, DIM, 2))
        got = _propagate(elements, m.copy(), offsets)
        for b in range(self.B):
            dense, j = np.eye(DIM), 0
            for e in elements:
                if isinstance(e, HWP):
                    e, j = replace(e, angle=e.angle + offsets[b, j]), j + 1
                elif isinstance(e, AJWP) and np.ndim(e.retardance):
                    e = replace(e, retardance=float(e.retardance[b]))
                dense = element_matrix(e) @ dense
            assert np.max(np.abs(got[b] - dense @ m[b])) < 1e-12

    def test_scaled_phase_shift_raises_naming_the_element(self, scale_coefficients):
        rng = np.random.default_rng(22)
        elements = self._train(rng)
        elements.insert(4, PhaseShift(2, 0.3))
        scale_coefficients(elements[4], 1.0 + 1e-8)
        m = _random_modes(rng, (self.B, DIM, 1))
        with pytest.raises(IsometryError, match=re.escape("Jones matrix of element 4 (PhaseShift on path 2)")):
            _propagate(elements, m, np.zeros((self.B, 4)))

    def test_nan_offset_fails_the_waveplate_check(self):
        rng = np.random.default_rng(23)
        elements = self._train(rng)
        offsets = np.zeros((self.B, 4))
        offsets[2, 1] = np.nan  # oriented element 1 is element 3, HWP(2, -1.1)
        m = _random_modes(rng, (self.B, DIM, 1))
        with pytest.raises(IsometryError, match=re.escape("Jones matrix of element 3 (HWP on path 2)")):
            _propagate(elements, m, offsets)

    @pytest.mark.parametrize("offset", [math.inf, -math.inf])
    def test_infinite_offset_fails_the_waveplate_check(self, offset):
        # cos and sin of an infinite angle are NaN (numpy's warning silenced
        # here), so the same element fails as with a NaN offset.
        rng = np.random.default_rng(23)
        elements = self._train(rng)
        offsets = np.zeros((self.B, 4))
        offsets[2, 1] = offset
        m = _random_modes(rng, (self.B, DIM, 1))
        with np.errstate(invalid="ignore"):
            with pytest.raises(IsometryError, match=re.escape("Jones matrix of element 3 (HWP on path 2)")):
                _propagate(elements, m, offsets)

    def test_unbatched_call_is_unchecked(self, scale_coefficients):
        # Without offsets the caller checks the composite (OpticalTrain),
        # so a scaled element propagates and the composite is not unitary.
        shift = PhaseShift(0, 0.3)
        scale_coefficients(shift, 0.9)
        m = np.eye(DIM, dtype=complex)
        out = _propagate([HWP(0, 0.2), shift], m)
        dense = element_matrix(shift) @ element_matrix(HWP(0, 0.2))
        assert out is m
        assert np.max(np.abs(out - dense)) < 1e-15
        assert np.max(np.abs(out.conj().T @ out - np.eye(DIM))) > 0.1
        with pytest.raises(IsometryError, match="lossless train composite is not an isometry"):
            OpticalTrain([HWP(0, 0.2), shift])


class TestDarkRows:
    """`_propagate` does no arithmetic on the rows the light has not reached:
    the bench carries one photon, which enters on the source path alone.
    Skipping them can change only the sign of an exact zero, which |amp|^2
    erases."""

    B = 9

    @staticmethod
    def _elements():
        return list(_cloner_train_elements(0.4, 1.1))

    def _source(self, batch=()):
        m = np.zeros(batch + (DIM, 1), dtype=complex)
        m[..., 0, 0] = 1.0
        return m

    def test_source_column_matches_the_dense_product(self):
        elements = self._elements()
        dense = np.eye(DIM)
        for e in elements:
            dense = element_matrix(e) @ dense
        got = _propagate(elements, self._source())[:, 0]
        assert np.max(np.abs(np.abs(got) ** 2 - np.abs(dense[:, 0]) ** 2)) < 1e-12

    def test_jittered_source_columns_equal_lit_identities_bit_for_bit(self):
        # The identity lights every row, so each element does its arithmetic;
        # its column 0 is the source column, entry by entry the same updates.
        elements = self._elements()
        offsets = np.random.default_rng(41).uniform(-0.05, 0.05, size=(self.B, 64))
        source = _propagate(elements, self._source((self.B,)), offsets)[..., 0]
        lit = _propagate(elements, np.repeat(np.eye(DIM, dtype=complex)[None], self.B, axis=0), offsets)
        assert (np.abs(source) ** 2).tobytes() == (np.abs(lit[..., 0]) ** 2).tobytes()

    def test_dark_pairs_are_not_mixed(self, monkeypatch):
        # From the source column 58 row pairs are mixed (65 of the 129
        # elements act on dark rows only); from the identity, every pair.
        mixed = []
        mix_rows = optics._mix_rows

        def spy(rows, i, j, *coeffs):
            mixed.append((i, j))
            mix_rows(rows, i, j, *coeffs)

        monkeypatch.setattr(optics, "_mix_rows", spy)
        elements = self._elements()
        n_pairs = sum(2 if isinstance(e, BS) else 0 if isinstance(e, PBS) else 1 for e in elements)
        _propagate(elements, np.eye(DIM, dtype=complex))
        assert len(mixed) == n_pairs
        mixed.clear()
        _propagate(elements, self._source())
        assert len(mixed) == 58 < n_pairs

    def test_nan_offset_on_a_dark_plate_fails_naming_it(self):
        # Element 8, HWP(3, pi/4), is the first plate after the input swap on
        # a path the photon has not reached: its rows are exactly zero.
        elements = self._elements()
        k = 8
        assert elements[k] == HWP(3, math.pi / 4)
        before = _propagate(elements[:k], self._source())[:, 0]
        assert not np.any(before[[6, 7]])
        j = sum(isinstance(e, HWP) for e in elements[:k])
        offsets = np.zeros((self.B, 64))
        offsets[4, j] = np.nan
        with pytest.raises(IsometryError, match=re.escape(f"Jones matrix of element {k} (HWP on path 3)")):
            _propagate(elements, self._source((self.B,)), offsets)


def test_ajwp_array_retardance_gives_one_jones_matrix_per_entry():
    deltas = np.array([0.0, 0.4, 2.5, 6.1])
    a, b, c, d = _coefficients(AJWP(0, deltas))
    assert np.shape(d) == (4,)
    for delta, entry in zip(deltas, d):
        assert entry == _coefficients(AJWP(0, float(delta)))[3]
        jones = np.array([[a, b], [c, entry]])
        assert np.max(np.abs(jones - element_matrix(AJWP(0, float(delta)))[:2, :2])) < 1e-15


def _random_element(kind, rng, size=None):
    """One element of `kind` on path 1 (a BS on paths 0 and 1) with a random
    parameter; `size` makes it an array, one Jones matrix per entry."""
    value = rng.uniform(-2 * math.pi, 2 * math.pi, size=size)
    if kind is BS:
        return BS(0, 1)
    return kind(1, value)


def _blocks(element):
    """The element's 2 x 2 blocks of `element_matrix`, one per row pair."""
    mat = element_matrix(element)
    if isinstance(element, BS):
        pairs = [(_mode(0, pol), _mode(1, pol)) for pol in ("H", "V")]
    else:
        pairs = [(_mode(element.path, "H"), _mode(element.path, "V"))]
    return [mat[np.ix_(idx, idx)] for idx in pairs]


class TestCoefficientCheck:
    """One closed form checks every kind: max(| |a|^2 + |c|^2 - 1 |,
    | |b|^2 + |d|^2 - 1 |) is max |J^H J - I|, because conj(a) b + conj(c) d
    is identically 0."""

    KINDS = (HWP, AJWP, PhaseShift, BS)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_columns_are_orthogonal_exactly(self, kind):
        rng = np.random.default_rng(31)
        for size in (None, 7):
            a, b, c, d = _coefficients(_random_element(kind, rng, size))
            assert np.all(np.conj(a) * b + np.conj(c) * d == 0)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-8, 0.9, 1.2 - 0.3j])
    def test_closed_form_equals_gram_deviation(self, kind, factor):
        # Scaling J by a factor keeps its columns orthogonal and moves
        # J^H J to |factor|^2 J^H J, so the closed form must follow.
        rng = np.random.default_rng(32)
        for _ in range(10):
            element = _random_element(kind, rng)
            coeffs = [factor * x for x in _coefficients(element)]
            gram = max(
                np.max(np.abs((factor * j).conj().T @ (factor * j) - np.eye(2))) for j in _blocks(element)
            )
            assert _coefficient_dev(*coeffs) == pytest.approx(gram, rel=1e-9, abs=1e-15)

    def test_array_coefficients_take_the_worst_entry(self):
        rng = np.random.default_rng(33)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        factors = np.ones(6)
        factors[4] = 1.0 + 3e-6
        coeffs = [factors * x for x in _coefficients(HWP(0, angles))]
        assert _coefficient_dev(*coeffs) == pytest.approx((1.0 + 3e-6) ** 2 - 1.0, rel=1e-9)

    def test_hwp_form_equals_the_two_column_form_bit_for_bit(self):
        # Scalar and array angles, exact and scaled coefficients, and NaN and
        # infinite angles (numpy's warning silenced), which must stay NaN.
        rng = np.random.default_rng(34)
        angles = np.concatenate((
            rng.uniform(-10.0, 10.0, 2000), np.arange(-16, 17) * math.pi / 8,
            [-0.0, 1e300, math.nan, -math.nan, math.inf, -math.inf],
        ))
        with np.errstate(invalid="ignore"):
            for factor in (1.0, 1.0 + 1e-8, 0.9):
                for angle in [*angles, angles, angles[:-4]]:
                    coeffs = [factor * x for x in _coefficients(HWP(0, 0.0), angle)]
                    got, want = _hwp_dev(*coeffs[:2]), _coefficient_dev(*coeffs)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    assert math.isnan(got) == (not np.isfinite(angle).all())

    @pytest.mark.parametrize("where", [0, 3])
    def test_either_column_can_fail(self, where):
        # J is diagonal, so scaling one entry keeps its columns orthogonal.
        coeffs = list(_coefficients(PhaseShift(0, 0.4)))
        coeffs[where] *= 1.0 + 1e-6
        jones = np.array(coeffs).reshape(2, 2)
        gram = np.max(np.abs(jones.conj().T @ jones - np.eye(2)))
        assert _coefficient_dev(*coeffs) == pytest.approx(gram, rel=1e-9)

    @pytest.mark.parametrize("where", [0, 1, 2, 3])
    def test_nan_coefficient_fails(self, where):
        coeffs = list(_coefficients(PhaseShift(0, 0.4)))
        coeffs[where] = complex(np.nan, 0.0)
        assert math.isnan(_coefficient_dev(*coeffs))


class TestTrains:
    def test_train_acts_on_the_bench_modes(self):
        train = OpticalTrain([HWP(1, 0.3)])
        assert train.unitary().shape == (16, 16)
        assert not hasattr(train, "n_paths")
        assert repr(build_cloner_train()) == "OpticalTrain(n_elements=129)"

    def test_empty_train_is_identity(self):
        assert np.array_equal(OpticalTrain([]).unitary(), np.eye(16))

    def test_double_pbs_restores_association(self):
        train = OpticalTrain([PBS(0, 1), PBS(0, 1)])
        assert np.max(np.abs(train.unitary() - np.eye(16))) < 1e-12

    def test_elementwise_application_equals_composite(self):
        rng = np.random.default_rng(42)
        train = build_cloner_train()
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        stepwise = _propagate(train.elements, amps.reshape(-1, 1).copy())[:, 0]
        direct = train.unitary() @ amps
        assert np.max(np.abs(stepwise - direct)) < 1e-12

    def test_composite_matches_dense_product(self):
        train = build_cloner_train(0.5, 2.5)
        dense = np.eye(16, dtype=complex)
        for e in train.elements:
            dense = element_matrix(e) @ dense
        assert np.max(np.abs(train.unitary() - dense)) < 1e-12

    def test_train_rejects_path_outside_space(self):
        with pytest.raises(ValueError, match="outside"):
            OpticalTrain([BS(0, 8)])

    def test_lossless_composites_are_unitary(self):
        trains = [
            OpticalTrain([HWP(0, 0.3), PBS(0, 1), BS(0, 1)]),
            build_cloner_train(0.5, 2.5),
        ]
        for train in trains:
            u = train.unitary()
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


class TestModeQubitMapping:
    def test_path0_h_maps_to_all_zero(self):
        psi = modes_to_qubits(_photon(0, "H"))
        assert psi.labels == BENCH_REGISTER == ("aux", 1, 2, 3)
        assert psi.amplitudes[0b0000] == 1.0

    def test_path1_v_maps_to_101(self):
        # path 1 = (probe, q2, q3) = (0, 0, 1); polarization V = qubit 1 set
        psi = modes_to_qubits(_photon(1, "V"))
        assert psi.amplitudes[0b0101] == 1.0

    def test_layout_is_probe_pol_q2_q3(self):
        # path 6 = (probe, q2, q3) = (1, 1, 0) holds basis states 0b1010 (H) and 0b1110 (V)
        assert MODE_QUBIT_INDEX.tolist() == [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15]
        assert not MODE_QUBIT_INDEX.flags.writeable

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        back = modes_to_qubits(amps).amplitudes[MODE_QUBIT_INDEX]
        assert np.max(np.abs(back - amps)) < 1e-12

    def test_norm_within_tolerance_is_renormalized(self):
        # path 3 = (0, 1, 1), V: basis index 0b0111
        psi = modes_to_qubits((1.0 + 5e-10) * _photon(3, "V"))
        assert psi.amplitudes[0b0111] == 1.0

    def test_lossy_state_rejected(self):
        with pytest.raises(LossyTrainError, match="norm"):
            modes_to_qubits(0.9 * _photon(0, "H"))

    # Any shape but the bench's (16,), the 2-, 4- and 8-mode vectors of
    # smaller path counts included.
    @pytest.mark.parametrize("shape", [(), (0,), (1,), (3,), (5,), (32,), (1, 16), (2, 2), (2,), (4,), (6,), (8,)])
    def test_malformed_vector_rejected(self, shape):
        # Checked before the norm and the relabeling: another length would
        # otherwise fail there with an IndexError.
        amps = np.zeros(shape, dtype=complex)
        amps.flat[:1] = 1.0
        with pytest.raises(ValueError, match=re.escape(f"expected 16 mode amplitudes, got shape {shape}")):
            modes_to_qubits(amps)


class TestClonerTrain:
    def test_unitary_equivalence_with_measurement_circuit(self):
        dev = verify_equivalence(build_cloner_train(), build_measurement_circuit())
        assert type(dev) is float and dev <= 1e-9

    def test_misaligned_waveplate_breaks_equivalence(self):
        # EQUIVALENCE_TOL parts the aligned bench from a plate turned by 0.1 degree.
        devs = [verify_equivalence(misaligned_cloner_train(deg), build_measurement_circuit()) for deg in (0.1, 0.5)]
        assert devs[1] > devs[0] > 1e-3 > optics.EQUIVALENCE_TOL

    def test_identity_train_matches_empty_circuit(self):
        dev = verify_equivalence(OpticalTrain([]), Circuit(BENCH_REGISTER))
        assert dev == pytest.approx(0.0, abs=1e-15)

    def test_deviation_removes_the_global_phase(self):
        # Against the empty circuit: a phase plate on every path is a global
        # phase, which is free; one on path 3 alone is a relative phase.
        phase = [PhaseShift(p, 0.7) for p in range(N_BENCH_PATHS)]
        assert verify_equivalence(OpticalTrain(phase), Circuit(BENCH_REGISTER)) == pytest.approx(0.0, abs=1e-15)
        dev = verify_equivalence(OpticalTrain([PhaseShift(3, 0.7)]), Circuit(BENCH_REGISTER))
        assert dev > 0.1
        # A rotation of q3 by pi/2 has a diagonal of rounding errors: only
        # the whole trace tr(U_circuit^H U_train) finds the phase.
        turn = [e for pair in ((0, 1), (2, 3), (4, 5), (6, 7)) for e in optics._path_rotation(pair, math.pi / 2)]
        dev = verify_equivalence(OpticalTrain(turn + phase), Circuit(BENCH_REGISTER, [Rotation(3, math.pi / 2)]))
        assert dev < 1e-15

    def test_dimension_mismatch_rejected(self):
        message = "dimension mismatch: train carries qubits ('aux', 1, 2, 3), circuit register is (1, 2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_equivalence(OpticalTrain([]), Circuit((1, 2, 3)))

    def test_photon_number_conserved(self):
        train = build_cloner_train(0.4, 1.0)
        out = _propagate(train.elements, _photon(0, "H").reshape(-1, 1).astype(complex))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_distribution_matches_gate_tier(self):
        for theta, delta in ((0.0, 0.0), (0.8, 2.1)):
            optics = optical_measurement_state(theta, delta)
            gates = measurement_state(theta, delta)
            assert np.max(np.abs(signal_probabilities(optics) - signal_probabilities(gates))) < 1e-10

    def test_isometry_path_matches_full_train(self):
        rng = np.random.default_rng(20)
        for _ in range(24):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            delta = rng.uniform(0.0, 2 * math.pi)
            column = build_cloner_train(theta, delta).unitary()[:, 0]
            state = optical_measurement_state(theta, delta)
            amps = state.amplitudes[MODE_QUBIT_INDEX]
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
            expect = _path_rows(optical_measurement_state(theta, delta).amplitudes)
            assert np.max(np.abs(r - expect)) < 1e-12

    def test_batched_rows_are_renormalized(self, monkeypatch):
        # A photon within NORM_TOL of unit norm reaches the detectors at norm 1.
        iso = optics._body_isometry()
        monkeypatch.setattr(optics, "_body_isometry", lambda: iso * (1.0 + 5e-10))
        rows = _bench_path_amplitudes(np.array([0.1, 0.2]), np.array([0.0, 1.0]))
        assert np.max(np.abs(np.linalg.norm(rows.reshape(2, 16), axis=-1) - 1.0)) < 1e-15

    def test_batched_lossy_photon_rejected(self):
        modes = _bench_modes(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 2.0]))
        modes[1] *= 0.99
        with pytest.raises(LossyTrainError, match="photon norm"):
            _unit_norms(modes)

    def test_nan_photon_rejected(self):
        # NaN is not "within tolerance": the norm checks compare as
        # `not dev <= tol`, and raise before numpy can warn.
        with pytest.raises(LossyTrainError, match="photon norm nan is not 1 within 1e-09"):
            modes_to_qubits(np.nan * _photon(0, "H"))
        modes = _bench_modes(np.array([0.1, 0.2]), np.array([0.0, 1.0]))
        modes[1, 3] = np.nan
        with pytest.raises(LossyTrainError, match="photon norm nan"):
            _unit_norms(modes)

    @pytest.mark.parametrize(("theta", "delta"), [(3.0, 0.5), (0.3, 9.0), (-math.pi / 2, 0.0), (0.3, -0.1)])
    def test_entry_points_reject_angles_out_of_range(self, theta, delta):
        # The same domain check as the gate tier's `clone`.
        for entry in (optical_measurement_state, build_cloner_train):
            with pytest.raises(ValueError, match="theta value|delta value"):
                entry(theta, delta)

    def test_replica_maps_are_affine_with_trace_four(self):
        # Each replica's Stokes vector is affine in the input's Bloch vector
        # n, S = T n + t. Fitted at Bloch +z, -z, +x and +y, the optics tier's
        # maps are T = (2/3) I and t = 0: tr T1 + tr T2 = 4, and each
        # replica's sphere-average fidelity 1/2 + tr T / 6 is 5/6.
        def stokes(theta, delta):
            return _replica_stokes(_click_probabilities(_bench_path_amplitudes(theta, delta)))

        plus_z, minus_z, plus_x, plus_y = stokes(
            np.array([0.0, math.pi / 2, math.pi / 4, math.pi / 4]), np.array([0.0, 0.0, 0.0, math.pi / 2]))
        t = (plus_z + minus_z) / 2
        # (replica, 3, 3), columns the images of x, y and z.
        T = np.stack([plus_x - t, plus_y - t, (plus_z - minus_z) / 2], axis=-1)
        assert np.max(np.abs(T - (2 / 3) * np.eye(3))) <= 1e-12
        assert np.max(np.abs(t)) <= 1e-12
        traces = np.trace(T, axis1=-2, axis2=-1)
        assert abs(traces.sum() - 4.0) <= 1e-12
        assert np.max(np.abs(0.5 + traces / 6 - 5 / 6)) <= 1e-12
        rng = np.random.default_rng(55)
        thetas, deltas = rng.uniform(-math.pi / 2, math.pi / 2, 50), rng.uniform(0.0, 2 * math.pi, 50)
        bloch = _qubit_stokes(_input_amplitudes(thetas, deltas))
        predicted = np.einsum("rij,kj->kri", T, bloch) + t
        assert np.max(np.abs(stokes(thetas, deltas) - predicted)) <= 1e-12

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
        train = OpticalTrain([HWP(0, math.pi / 4), PBS(0, 1), PhaseShift(1, -0.5)])
        lines = train.describe().splitlines()
        assert lines[0] == "HWP 0 0.785398"
        assert lines[1] == "PBS 0 1"
        assert lines[2] == "PhaseShift 1 -0.500000"

    def test_golden_cloner_train(self):
        with open(GOLDEN, "r", encoding="ascii") as fh:
            golden = fh.read()
        assert build_cloner_train().describe() == golden
