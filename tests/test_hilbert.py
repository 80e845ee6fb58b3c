"""Core linear-algebra layer: labeled states, partial trace, fidelity, Stokes."""

import math

import numpy as np
import pytest

from uqcm.hilbert import (
    AUX,
    DensityMatrix,
    IsometryError,
    LabelError,
    PSD_FLOOR,
    PureState,
    fidelity,
    partial_trace,
    stokes_compose,
    stokes_decompose,
    _phase_deviation,
    _require_isometry,
    _require_isometry_dev,
    _require_physical_stokes,
)

from reference import random_pure_state, tensor_product


class TestPureState:
    def test_basis_ordering_smallest_label_most_significant(self):
        # |q1=1, q2=0> must sit at index 2 (q1 is the most significant bit).
        s = PureState((1, 2), [0, 0, 1, 0])
        assert s.amplitudes[0b10] == 1.0

    def test_aux_is_most_significant(self):
        # In (aux, 1) order, index 0b01 means aux = 0, q1 = 1.
        s = PureState((AUX, 1), [0, 1, 0, 0])
        assert s.labels == (AUX, 1)
        assert partial_trace(s, [1]).matrix[1, 1] == 1.0
        assert partial_trace(s, [AUX]).matrix[0, 0] == 1.0

    @pytest.mark.parametrize("labels", [(2, 1), (1, AUX), (0, AUX), (3, 1, 2)])
    def test_labels_out_of_basis_order_rejected(self, labels):
        # No constructor permutes amplitudes: a register is given in basis order.
        with pytest.raises(LabelError, match=r"not in basis order .*: aux first, then qubits ascending"):
            PureState(labels, np.eye(2 ** len(labels))[0])
        with pytest.raises(LabelError, match="not in basis order"):
            DensityMatrix(labels, np.diag(np.eye(2 ** len(labels))[0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1], [1.0, 1.0])

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="not normalized: sum \\|a\\|\\^2 = nan"):
            PureState([1], [math.nan, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="has length 2, expected 8$"):
            PureState([1, 2, 3], [1.0, 0.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LabelError):
            PureState((1, 1), [1, 0, 0, 0])

    def test_rejects_a_label_that_is_neither_aux_nor_an_integer(self):
        with pytest.raises(LabelError, match=r"^invalid qubit label: 'x'$"):
            PureState((1, "x"), np.eye(4)[0])

    def test_amplitudes_are_immutable(self):
        s = PureState([1], [1, 0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_accepts_pure_projector(self):
        rho = PureState([1], [1, 0]).density()
        assert rho.matrix[0, 0] == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([1], [[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([1], [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix([1], [[1.5, 0.0], [0.0, -0.5]])

    def test_tolerances_are_inclusive(self):
        # A deviation of exactly ATOL from Hermitian or from trace one, and
        # an eigenvalue of exactly PSD_FLOOR, still pass.
        DensityMatrix([1], [[0.5, 1e-12], [0.0, 0.5]])
        DensityMatrix([1], np.eye(2) * (0.5 + 0.5e-12j))
        DensityMatrix([1], np.diag([1.0 + 1e-10, -1e-10]))

    def test_rejects_a_matrix_of_another_register_size(self):
        with pytest.raises(ValueError, match=r"^matrix has shape \(4, 4\), expected \(2, 2\)$"):
            DensityMatrix([1], np.eye(4) / 4)

    def test_rejects_nan_matrix(self):
        # Rejected before eigvalsh, which would otherwise see the NaN.
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([1], np.full((2, 2), np.nan))


class TestTensorProduct:
    def test_basis_case(self):
        out = tensor_product(PureState([1], [1, 0]), PureState([2], [1, 0]))
        assert out.labels == (1, 2)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_input_times_blank_register(self):
        alpha, beta = 0.6, 0.8
        psi = PureState([1], [alpha, beta])
        blank = PureState((2, 3), [1, 0, 0, 0])
        out = tensor_product(psi, blank)
        assert np.allclose(out.amplitudes, [alpha, 0, 0, 0, beta, 0, 0, 0])

    def test_norm_preserved_for_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_pure_state([1, 2], rng)
            b = random_pure_state([3], rng)
            out = tensor_product(a, b)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_labels_rejected(self):
        with pytest.raises(LabelError, match="overlapping"):
            tensor_product(PureState([1], [1, 0]), PureState([1], [1, 0]))


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        bell = PureState((1, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        red = partial_trace(bell, [1])
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_machine_output_reduces_to_shrunk_input(self):
        # Hand partial trace of the cloner image of |0>:
        # sqrt(2/3)|000> + sqrt(1/6)(|101> + |011>)  ->  diag(5/6, 1/6) on qubit 1.
        amps = np.zeros(8)
        amps[0b000] = math.sqrt(2 / 3)
        amps[0b101] = math.sqrt(1 / 6)
        amps[0b011] = math.sqrt(1 / 6)
        out = PureState((1, 2, 3), amps)
        red = partial_trace(out, [1])
        assert np.allclose(red.matrix, np.diag([5 / 6, 1 / 6]), atol=1e-12)

    def test_keeping_everything_is_identity(self):
        rng = np.random.default_rng(3)
        rho = random_pure_state((1, 2), rng).density()
        red = partial_trace(rho, (1, 2))
        assert np.allclose(red.matrix, rho.matrix, atol=1e-15)

    def test_reduced_matrix_is_physical(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = random_pure_state((1, 2, 3), rng)
            red = partial_trace(rho, [2])
            m = red.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-10

    def test_three_of_four_qubits_kept_or_traced(self):
        # |0>_aux |psi>_123: keeping (1, 2, 3) gives psi's projector, and
        # keeping qubit 2 alone traces three qubits out.
        psi = random_pure_state((1, 2, 3), np.random.default_rng(29))
        joint = tensor_product(PureState([AUX], [1, 0]), psi)
        assert np.max(np.abs(partial_trace(joint, (1, 2, 3)).matrix - psi.density().matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, [2]).matrix - partial_trace(psi, [2]).matrix)) < 1e-12

    def test_numpy_integer_is_one_label(self):
        # As an int is: canonical_labels accepts numpy integer labels.
        psi = random_pure_state((1, 2, 3), np.random.default_rng(23))
        for keep in (np.int64(2), np.int32(2), np.uint8(2)):
            red = partial_trace(psi, keep)
            assert red.labels == (2,)
            assert np.array_equal(red.matrix, partial_trace(psi, 2).matrix)

    def test_empty_or_unknown_labels_rejected(self):
        rho = PureState((1, 2), [1, 0, 0, 0]).density()
        with pytest.raises(LabelError):
            partial_trace(rho, [])
        with pytest.raises(LabelError):
            partial_trace(rho, [7])


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(5)
        psi = random_pure_state([1], rng)
        assert fidelity(psi, psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_against_shrunk_matrix(self):
        rho = DensityMatrix([1], np.diag([5 / 6, 1 / 6]))
        assert fidelity(PureState([1], [1, 0]), rho) == pytest.approx(5 / 6, abs=1e-12)

    def test_maximally_mixed_gives_half(self):
        rho = DensityMatrix([1], np.eye(2) / 2)
        assert fidelity(PureState([1], [1, 0]), rho) == pytest.approx(0.5, abs=1e-12)

    def test_range_and_pure_state_equality(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = random_pure_state([1], rng)
            phi = random_pure_state([1], rng)
            f = fidelity(psi, phi.density())
            assert -1e-12 <= f <= 1 + 1e-12
        # F = 1 iff the matrix is the projector onto psi
        psi = random_pure_state([1], np.random.default_rng(9))
        assert fidelity(psi, psi.density()) > 1 - 1e-10

    def test_nonreal_overlap_rejected(self):
        # Off-diagonals i 5e-13 (J - I) keep the matrix Hermitian within
        # ATOL, yet 240 of them add up to an imaginary overlap of 7.5e-12.
        labels = (AUX, 1, 2, 3)
        rho = DensityMatrix(labels, np.eye(16) / 16 + 5e-13j * (np.ones((16, 16)) - np.eye(16)))
        with pytest.raises(ValueError, match=r"^fidelity has a nonreal value: \(0\.0625\+7\.\d*e-12j\)$"):
            fidelity(PureState(labels, np.full(16, 0.25)), rho)

    def test_dimension_mismatch_rejected(self):
        psi = PureState([1], [1, 0])
        rho = PureState((1, 2), [1, 0, 0, 0]).density()
        with pytest.raises(LabelError):
            fidelity(psi, rho)


class TestStokes:
    def test_maximally_mixed(self):
        assert stokes_decompose(DensityMatrix([1], np.eye(2) / 2)) == pytest.approx((0, 0, 0))

    def test_ground_state(self):
        rho = PureState([1], [1, 0]).density()
        assert stokes_decompose(rho) == pytest.approx((0, 0, 1))

    def test_shrunk_matrix(self):
        rho = DensityMatrix([1], np.diag([5 / 6, 1 / 6]))
        assert stokes_decompose(rho) == pytest.approx((0, 0, 2 / 3))

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(s)
            rho = stokes_compose(*s)
            back = stokes_compose(*stokes_decompose(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12

    def test_multi_qubit_rejected(self):
        rho = PureState((1, 2), [1, 0, 0, 0]).density()
        with pytest.raises(ValueError, match="single-qubit"):
            stokes_decompose(rho)


class TestInvariantChecks:
    """The checks compare as `not dev <= tol`, so NaN fails them."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4, 2)])
    def test_all_nan_matrix_is_not_an_isometry(self, shape):
        with pytest.raises(IsometryError, match="nan is not an isometry"):
            _require_isometry(np.full(shape, np.nan), "nan")

    def test_one_nan_entry_in_a_stack_is_not_an_isometry(self):
        stack = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        stack[3, 1, 0] = complex(np.nan, 0.0)
        with pytest.raises(IsometryError):
            _require_isometry(stack, "stack")

    @pytest.mark.parametrize("dev", [math.nan, math.inf, 2e-10])
    def test_deviation_check_rejects_nan_inf_and_excess(self, dev):
        with pytest.raises(IsometryError, match="plate is not an isometry"):
            _require_isometry_dev(dev, "plate")
        _require_isometry_dev(1e-10, "plate")

    @pytest.mark.parametrize(
        "stokes",
        [np.full(3, np.nan), [[0.0, 0.0, 0.5], [0.1, np.nan, 0.0]], [[0.0, 0.0, 0.5], [0.1, np.inf, 0.0]]],
        ids=["all-nan", "one-nan", "one-inf"],
    )
    def test_non_finite_stokes_vector_is_rejected(self, stokes):
        with pytest.raises(ValueError, match="positivity floor"):
            _require_physical_stokes(np.array(stokes))

    def test_stokes_floor_is_the_eigenvalue_floor(self):
        # The smaller eigenvalue (1 - |S|) / 2 may dip to PSD_FLOOR = -1e-10, no further.
        _require_physical_stokes(np.array([0.0, 0.0, 1.0 + 1.5e-10]))
        _require_physical_stokes(np.array([0.0, 0.0, 1.0 - 2.0 * PSD_FLOOR]))
        with pytest.raises(ValueError, match="positivity floor"):
            _require_physical_stokes(np.array([0.0, 0.0, 1.0 + 2.5e-10]))


class TestPhaseDeviation:
    def test_a_global_phase_is_removed(self):
        b = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        assert _phase_deviation(np.exp(2.1j) * b, b) < 1e-15
        assert _phase_deviation(b, b) == 0.0

    def test_a_relative_phase_is_not(self):
        # Column 1 negated: the aligning phase arg <b, a> is then 0.
        b = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        assert _phase_deviation(b * [1, -1], b) == pytest.approx(1.6)

    def test_nan_propagates(self):
        assert math.isnan(_phase_deviation(np.array([math.nan, 0.0]), np.array([1.0, 0.0])))
