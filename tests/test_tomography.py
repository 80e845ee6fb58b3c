"""Tomography stack: probe attachment, distributions, counting, inversion."""

import math

import numpy as np
import pytest

from uqcm.hilbert import (
    AUX,
    DensityMatrix,
    PureState,
    fidelity,
    partial_trace,
    random_pure_state,
    stokes_compose,
    tensor_product,
)
from uqcm.gates import apply_circuit
from uqcm.network import build_cloning_network, clone, input_state
from uqcm.tomography import (
    _BOOTSTRAP_SALT,
    BASES,
    CountsRecord,
    DetectorModel,
    FidelityReport,
    ReconstructionError,
    attach_aux_cswap,
    exact_report,
    fidelity_report,
    measurement_state,
    montecarlo_report,
    path_distribution,
    reconstruct_replica,
    reconstruct_single_qubit,
    replicas_from_state,
    signal_probabilities,
    simulate_counts,
    _replica_fidelities,
)

F_OPT = 5.0 / 6.0


def reference_replica_fidelities(counts, psi):
    """Per path: invert to a 2 x 2 matrix, mix by H+V weight, take <psi|rho|psi>."""
    out = []
    for group in (counts[0:4], counts[4:8]):
        weights = group[:, 0] + group[:, 1]
        acc = np.zeros((2, 2), dtype=complex)
        for row, w in zip(group, weights):
            if w > 0:
                acc += (w / weights.sum()) * reconstruct_single_qubit(*row).matrix
        out.append(fidelity(psi, DensityMatrix([1], acc)))
    return out


def test_basis_projectors_span_operator_space():
    # The four settings must be linearly independent as operators, otherwise
    # the inversion could not determine every matrix entry.
    from uqcm.tomography import BASIS_VECTORS

    stack = np.stack(
        [np.outer(v, v.conj()).reshape(-1) for v in BASIS_VECTORS.values()]
    )
    assert np.linalg.matrix_rank(stack) == 4


class TestProbeAttachment:
    def test_symmetric_input_factorizes(self):
        out = attach_aux_cswap(PureState((1, 2, 3), [1, 0, 0, 0, 0, 0, 0, 0]))
        expect = np.zeros(16)
        expect[0b0000] = expect[0b1000] = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, expect, atol=1e-12)

    def test_asymmetric_input_branches(self):
        # |010> swaps to |100> on the probe=1 branch
        amps = np.zeros(8)
        amps[0b010] = 1.0
        out = attach_aux_cswap(PureState((1, 2, 3), amps))
        expect = np.zeros(16)
        expect[0b0010] = 1 / math.sqrt(2)   # probe 0, |010>
        expect[0b1100] = 1 / math.sqrt(2)   # probe 1, |100>
        assert np.allclose(out.amplitudes, expect, atol=1e-12)

    def test_probe_marginal_is_balanced_for_machine_outputs(self):
        meas = measurement_state(0.4, 1.9)
        probe = partial_trace(meas, [AUX]).matrix
        assert probe[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert probe[1, 1].real == pytest.approx(0.5, abs=1e-12)

    def test_rejects_wrong_register(self):
        with pytest.raises(ValueError, match="qubits \\(1, 2, 3\\)"):
            attach_aux_cswap(PureState([1], [1, 0]))


class TestPathDistribution:
    def test_uniform_state_spreads_evenly(self):
        meas = PureState((AUX, 1, 2, 3), np.full(16, 0.25))
        dist = path_distribution(meas, "H")
        assert np.allclose(dist[:, 0], 1 / 16)
        assert np.allclose(dist[:, 1], 1 / 16)

    def test_probabilities_sum_to_one_and_are_nonnegative(self):
        meas = measurement_state(0.9, 4.0)
        for basis in BASES:
            dist = path_distribution(meas, basis)
            assert dist.min() >= 0.0
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_horizontal_input_group_value(self):
        # For the |H> input, the H-outcome share of the replica-1 paths is 5/6.
        dist = path_distribution(measurement_state(0.0, 0.0), "H")
        group = dist[0:4]
        assert group[:, 0].sum() / group.sum() == pytest.approx(5 / 6, abs=1e-12)

    def test_group_marginals_match_reduced_matrices(self):
        # Renormalized basis-outcome sums over each probe group must equal the
        # Born probabilities of the corresponding replica.
        meas = measurement_state(0.6, 0.9)
        res = clone(0.6, 0.9)
        vectors = {
            "H": np.array([1, 0], dtype=complex),
            "V": np.array([0, 1], dtype=complex),
            "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
            "R": np.array([1, 1j], dtype=complex) / math.sqrt(2),
        }
        for basis in BASES:
            dist = path_distribution(meas, basis)
            for which, rho in ((1, res.rho1), (2, res.rho2)):
                rows = dist[0:4] if which == 1 else dist[4:8]
                born = float(np.real(vectors[basis].conj() @ rho.matrix @ vectors[basis]))
                assert rows[:, 0].sum() / rows.sum() == pytest.approx(born, abs=1e-12)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="unknown basis"):
            path_distribution(measurement_state(0, 0), "X")


class TestSimulateCounts:
    def test_same_seed_same_record(self):
        probs = signal_probabilities(measurement_state(0.2, 0.4))
        a = simulate_counts(probs, DetectorModel(), 5000, 7)
        b = simulate_counts(probs, DetectorModel(), 5000, 7)
        assert np.array_equal(a.counts, b.counts)

    def test_fractions_approach_probabilities(self):
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        model = DetectorModel(efficiency=1.0, dark_rate=0.0)
        trials = 10**6
        rec = simulate_counts(probs, model, trials, 3)
        for b in range(4):
            for path in range(8):
                p = probs[path, b]
                sigma = math.sqrt(p * (1 - p) * trials)
                assert abs(rec.counts[path, b] - p * trials) <= 3 * sigma

    def test_efficiency_scales_mean_counts(self):
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        trials = 20000
        full = np.mean(
            [simulate_counts(probs, DetectorModel(efficiency=1.0, dark_rate=0.0), trials, s).counts.sum()
             for s in range(100)]
        )
        reduced = np.mean(
            [simulate_counts(probs, DetectorModel(efficiency=0.7, dark_rate=0.0), trials, s).counts.sum()
             for s in range(100)]
        )
        assert reduced / full == pytest.approx(0.7, abs=0.01)

    def test_dark_counts_appear_at_large_gate_window(self):
        probs = np.zeros((8, 4))
        model = DetectorModel(efficiency=0.0, dark_rate=50.0, gate_window=1.0)
        rec = simulate_counts(probs, model, 20000, 11)
        assert rec.counts.sum() > 0

    def test_record_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountsRecord(counts=np.zeros((4, 4), dtype=int), total_trials=10, seed=0)
        with pytest.raises(ValueError, match="0, total_trials"):
            CountsRecord(counts=np.full((8, 4), 11, dtype=int), total_trials=10, seed=0)

    def test_text_round_trip(self):
        probs = signal_probabilities(measurement_state(0.1, 0.2))
        rec = simulate_counts(probs, DetectorModel(), 12345, 99)
        back = CountsRecord.from_text(rec.to_text())
        assert np.array_equal(back.counts, rec.counts)
        assert back.total_trials == rec.total_trials
        assert back.seed == rec.seed
        assert back.model == rec.model
        assert back.to_text() == rec.to_text()


class TestCountsText:
    """CountsRecord.from_text rejects truncated and malformed records."""

    @staticmethod
    def text():
        probs = signal_probabilities(measurement_state(0.3, 1.0))
        return simulate_counts(probs, DetectorModel(), 5000, 7).to_text()

    def test_single_cell_record_rejected(self):
        header = self.text().splitlines()[0]
        with pytest.raises(ValueError, match="1 of 32"):
            CountsRecord.from_text(f"{header}\n0 H 3\n")

    def test_missing_cell_rejected(self):
        lines = self.text().splitlines()
        with pytest.raises(ValueError, match="31 of 32"):
            CountsRecord.from_text("\n".join(lines[:17] + lines[18:]))

    def test_duplicate_cell_rejected(self):
        lines = self.text().splitlines()
        lines[2] = lines[1]
        with pytest.raises(ValueError, match="duplicate"):
            CountsRecord.from_text("\n".join(lines))

    @pytest.mark.parametrize("bad", ["0 H", "0 H 3 4", "0 X 3", "8 H 3", "a H 3", "0 H 1.5"])
    def test_malformed_line_rejected(self, bad):
        lines = self.text().splitlines()
        lines[1] = bad
        with pytest.raises(ValueError, match="malformed counts line"):
            CountsRecord.from_text("\n".join(lines))

    @pytest.mark.parametrize("field", ["trials", "seed", "efficiency", "gate_window"])
    def test_header_missing_field_rejected(self, field):
        lines = self.text().splitlines()
        lines[0] = " ".join(item for item in lines[0].split() if not item.startswith(field + "="))
        with pytest.raises(ValueError, match=f"lacks fields: {field}"):
            CountsRecord.from_text("\n".join(lines))

    def test_header_item_without_value_rejected(self):
        lines = self.text().splitlines()
        lines[0] += " stray"
        with pytest.raises(ValueError, match="header item"):
            CountsRecord.from_text("\n".join(lines))


class TestSingleQubitInversion:
    def test_pure_h(self):
        rho = reconstruct_single_qubit(1000, 0, 500, 500)
        assert np.allclose(rho.matrix, np.diag([1, 0]), atol=1e-12)

    def test_pure_d(self):
        rho = reconstruct_single_qubit(500, 500, 1000, 500)
        assert np.allclose(rho.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_round_trip_from_exact_probabilities(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(s)
            rho = stokes_compose(*s)
            m = rho.matrix
            c_h = float(np.real(m[0, 0]))
            c_v = float(np.real(m[1, 1]))
            d = np.array([1, 1]) / math.sqrt(2)
            r = np.array([1, 1j]) / math.sqrt(2)
            c_d = float(np.real(d.conj() @ m @ d))
            c_r = float(np.real(r.conj() @ m @ r))
            rec = reconstruct_single_qubit(c_h, c_v, c_d, c_r)
            assert np.max(np.abs(rec.matrix - m)) < 1e-12

    def test_projection_is_idempotent_and_trace_preserving(self):
        # counts implying |s| > 1 are projected back onto the Bloch ball
        rho = reconstruct_single_qubit(1000, 0, 1000, 500)
        sx, sy, sz = 1.0, 0.0, 1.0
        s = np.array([sx, sy, sz]) / math.sqrt(2)
        expect = 0.5 * (np.eye(2) + s[0] * np.array([[0, 1], [1, 0]]) + s[2] * np.diag([1, -1]))
        assert np.allclose(rho.matrix, expect, atol=1e-12)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-12
        # feeding the projected state's exact probabilities back reproduces it
        m = rho.matrix
        d = np.array([1, 1]) / math.sqrt(2)
        r = np.array([1, 1j]) / math.sqrt(2)
        again = reconstruct_single_qubit(
            float(np.real(m[0, 0])),
            float(np.real(m[1, 1])),
            float(np.real(d.conj() @ m @ d)),
            float(np.real(r.conj() @ m @ r)),
        )
        assert np.max(np.abs(again.matrix - m)) < 1e-12

    def test_zero_counts_rejected(self):
        with pytest.raises(ReconstructionError, match="H/V"):
            reconstruct_single_qubit(0, 0, 10, 10)


class TestReplicaReconstruction:
    def test_exact_pipeline_recovers_optimal_fidelity(self):
        for theta, delta in ((0.0, 0.0), (0.5, 1.0), (math.pi / 2, 3.0)):
            rho1, rho2 = replicas_from_state(measurement_state(theta, delta))
            psi = input_state(theta, delta)
            assert fidelity(psi, DensityMatrix([1], rho1.matrix)) == pytest.approx(F_OPT, abs=1e-10)
            assert fidelity(psi, DensityMatrix([1], rho2.matrix)) == pytest.approx(F_OPT, abs=1e-10)

    def test_exact_pipeline_equals_partial_trace(self):
        res = clone(0.3, 0.7)
        rho1, _ = replicas_from_state(attach_aux_cswap(res.output))
        assert np.max(np.abs(rho1.matrix - res.rho1.matrix)) < 1e-10

    def test_counting_run_at_bench_rate_scale(self):
        rep = montecarlo_report(0.0, 0.0, trials=20000, seed=42)
        assert abs(rep.fidelity1 - F_OPT) <= 0.01
        assert abs(rep.fidelity2 - F_OPT) <= 0.01

    def test_convergence_at_large_trials(self):
        # 10^6 photons per setting: both replicas within 0.003 in >= 95/100 seeds.
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        psi = input_state(0.0, 0.0)
        hits = 0
        for seed in range(100):
            rec = simulate_counts(probs, DetectorModel(), 10**6, seed)
            f1 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 1).matrix))
            f2 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 2).matrix))
            if abs(f1 - F_OPT) < 0.003 and abs(f2 - F_OPT) < 0.003:
                hits += 1
        assert hits >= 95

    def test_replicas_agree_within_statistics(self):
        rep = montecarlo_report(0.0, 0.0, trials=20000, seed=42)
        spread = math.hypot(rep.stderr1, rep.stderr2)
        assert abs(rep.fidelity1 - rep.fidelity2) <= 4 * spread

    def test_empty_group_rejected(self):
        counts = np.zeros((8, 4))
        counts[0:4] = 100
        with pytest.raises(ReconstructionError, match="replica 2"):
            reconstruct_replica(counts, 2)
        with pytest.raises(ValueError, match="selector"):
            reconstruct_replica(counts, 3)
        # Only the selected group needs counts.
        assert reconstruct_replica(counts, 1).labels == (1,)


class TestArrayReconstruction:
    """The array kernel against the per-path 2 x 2 route it replaced."""

    def test_matches_per_path_route(self):
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 1000, size=(40, 8, 4)).astype(float)
        counts[0, 2, 0:2] = 0        # a path with no H/V counts
        counts[1, 5] = [1000, 0, 1000, 500]   # raw Stokes (1, 0, 1), outside the ball
        c_h, c_v, c_d, c_r = np.moveaxis(counts, -1, 0)
        n = np.maximum(c_h + c_v, 1.0)
        raw = np.stack([2 * c_d / n - 1, 2 * c_r / n - 1, (c_h - c_v) / n])
        assert np.sum(np.linalg.norm(raw, axis=0) > 1.0) > 100
        psi = random_pure_state([1], rng)
        fids = _replica_fidelities(counts, psi)
        assert fids.shape == (40, 2)
        ref = np.array([reference_replica_fidelities(c, psi) for c in counts])
        assert np.max(np.abs(fids - ref)) < 1e-12

    def test_reconstruct_replica_matches_per_path_route(self):
        counts = np.random.default_rng(78).integers(0, 500, size=(8, 4)).astype(float)
        psi = random_pure_state([1], np.random.default_rng(79))
        ref = reference_replica_fidelities(counts, psi)
        for which in (1, 2):
            f = fidelity(psi, reconstruct_replica(counts, which))
            assert f == pytest.approx(ref[which - 1], abs=1e-12)

    def test_batch_rejected_by_single_replica_api(self):
        with pytest.raises(ValueError, match="batch"):
            reconstruct_replica(np.ones((3, 8, 4)), 1)
        with pytest.raises(ValueError, match="shape"):
            reconstruct_replica(np.ones((8, 3)), 1)

    def test_positivity_floor_kept(self):
        # A negative weight (a path scaled below zero) pushes |S| to 2.
        counts = np.ones((8, 4))
        counts[0] = [1, 1, 2, 1]
        counts[1] = [-1, 0, 0, 0]
        counts[2:4] = 0
        with pytest.raises(ValueError, match="positivity floor"):
            _replica_fidelities(counts, input_state(0.0, 0.0))

    def test_bootstrap_is_one_batched_draw(self):
        theta, delta = 0.4, 1.1
        probs = signal_probabilities(measurement_state(theta, delta))
        rec = simulate_counts(probs, DetectorModel(), 20000, 11)
        psi = input_state(theta, delta)

        def stream():
            seeds = np.random.SeedSequence((rec.seed, _BOOTSTRAP_SALT))
            return np.random.Generator(np.random.PCG64(seeds))

        fractions = rec.counts / rec.total_trials
        batched = stream().binomial(rec.total_trials, fractions, size=(50, 8, 4))
        rng = stream()
        looped = np.array([rng.binomial(rec.total_trials, fractions) for _ in range(50)])
        assert np.array_equal(batched, looped)
        ref = np.array([reference_replica_fidelities(draw, psi) for draw in looped])
        rep = fidelity_report(
            reconstruct_replica(rec, 1), reconstruct_replica(rec, 2), theta, delta,
            mode="montecarlo", counts=rec,
        )
        point = reference_replica_fidelities(rec.counts.astype(float), psi)
        assert rep.fidelity1 == pytest.approx(point[0], abs=1e-12)
        assert rep.fidelity2 == pytest.approx(point[1], abs=1e-12)
        assert rep.stderr1 == pytest.approx(np.std(ref[:, 0], ddof=1), abs=1e-12)
        assert rep.stderr2 == pytest.approx(np.std(ref[:, 1], ddof=1), abs=1e-12)


class TestFidelityReport:
    def test_exact_mode_has_zero_stderr(self):
        rep = exact_report(0.2, 0.3)
        assert rep.mode == "exact"
        assert rep.stderr1 == 0.0 and rep.stderr2 == 0.0
        assert rep.fidelity1 == pytest.approx(F_OPT, abs=1e-10)

    def test_montecarlo_mode_within_error_bars(self):
        rep = montecarlo_report(0.0, 0.0, trials=20000, seed=7)
        assert rep.mode == "montecarlo"
        assert rep.stderr1 > 0
        assert abs(rep.fidelity1 - F_OPT) <= 5 * rep.stderr1

    def test_degenerate_polar_input(self):
        # theta = pi/2 means the input is |V>; universality holds there too.
        rep = exact_report(math.pi / 2, 0.0)
        assert rep.fidelity1 == pytest.approx(F_OPT, abs=1e-10)
        assert rep.fidelity2 == pytest.approx(F_OPT, abs=1e-10)

    def test_bootstrap_is_deterministic(self):
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        rec = simulate_counts(probs, DetectorModel(), 20000, 5)
        rho1 = reconstruct_replica(rec, 1)
        rho2 = reconstruct_replica(rec, 2)
        a = fidelity_report(rho1, rho2, 0.0, 0.0, mode="montecarlo", counts=rec)
        b = fidelity_report(rho1, rho2, 0.0, 0.0, mode="montecarlo", counts=rec)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            fidelity_report(
                stokes_compose(0, 0, 1), stokes_compose(0, 0, 1), 0.0, 0.0, mode="bogus"
            )

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_bootstrap_needs_two_draws(self, n_bootstrap):
        with pytest.raises(ValueError, match="n_bootstrap"):
            montecarlo_report(0.3, 0.5, 2000, 5, n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_non_finite_or_negative_stderr_rejected(self, bad):
        with pytest.raises(ValueError, match="standard errors"):
            FidelityReport(F_OPT, F_OPT, 0.0, bad, 0.0, 0.0, "montecarlo")

    def test_measurement_state_matches_gate_network(self):
        # The machine output now comes from the compiled 8 x 2 network image;
        # the reference runs the gate network itself.
        network = build_cloning_network()
        blank = PureState((2, 3), [1, 0, 0, 0])
        for theta, delta in ((0.0, 0.0), (0.4, 1.9), (math.pi / 2, 5.0), (-1.2, 3.3)):
            out = apply_circuit(network, tensor_product(input_state(theta, delta), blank))
            expect = attach_aux_cswap(out)
            assert np.max(np.abs(measurement_state(theta, delta).amplitudes - expect.amplitudes)) < 1e-12
