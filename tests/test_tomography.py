"""Tomography stack: probe attachment, distributions, counting, inversion."""

import itertools
import math
import re

import numpy as np
import pytest

from uqcm.hilbert import (
    AUX,
    DensityMatrix,
    PureState,
    _qubit_stokes,
    _require_physical_stokes,
    _stokes_fidelity,
    fidelity,
    partial_trace,
    stokes_compose,
)
from uqcm.gates import apply_circuit
from uqcm import errormodel, tomography
from uqcm.cli import SweepConfig
from uqcm.network import _input_amplitudes
from uqcm.streams import streams
from uqcm.network import build_cloning_network, clone
from uqcm.optics import N_BENCH_PATHS
from uqcm.tomography import (
    _BOOTSTRAP_SALT,
    MAX_TRIALS,
    MONTECARLO_BLOCK,
    N_BOOTSTRAP,
    _aux_cswap,
    _bootstrap_entropy,
    _bootstrap_errors,
    _count_entropy,
    _draw_counts,
    _gate_probabilities,
    _path_rows,
    _path_stokes,
    BASES,
    CountsRecord,
    FidelityReport,
    ReconstructionError,
    exact_report,
    fidelity_report,
    montecarlo_report,
    reconstruct_replica,
    signal_probabilities,
    simulate_counts,
    _replica_stokes,
)

from reference import (
    attach_aux_cswap,
    input_state,
    measurement_state,
    random_pure_state,
    reconstruct_single_qubit,
    replicas_from_state,
    tensor_product,
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


# The counting kernels as they were before their arithmetic became block
# arithmetic, kept verbatim as the references the block forms must equal
# byte for byte: the per-path inversion by einsum, the replica refit with
# its fancy-index copy of the groups, and the per-stream counting loop.
_INVERSION = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


def reference_path_stokes(counts: np.ndarray) -> np.ndarray:
    """(..., 3) per-path inversion of (..., 4) H, V, D, R counts, shortened to
    the unit ball; zero where a path has no H/V counts."""
    total = counts[..., 0] + counts[..., 1]
    # einsum, not a float matmul: verify's scalar calls would otherwise page in BLAS code.
    s = np.einsum("...i,ij->...j", counts, _INVERSION)
    s = s / np.where(total > 0, total, 1.0)[..., None] - (1.0, 1.0, 0.0)
    s = s / np.maximum(np.linalg.norm(s, axis=-1, keepdims=True), 1.0)
    return np.where((total > 0)[..., None], s, 0.0)


def reference_replica_stokes(counts, replicas=(1, 2)) -> np.ndarray:
    """(..., len(replicas), 3) replica Stokes vectors from (..., 8, 4) counts.

    Accepts a CountsRecord, counts or exact probabilities. Raises
    ReconstructionError for a replica whose path group has no H/V counts,
    and ValueError if an eigenvalue (1 - |S|) / 2 is below the positivity
    floor.
    """
    arr = np.asarray(counts.counts if isinstance(counts, CountsRecord) else counts, dtype=float)
    if arr.shape[-2:] != (N_BENCH_PATHS, len(BASES)):
        raise ValueError(f"counts must have shape (..., 8, 4), got {arr.shape}")
    groups = arr.reshape(arr.shape[:-2] + (2, 4, len(BASES)))[..., [r - 1 for r in replicas], :, :]
    weights = groups[..., 0] + groups[..., 1]
    totals = weights.sum(axis=-1)
    for i, r in enumerate(replicas):
        if np.any(totals[..., i] <= 0):
            raise ReconstructionError(f"replica {r}: no counts in its path group")
    stokes = np.einsum("...p,...pk->...k", weights / totals[..., None], reference_path_stokes(groups))
    _require_physical_stokes(stokes)
    return stokes


def reference_draw_counts(probs: np.ndarray, trials: int, rngs) -> np.ndarray:
    """(N, 8, 4) counts for (N, 8, 4) signal probabilities, drawn as in
    `simulate_counts` by the detector constants of `tomography` as they are
    at the call: basis b of point k takes generator 4 k + b of `rngs`, the
    streams of `_count_entropy(seeds)`; exactly 4 N are taken."""
    if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
        raise ValueError("signal probabilities must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")
    probs = np.clip(probs, 0.0, 1.0)
    dark_mean = tomography.DARK_RATE * tomography.GATE_WINDOW * trials / tomography.MAX_RATE
    counts = np.zeros(probs.shape, dtype=np.int64)
    for k, rng in zip(range(len(probs) * len(BASES)), rngs):
        point, b = divmod(k, len(BASES))
        detect = probs[point, :, b] * tomography.EFFICIENCY
        pvals = np.append(detect, max(0.0, 1.0 - float(detect.sum())))
        signal = rng.multinomial(trials, pvals / pvals.sum())[:N_BENCH_PATHS]
        dark = rng.poisson(dark_mean, size=N_BENCH_PATHS)
        counts[point, :, b] = np.minimum(signal + dark, trials)
    return counts


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

    def test_axis_exchange_matches_gate_circuit(self):
        # The batched probe swap of the counting kernel against the CSWAP
        # gate, on (3, 5) random outputs.
        rng = np.random.default_rng(93)
        out = rng.normal(size=(3, 5, 8)) + 1j * rng.normal(size=(3, 5, 8))
        out /= np.linalg.norm(out, axis=-1, keepdims=True)
        rows = _path_rows(_aux_cswap(out))
        assert rows.shape == (3, 5, 8, 2)
        for index in np.ndindex(3, 5):
            meas = attach_aux_cswap(PureState((1, 2, 3), out[index]))
            assert np.max(np.abs(_aux_cswap(out[index]) - meas.amplitudes)) < 1e-15
            assert np.max(np.abs(rows[index] - _path_rows(meas.amplitudes))) < 1e-15


class TestPathDistribution:
    """Click probabilities per (path, basis) from `signal_probabilities`."""

    def test_path_rows_follow_the_bench_layout(self):
        # Path p = (probe, q2, q3) in binary; its H and V amplitudes sit at
        # basis index probe*8 + q1*4 + q2*2 + q3 of (aux, 1, 2, 3), q1 = 0, 1.
        index = np.arange(16)
        want = [[(p >> 2) * 8 + pol * 4 + (p & 3) for pol in (0, 1)] for p in range(8)]
        assert _path_rows(index).tolist() == want
        assert _path_rows(np.stack([index, index + 16])).tolist() == [want, (np.array(want) + 16).tolist()]

    def test_rejects_a_state_off_the_bench_register(self):
        for labels in ((1, 2, 3), ("aux", 1, 2)):
            state = PureState(labels, np.eye(8)[0])
            with pytest.raises(ValueError, match=re.escape(f"expected a state on (aux, 1, 2, 3), got {labels!r}")):
                signal_probabilities(state)

    def test_uniform_state_spreads_evenly(self):
        meas = PureState((AUX, 1, 2, 3), np.full(16, 0.25))
        probs = signal_probabilities(meas)
        assert np.allclose(probs[:, BASES.index("H")], 1 / 16)
        assert np.allclose(probs[:, BASES.index("V")], 1 / 16)

    def test_probabilities_sum_to_one_and_are_nonnegative(self):
        # H and V are orthogonal, so their columns sum to each path's weight.
        meas = measurement_state(0.9, 4.0)
        probs = signal_probabilities(meas)
        assert probs.min() >= 0.0
        weights = np.sum(np.abs(_path_rows(meas.amplitudes)) ** 2, axis=1)
        assert np.max(np.abs(probs[:, 0] + probs[:, 1] - weights)) < 1e-15
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_horizontal_input_group_value(self):
        # For the |H> input, the H-outcome share of the replica-1 paths is 5/6.
        group = signal_probabilities(measurement_state(0.0, 0.0))[0:4]
        assert group[:, 0].sum() / group[:, 0:2].sum() == pytest.approx(5 / 6, abs=1e-12)

    def test_group_marginals_match_reduced_matrices(self):
        # Renormalized basis-outcome sums over each probe group must equal the
        # Born probabilities of the corresponding replica.
        probs = signal_probabilities(measurement_state(0.6, 0.9))
        res = clone(0.6, 0.9)
        vectors = {
            "H": np.array([1, 0], dtype=complex),
            "V": np.array([0, 1], dtype=complex),
            "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
            "R": np.array([1, 1j], dtype=complex) / math.sqrt(2),
        }
        for b, basis in enumerate(BASES):
            for which, rho in ((1, res.rho1), (2, res.rho2)):
                rows = probs[0:4] if which == 1 else probs[4:8]
                born = float(np.real(vectors[basis].conj() @ rho.matrix @ vectors[basis]))
                assert rows[:, b].sum() / rows[:, 0:2].sum() == pytest.approx(born, abs=1e-12)


class TestSimulateCounts:
    def test_same_seed_same_record(self):
        probs = signal_probabilities(measurement_state(0.2, 0.4))
        a = simulate_counts(probs, 5000, 7)
        b = simulate_counts(probs, 5000, 7)
        assert np.array_equal(a.counts, b.counts)

    def test_fractions_approach_probabilities(self, detector):
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        detector(EFFICIENCY=1.0, DARK_RATE=0.0)
        trials = 10**6
        rec = simulate_counts(probs, trials, 3)
        for b in range(4):
            for path in range(8):
                p = probs[path, b]
                sigma = math.sqrt(p * (1 - p) * trials)
                assert abs(rec.counts[path, b] - p * trials) <= 3 * sigma

    def test_efficiency_scales_mean_counts(self, detector):
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        trials = 20000
        detector(EFFICIENCY=1.0, DARK_RATE=0.0)
        full = np.mean([simulate_counts(probs, trials, s).counts.sum() for s in range(100)])
        detector(EFFICIENCY=0.7)
        reduced = np.mean([simulate_counts(probs, trials, s).counts.sum() for s in range(100)])
        assert reduced / full == pytest.approx(0.7, abs=0.01)

    @pytest.mark.parametrize("seed", [5, 2**32, 2**64 + 5])
    def test_each_basis_draws_from_its_seed_sequence_stream(self, seed, detector):
        probs = signal_probabilities(measurement_state(0.3, 2.0))
        detector(DARK_RATE=5e4, GATE_WINDOW=1e-3)
        trials = 3000
        expect = np.empty((8, 4), dtype=np.int64)
        for b in range(4):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
            # The bench's efficiency and rate cap, the patched rate and gate.
            detect = probs[:, b] * 0.70
            pvals = np.append(detect, max(0.0, 1.0 - float(detect.sum())))
            signal = rng.multinomial(trials, pvals / pvals.sum())[:8]
            expect[:, b] = np.minimum(signal + rng.poisson(5e4 * 1e-3 * trials / 20000.0, size=8), trials)
        assert np.array_equal(simulate_counts(probs, trials, seed).counts, expect)

    def test_dark_counts_appear_at_large_gate_window(self, detector):
        probs = np.zeros((8, 4))
        detector(EFFICIENCY=0.0, DARK_RATE=50.0, GATE_WINDOW=1.0)
        rec = simulate_counts(probs, 20000, 11)
        assert rec.counts.sum() > 0

    def test_rejects_probabilities_of_another_shape(self):
        with pytest.raises(ValueError, match=r"^signal_probs must have shape \(8, 4\), got \(8, 3\)$"):
            simulate_counts(np.zeros((8, 3)), 10, 0)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountsRecord(counts=np.zeros((4, 4), dtype=int), total_trials=10, seed=0)
        with pytest.raises(ValueError, match="0, total_trials"):
            CountsRecord(counts=np.full((8, 4), 11, dtype=int), total_trials=10, seed=0)
        # The seed drives the bootstrap streams, which take nonnegative entropy only.
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            CountsRecord(counts=np.zeros((8, 4), dtype=int), total_trials=10, seed=-5)
        # simulate_counts never writes a record without trials, whose bootstrap would divide 0 / 0.
        with pytest.raises(ValueError, match="total_trials must be positive"):
            CountsRecord(counts=np.zeros((8, 4), dtype=int), total_trials=0, seed=0)
        assert CountsRecord(counts=np.ones((8, 4), dtype=int), total_trials=1, seed=0).total_trials == 1

    def test_record_holds_counts_trials_and_seed_only(self):
        # The detectors only shape the draws; the record does not describe them.
        rec = simulate_counts(signal_probabilities(measurement_state(0.1, 0.2)), 12345, 99)
        assert CountsRecord.__slots__ == ("counts", "total_trials", "seed")
        assert (rec.total_trials, rec.seed, rec.counts.shape) == (12345, 99, (8, 4))
        assert not rec.counts.flags.writeable


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

    @pytest.mark.parametrize("counts", [(-5, 10, 1, 1), (10, -1, 1, 1), (10, 10, -0.5, 1), (10, 10, 1, -1)])
    def test_negative_count_rejected(self, counts):
        with pytest.raises(ValueError, match="nonnegative"):
            reconstruct_single_qubit(*counts)

    def test_nan_count_rejected(self):
        with pytest.raises(ReconstructionError, match="H/V"):
            reconstruct_single_qubit(math.nan, 1, 1, 1)


class TestReplicaReconstruction:
    def test_exact_pipeline_recovers_optimal_fidelity(self):
        # Poles included; `exact_report`, the array route, against the objects.
        for theta, delta in ((0.0, 0.0), (0.5, 1.0), (math.pi / 2, 3.0), (-1.2, 5.5)):
            rho1, rho2 = replicas_from_state(measurement_state(theta, delta))
            psi = input_state(theta, delta)
            f1 = fidelity(psi, DensityMatrix([1], rho1.matrix))
            f2 = fidelity(psi, DensityMatrix([1], rho2.matrix))
            assert f1 == pytest.approx(F_OPT, abs=1e-10)
            assert f2 == pytest.approx(F_OPT, abs=1e-10)
            rep = exact_report(theta, delta)
            assert abs(rep.fidelity1 - f1) <= 1e-12 and abs(rep.fidelity2 - f2) <= 1e-12

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
            rec = simulate_counts(probs, 10**6, seed)
            f1 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 1).matrix))
            f2 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 2).matrix))
            if abs(f1 - F_OPT) < 0.003 and abs(f2 - F_OPT) < 0.003:
                hits += 1
        assert hits >= 95

    @pytest.mark.parametrize(("theta", "delta", "trials", "seed"), [(0.0, 0.0, 20000, 42), (-0.9, 4.4, 800, 6)])
    def test_montecarlo_report_matches_public_route(self, theta, delta, trials, seed):
        # The counting kernel against counts, replica matrices and bootstrap
        # taken one public call at a time.
        rec = simulate_counts(signal_probabilities(measurement_state(theta, delta)), trials, seed)
        ref = fidelity_report(
            reconstruct_replica(rec, 1), reconstruct_replica(rec, 2), theta, delta,
            mode="montecarlo", counts=rec,
        )
        rep = montecarlo_report(theta, delta, trials, seed)
        for name in ("fidelity1", "fidelity2", "stderr1", "stderr2"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name), abs=1e-12)

    def test_montecarlo_blocks_seed_once_and_match_single_points(self, monkeypatch):
        # 10 points: a full block and a block of 2. One call seeds all
        # counting streams (4 per point), then all bootstrap streams (1 per
        # point), and every point equals its single-point report.
        theta, delta = np.linspace(-1.2, 1.4, 10), np.linspace(0.1, 6.0, 10)
        seeds = np.arange(10) * 7919 + 3
        calls, seeded = [], tomography.streams
        monkeypatch.setattr(tomography, "streams", lambda rows: calls.append(len(rows)) or seeded(rows))
        fids, errs, stokes = tomography._montecarlo_fidelities(theta, delta, seeds, 500)
        assert calls == [5 * 10]
        # The fidelities are those of the replica Stokes vectors returned beside them.
        bloch = _qubit_stokes(_input_amplitudes(theta, delta))
        assert stokes.shape == (10, 2, 3) and fids.tobytes() == _stokes_fidelity(stokes, bloch).tobytes()
        for k in range(10):
            rep = montecarlo_report(theta[k], delta[k], 500, int(seeds[k]))
            assert [rep.fidelity1, rep.fidelity2] == pytest.approx(fids[k], abs=1e-12)
            assert [rep.stderr1, rep.stderr2] == pytest.approx(errs[k], abs=1e-12)

    def test_montecarlo_first_error_is_the_first_failing_blocks(self):
        # At 4 trials a bootstrap resample of the first block loses replica
        # 1's counts before any count refit of the second block fails; a
        # kernel that refitted every point's counts before any bootstrap
        # would report the count refit's error instead.
        theta, delta = np.linspace(-1.2, 1.4, 16), np.linspace(0.1, 6.0, 16)
        seeds = np.arange(16) * 7919 + 4
        with pytest.raises(ReconstructionError) as raised:
            tomography._montecarlo_fidelities(theta, delta, seeds, 4)
        assert str(raised.value) == (
            "bootstrap resample: replica 1: no counts in its path group; 4 trials per setting are too few for error bars"
        )

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
        fids = _stokes_fidelity(_replica_stokes(counts), _qubit_stokes(psi.amplitudes))
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
            _replica_stokes(counts)

    def test_bootstrap_is_one_batched_draw(self):
        theta, delta = 0.4, 1.1
        probs = signal_probabilities(measurement_state(theta, delta))
        rec = simulate_counts(probs, 20000, 11)
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


def random_amplitudes(rng, n):
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def assert_stokes_match_reference(counts):
    """`_path_stokes` and `_replica_stokes` of every replica selection equal
    the einsum references byte for byte, or raise what they raise."""
    assert _path_stokes(counts).tobytes() == reference_path_stokes(counts).tobytes()
    for replicas in ((1,), (2,), (1, 2)):
        try:
            ref = reference_replica_stokes(counts, replicas)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                _replica_stokes(counts, replicas)
            assert str(raised.value) == str(exc)
            continue
        got = _replica_stokes(counts, replicas)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class RecordingGenerator:
    """A numpy Generator that logs the arguments of its counting draws, so a
    one-ulp change in the probabilities shows even where the draws agree."""

    def __init__(self, entropy, log: list):
        self.rng, self.log = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))), log

    def multinomial(self, n, pvals):
        self.log.append(("multinomial", n, np.asarray(pvals, dtype=float).tobytes()))
        return self.rng.multinomial(n, pvals)

    def poisson(self, lam, size):
        self.log.append(("poisson", lam, size))
        return self.rng.poisson(lam, size=size)


class TestBlockKernels:
    """The block arithmetic of the counting kernels against the per-stream
    loop and the einsum inversion it replaced, byte for byte."""

    @pytest.mark.parametrize("shape", [(8, 4), (6, 8, 4), (3, 50, 8, 4)])
    @pytest.mark.parametrize("high", [3, 1000])
    def test_integer_counts(self, shape, high):
        counts = np.random.default_rng(high + len(shape)).integers(0, high + 1, size=shape).astype(float)
        counts[..., (0, 4), 0] = 1            # both groups reconstruct
        counts[..., 2, 0:2] = 0               # a path with no H/V counts
        counts[..., 5, :] = [1000, 0, 1000, 500]   # raw Stokes (1, 0, 1), outside the ball
        c_h, c_v, c_d, c_r = np.moveaxis(counts, -1, 0)
        n = np.maximum(c_h + c_v, 1.0)
        raw = np.stack([2 * c_d / n - 1, 2 * c_r / n - 1, (c_h - c_v) / n])
        assert np.any(np.linalg.norm(raw, axis=0) > 1.0)
        assert_stokes_match_reference(counts)

    def test_exact_tier_probabilities(self):
        rng = np.random.default_rng(31)
        probs = _gate_probabilities(random_amplitudes(rng, 40))
        assert_stokes_match_reference(probs)
        assert_stokes_match_reference(probs[:, None].repeat(3, axis=1))
        # Any memory layout: the refit sums as it does for C-ordered counts.
        assert_stokes_match_reference(np.asfortranarray(probs))
        assert_stokes_match_reference(probs[::2])
        assert_stokes_match_reference(signal_probabilities(measurement_state(0.7, 2.2)))
        # The poles, where each replica's D and R columns are flat.
        assert_stokes_match_reference(_gate_probabilities(_input_amplitudes([0.0, math.pi / 2], [0.0, 1.0])))

    def test_perturbed_tier_probabilities(self, monkeypatch):
        seen, replica_stokes = [], errormodel._replica_stokes
        monkeypatch.setattr(errormodel, "_replica_stokes", lambda probs: seen.append(probs.copy()) or replica_stokes(probs))
        errormodel.perturbation_sweep(math.radians(2.0), 30, 7, theta=0.4, delta=1.3, delta_c_total=0.3)
        assert seen and all(p.shape[-2:] == (8, 4) for p in seen)
        for probs in seen:
            assert_stokes_match_reference(probs)

    @pytest.mark.parametrize(
        ("n_points", "trials", "constants"),
        [
            (1, 20000, {}),
            (MONTECARLO_BLOCK, 3000, dict(DARK_RATE=5e4, GATE_WINDOW=1e-3)),
            (3, 5, dict(DARK_RATE=1e4, GATE_WINDOW=1.0)),   # the cap at trials binds
            (2, 700, dict(EFFICIENCY=0.0)),                 # every photon absorbed
        ],
    )
    @pytest.mark.parametrize("source", ["gate", "generic"])
    def test_draw_counts_matches_per_stream_loop(self, n_points, trials, constants, source, detector):
        detector(**constants)
        rng = np.random.default_rng(n_points)
        probs = _gate_probabilities(random_amplitudes(rng, n_points))
        if source == "generic":
            # No zero cells, so the order of each setting's sum shows in its last bits.
            probs = rng.uniform(0.01, 0.125, size=probs.shape)
        entropy = _count_entropy(rng.integers(0, 2**63, size=n_points).tolist())
        expect_log, log = [], []
        expect = reference_draw_counts(probs, trials, (RecordingGenerator(e, expect_log) for e in entropy))
        rngs = iter([RecordingGenerator(e, log) for e in entropy] + ["next stream"])
        counts = _draw_counts(probs, trials, rngs)
        assert next(rngs) == "next stream"   # exactly 4 N generators taken
        assert log == expect_log             # the same draws with the same arguments, in order
        assert counts.shape == expect.shape and counts.dtype == expect.dtype
        assert counts.tobytes() == expect.tobytes()
        assert counts.flags.c_contiguous
        if trials == 5:
            assert np.any(counts == trials)
        # The batched seeding hands out the same streams.
        assert _draw_counts(probs, trials, streams(entropy)).tobytes() == expect.tobytes()

    @pytest.mark.parametrize(("n_points", "trials"), [(1, 20000), (MONTECARLO_BLOCK, 500), (3, 50)])
    def test_bootstrap_errors_match_per_point_std(self, n_points, trials):
        # Per point: a fresh generator, one (N_BOOTSTRAP, 8, 4) binomial
        # draw, a refit and the sample deviation over axis 0.
        rng = np.random.default_rng(n_points)
        amps = random_amplitudes(rng, n_points)
        seeds = rng.integers(0, 2**32, size=n_points).tolist()
        counts = _draw_counts(_gate_probabilities(amps), trials, streams(_count_entropy(seeds)))
        bloch = _qubit_stokes(amps)
        expect = []
        for k, entropy in enumerate(_bootstrap_entropy(seeds)):
            generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            draws = generator.binomial(trials, counts[k] / trials, size=(N_BOOTSTRAP, 8, 4))
            expect.append(np.std(_stokes_fidelity(_replica_stokes(draws), bloch[k]), axis=0, ddof=1))
        rngs = itertools.chain(streams(_bootstrap_entropy(seeds)), ["next stream"])
        errs = _bootstrap_errors(counts, trials, rngs, bloch)
        assert next(rngs) == "next stream"   # exactly N generators taken
        assert errs.shape == (n_points, 2) and errs.tobytes() == np.array(expect).tobytes()

    def test_property_matches_reference_on_any_counts(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        batch = st.sampled_from([(), (1,), (3,), (2, 5)]).map(lambda lead: lead + (8, 4))
        cells = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=10**6)

        @settings(max_examples=150, deadline=None)
        @given(arrays(np.int64, batch, elements=cells))
        def check(counts):
            assert_stokes_match_reference(counts.astype(float))

        check()

    def test_reconstruction_messages_unchanged(self):
        counts = np.zeros((8, 4))
        counts[0:4] = 5
        with pytest.raises(ReconstructionError) as raised:
            _replica_stokes(counts)
        assert str(raised.value) == "replica 2: no counts in its path group"
        with pytest.raises(ReconstructionError) as raised:
            _replica_stokes(counts[::-1].copy(), (1,))
        assert str(raised.value) == "replica 1: no counts in its path group"
        with pytest.raises(ReconstructionError) as raised:
            _bootstrap_errors(counts[None], 5, streams(_bootstrap_entropy([0])), np.zeros((1, 3)))
        assert str(raised.value) == (
            "bootstrap resample: replica 2: no counts in its path group; 5 trials per setting are too few for error bars"
        )
        with pytest.raises(ReconstructionError) as raised:
            reconstruct_single_qubit(0, 0, 10, 10)
        assert str(raised.value) == "no H/V counts: cannot normalize the inversion"
        floor = np.ones((8, 4))
        floor[0], floor[1], floor[2:4] = [1, 1, 2, 1], [-1, 0, 0, 0], 0
        with pytest.raises(ValueError) as raised:
            _replica_stokes(floor)
        assert str(raised.value) == "replica matrix has an eigenvalue below the positivity floor"


class TestCountingInputs:
    """Counting inputs that numpy would silently truncate or renormalise."""

    def test_setting_summing_above_one_rejected(self):
        with pytest.raises(ValueError, match="must sum to at most 1"):
            simulate_counts(np.full((8, 4), 0.5), 100, 1)
        probs = np.zeros((3, 8, 4))
        probs[1, :, 2] = 0.125 + 1e-12   # one setting of one point, 1 + 8e-12 in all
        with pytest.raises(ValueError, match="must sum to at most 1"):
            _draw_counts(probs, 100, streams(_count_entropy([0, 1, 2])))
        probs[1, :, 2] = 0.125           # exactly 1: a photon always clicks
        assert _draw_counts(probs, 100, streams(_count_entropy([0, 1, 2]))).shape == (3, 8, 4)

    def test_default_grid_block_passes_the_sum_check(self):
        config = SweepConfig(mode="montecarlo")
        thetas = config.theta_grid()
        amps = _input_amplitudes(np.tile(thetas, len(config.delta_list)), np.repeat(config.delta_list, len(thetas)))
        probs = _gate_probabilities(amps)
        assert probs.sum(axis=-2).max() == pytest.approx(5 / 6, abs=1e-12)
        seeds = list(range(len(probs)))
        assert _draw_counts(probs, 20000, streams(_count_entropy(seeds))).shape == probs.shape

    def test_single_probability_above_one_rejected(self):
        # The clip to [0, 1] runs before the sum check, which alone would
        # accept a setting of one 1.5 and zeros.
        probs = np.zeros((1, 8, 4))
        probs[0, 3, 1] = 1.5
        with pytest.raises(ValueError, match=r"signal probabilities must lie in \[0, 1\]"):
            _draw_counts(probs, 100, streams(_count_entropy([0])))

    def test_probability_tolerance_is_1e_12(self):
        # Rounding may put a probability, or a setting's sum, 1e-12 beyond
        # its range, the bound included; no more.
        for cell, accepted in ((-1e-12, True), (-2e-12, False), (1.0 + 1e-12, True), (1.0 + 2e-12, False)):
            probs = np.zeros((1, 8, 4))
            probs[0, 2, 1] = cell
            if accepted:
                assert _draw_counts(probs, 100, streams(_count_entropy([0]))).shape == (1, 8, 4)
            else:
                with pytest.raises(ValueError, match=r"signal probabilities must lie in \[0, 1\]"):
                    _draw_counts(probs, 100, streams(_count_entropy([0])))
        probs = np.zeros((1, 8, 4))
        probs[0, 0:2, 3] = [1e-12, 1.0]
        assert probs[0, :, 3].sum() == 1.0 + 1e-12
        assert _draw_counts(probs, 100, streams(_count_entropy([0]))).shape == (1, 8, 4)
        probs[0, 0, 3] = 2e-12
        with pytest.raises(ValueError, match="must sum to at most 1"):
            _draw_counts(probs, 100, streams(_count_entropy([0])))

    def test_nan_probability_rejected(self):
        probs = signal_probabilities(measurement_state(0.2, 0.4))
        probs[3, 1] = math.nan
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            simulate_counts(probs, 100, 1)

    # Reals that hold a whole number are refused too, as `SweepConfig` refuses them.
    @pytest.mark.parametrize("trials", [100.5, math.nan, math.inf, "100", 100.0, 0.0, 1e19, np.float64(2.0**63)])
    def test_non_integral_trials_rejected(self, trials):
        probs = signal_probabilities(measurement_state(0.1, 0.2))
        message = f"^trials must be an integer, got {re.escape(repr(trials))}$"
        with pytest.raises(ValueError, match=message):
            simulate_counts(probs, trials, 1)
        with pytest.raises(ValueError, match=message):
            montecarlo_report(0.1, 0.2, trials, 1)
        with pytest.raises(ValueError, match=f"^total_{message[1:]}"):
            CountsRecord(np.zeros((8, 4), dtype=int), trials, 1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        probs = signal_probabilities(measurement_state(0.1, 0.2))
        with pytest.raises(ValueError, match="trials must be positive"):
            simulate_counts(probs, trials, 1)
        with pytest.raises(ValueError, match="trials must be positive"):
            montecarlo_report(0.1, 0.2, trials, 1)

    @pytest.mark.parametrize("trials", [2**63, 2**64, np.uint64(2**63)])
    def test_trials_beyond_int64_rejected(self, trials):
        # numpy's draws take int64 trial numbers and would overflow first.
        probs = signal_probabilities(measurement_state(0.3, 0.5))
        too_many = f"trials must be at most {MAX_TRIALS}, got {re.escape(repr(trials))}"
        with pytest.raises(ValueError, match=too_many):
            simulate_counts(probs, trials, 0)
        with pytest.raises(ValueError, match=too_many):
            montecarlo_report(0.3, 0.5, trials, 1)
        counts = simulate_counts(probs, 20000, 0).counts
        rho1, rho2 = reconstruct_replica(probs, 1), reconstruct_replica(probs, 2)
        with pytest.raises(ValueError, match=f"total_{too_many}"):
            fidelity_report(rho1, rho2, 0.3, 0.5, mode="montecarlo", counts=CountsRecord(counts, trials, 0))

    def test_trials_up_to_int64_max_accepted(self):
        assert MAX_TRIALS == 2**63 - 1 == np.iinfo(np.int64).max
        counts = np.full((8, 4), MAX_TRIALS)
        assert CountsRecord(counts, MAX_TRIALS, 0).total_trials == MAX_TRIALS

    def test_counts_at_int64_max_are_capped_without_wrapping(self, detector):
        # A cell that takes every trial, plus its dark counts, is capped at
        # trials; summed first, the two would wrap negative in int64.
        probs = np.zeros((8, 4))
        probs[0, 0] = 1.0
        detector(EFFICIENCY=1.0)
        assert tomography._dark_mean(MAX_TRIALS) > 1e8
        counts = simulate_counts(probs, MAX_TRIALS, 0).counts
        assert counts[0, 0] == MAX_TRIALS

    def test_integral_trials_of_any_type_accepted(self):
        probs = signal_probabilities(measurement_state(0.1, 0.2))
        expect = simulate_counts(probs, 100, 1).counts
        for trials in (np.int64(100), np.uint64(100)):
            assert np.array_equal(simulate_counts(probs, trials, 1).counts, expect)

    @pytest.mark.parametrize("bad", [2.7, math.nan, math.inf, -0.5])
    def test_non_integral_counts_rejected(self, bad):
        counts = np.full((8, 4), 2.0)
        counts[4, 1] = bad
        with pytest.raises(ValueError, match="counts must be finite whole numbers"):
            CountsRecord(counts, 10, 1)

    def test_non_integer_seed_rejected(self):
        # Named as the seed it is, not as the stream entropy it becomes.
        probs = signal_probabilities(measurement_state(0.1, 0.2))
        for bad, message in ((1.5, r"^seed must be an integer, got 1\.5$"), (-1, "^seed must be nonnegative, got -1$")):
            with pytest.raises(ValueError, match=message):
                simulate_counts(probs, 100, bad)
            with pytest.raises(ValueError, match=message):
                montecarlo_report(0.1, 0.2, 100, bad)
            with pytest.raises(ValueError, match=message):
                CountsRecord(np.zeros((8, 4), dtype=int), 10, seed=bad)
        assert CountsRecord(np.zeros((8, 4), dtype=int), 10, seed=np.int64(3)).seed == 3

    def test_integral_float_counts_accepted(self):
        rec = CountsRecord(np.full((8, 4), 2.0), 10, 1)
        assert rec.counts.dtype == np.int64 and np.all(rec.counts == 2)


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
        rec = simulate_counts(probs, 20000, 5)
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

    @pytest.mark.parametrize("fidelities", [(1.5, F_OPT), (F_OPT, 1.5)])
    def test_fidelity_above_one_rejected(self, fidelities):
        with pytest.raises(ValueError, match=r"fidelity 1.5 outside \[0, 1\]"):
            FidelityReport(*fidelities, 0.0, 0.0, 0.0, 0.0, "montecarlo")

    def test_fidelity_tolerance_is_1e_12(self):
        # Rounding may put a fidelity 1e-12 outside [0, 1], the bound included; no more.
        for fid in (-1e-12, 1.0 + 1e-12):
            assert FidelityReport(fid, fid, 0.0, 0.0, 0.0, 0.0, "exact").fidelity2 == fid
        for fid in (-2e-12, 1.0 + 2e-12):
            with pytest.raises(ValueError, match=rf"^fidelity {re.escape(repr(fid))} outside \[0, 1\]$"):
                FidelityReport(F_OPT, fid, 0.0, 0.0, 0.0, 0.0, "exact")

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
