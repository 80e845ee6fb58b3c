"""Error budget: analytic bound arithmetic and jitter perturbation sweeps."""

import math
import re

import numpy as np
import pytest

from uqcm import errormodel, optics
from uqcm.cli import EXIT_VERIFY, _exact_fidelities, main
from uqcm.errormodel import fidelity_error_bound, perturbation_sweep
from uqcm.hilbert import DensityMatrix, IsometryError, fidelity
from uqcm.optics import HWP, OpticalTrain, PhaseShift, build_cloner_train, modes_to_qubits
from uqcm.tomography import reconstruct_replica, signal_probabilities

from reference import input_state


def reference_sweep(jitter, n_samples, seed, theta, delta, delta_c_total):
    """Sample by sample: one jittered OpticalTrain per sample, scalar draws."""
    base = build_cloner_train(theta, delta)
    psi = input_state(theta, delta)
    f1s, f2s = [], []
    for i in range(n_samples):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        elements = [
            HWP(e.path, e.angle + rng.uniform(-jitter, jitter))
            if isinstance(e, HWP) else e
            for e in base.elements
        ]
        train = OpticalTrain(elements)
        probs = signal_probabilities(modes_to_qubits(train.unitary()[:, 0]))
        u = rng.uniform(-1.0, 1.0, size=4)
        probs[0:4] *= (1.0 + u * (delta_c_total / np.abs(u).sum()))[:, None]
        for rho, out in ((reconstruct_replica(probs, 1), f1s), (reconstruct_replica(probs, 2), f2s)):
            out.append(fidelity(psi, DensityMatrix([1], rho.matrix)))
    return np.array(f1s), np.array(f2s)


class TestAnalyticBound:
    def test_bench_budget(self):
        # Sum dC = 0.002 and dtheta = 0.0018 rad give 0.0047 (quoted as ~0.005).
        assert fidelity_error_bound(0.002, 0.0018) == pytest.approx(0.0047, abs=1e-12)

    def test_zero_budget(self):
        assert fidelity_error_bound(0.0, 0.0) == 0.0

    def test_orientation_only(self):
        assert fidelity_error_bound(0.0, 0.002) == pytest.approx(0.003)

    def test_linear_and_monotone(self):
        b0 = fidelity_error_bound(0.0035, 0.001)
        assert fidelity_error_bound(0.007, 0.002) == pytest.approx(2 * b0)
        assert fidelity_error_bound(0.0036, 0.001) > b0
        assert fidelity_error_bound(0.0035, 0.0011) > b0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.001])
    @pytest.mark.parametrize("argument", ["delta_c_total", "delta_theta"])
    def test_invalid_argument_rejected(self, argument, bad):
        # Each argument on its own, with the other one valid; the message
        # names the argument and repeats the value.
        args = {"delta_c_total": 0.001, "delta_theta": 0.001, argument: bad}
        message = f"^{argument} must be finite and nonnegative, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            fidelity_error_bound(**args)


class TestPerturbationSweep:
    def test_zero_jitter_gives_zero_deviation(self):
        fids = perturbation_sweep(jitter=0.0, n_samples=5, seed=2)
        assert np.max(np.abs(fids - 5 / 6)) < 1e-9

    def test_deterministic_given_seed(self):
        a = perturbation_sweep(jitter=0.0018, n_samples=10, seed=5, delta_c_total=0.002)
        b = perturbation_sweep(jitter=0.0018, n_samples=10, seed=5, delta_c_total=0.002)
        assert a.tobytes() == b.tobytes()

    def test_batch_matches_per_sample_trains(self):
        args = dict(jitter=0.01, n_samples=12, seed=31, theta=0.7, delta=2.4, delta_c_total=0.002)
        fids = perturbation_sweep(**args)
        f1s, f2s = reference_sweep(**args)
        assert np.max(np.abs(fids[0] - f1s)) < 1e-12
        assert np.max(np.abs(fids[1] - f2s)) < 1e-12

    def test_returns_read_only_replica_rows(self):
        # Row r is replica r + 1, one column per sample, the kernel's values
        # bit for bit; each row's mean sums in the perturbed sweep's order.
        args = (0.0018, 0.0, 0.002)
        fids = perturbation_sweep(args[0], 25, 77, theta=0.3, delta=1.1, delta_c_total=args[2])
        assert fids.shape == (2, 25) and fids.dtype == np.float64
        assert fids.flags.c_contiguous and not fids.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fids[0, 0] = 0.0
        kernel = errormodel._jittered_fidelities([0.3], [1.1], [77], 25, args[0], args[2])
        assert kernel.shape == (2, 1, 25) and kernel.flags.c_contiguous
        assert fids[0].tobytes() == kernel[0, 0].tobytes() and fids[1].tobytes() == kernel[1, 0].tobytes()
        assert fids.mean(axis=-1).tobytes() == kernel.mean(axis=-1)[:, 0].tobytes()
        assert [fids[r].mean() for r in (0, 1)] == kernel.mean(axis=-1)[:, 0].tolist()

    def test_mean_deviation_monotone_in_jitter(self):
        means = [
            np.abs(perturbation_sweep(jitter=j, n_samples=60, seed=9)[0] - 5 / 6).mean()
            for j in (0.0009, 0.0018, 0.0036)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_bench_budget_stays_under_analytic_bound(self):
        fids = perturbation_sweep(jitter=0.0018, n_samples=100, seed=13, delta_c_total=0.002)
        devs = np.abs(fids[0] - 5 / 6)
        assert devs.mean() <= 0.005
        assert devs.max() <= 0.005

    def test_one_sample_at_the_default_input(self):
        # One sample is a sweep, and theta and delta default to 0, the |H> input.
        one = perturbation_sweep(jitter=0.01, n_samples=1, seed=4)
        assert one.shape == (2, 1)
        explicit = perturbation_sweep(jitter=0.01, n_samples=1, seed=4, theta=0.0, delta=0.0)
        assert one.tobytes() == explicit.tobytes()
        # Each replica's fidelity moves with the input, not just one of them.
        for other in (perturbation_sweep(0.01, 1, 4, theta=1.0), perturbation_sweep(0.01, 1, 4, delta=1.0)):
            assert one[0].tobytes() != other[0].tobytes()
            assert one[1].tobytes() != other[1].tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            perturbation_sweep(jitter=-0.1, n_samples=5, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            perturbation_sweep(jitter=0.1, n_samples=0, seed=0)
        with pytest.raises(ValueError, match="n_samples must be a positive integer, got 2.5"):
            perturbation_sweep(jitter=0.001, n_samples=2.5, seed=1)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            perturbation_sweep(jitter=0.001, n_samples=3, seed=2.5)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            perturbation_sweep(0.001, 3, -1)
        with pytest.raises(ValueError, match="delta_c_total"):
            perturbation_sweep(jitter=0.1, n_samples=5, seed=0, delta_c_total=-1.0)

    def test_delta_c_total_above_one_rejected(self):
        # A path weight is scaled by 1 + u_i delta_c / sum |u_j| >= 1 - delta_c, which
        # turns negative above 1.
        for bad in (1.0 + 1e-12, 1.5, 3.0, 10.0):
            with pytest.raises(ValueError, match=r"delta_c_total must be finite and in \[0, 1\]"):
                perturbation_sweep(jitter=0.001, n_samples=3, seed=0, delta_c_total=bad)
        fids = perturbation_sweep(jitter=0.001, n_samples=20, seed=4, delta_c_total=1.0)
        assert np.all((fids >= 0.0) & (fids <= 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="jitter must be finite"):
            perturbation_sweep(jitter=bad, n_samples=5, seed=0)
        with pytest.raises(ValueError, match="delta_c_total must be finite"):
            perturbation_sweep(jitter=0.001, n_samples=5, seed=0, delta_c_total=bad)

    def test_unjittered_grid_equals_exact_optics_tier(self):
        # jitter 0 and delta_c 0: every sample is the pristine bench, which
        # the exact sweep's optics tier evaluates through the body isometry.
        theta = np.tile(np.linspace(-1.5, math.pi / 2, 7), 3)
        delta = np.repeat([0.0, 1.3, 5.9], 7)
        fids = errormodel._jittered_fidelities(theta, delta, np.arange(21) + 5, 3, 0.0, 0.0)
        _, f_optics = _exact_fidelities(theta, delta)
        assert fids.shape == (2, 21, 3) and fids.flags.c_contiguous
        assert np.max(np.abs(fids - f_optics.T[:, :, None])) < 1e-12


@pytest.mark.parametrize("jitter, delta_c", [(0.0017, 0.002), (0.035, 0.0)])
def test_train_block_does_not_change_the_fidelities(jitter, delta_c, monkeypatch):
    # 6 points of 100 samples: 86 blocks of 7 trains, which split points,
    # two blocks of 512, and one of the default size.
    theta, delta = np.linspace(-1.4, 1.5, 6), np.array([0.0, 0.7, 1.5, 2.3, 4.0, 6.1])
    seeds = np.arange(6) + 11
    default = errormodel.TRAIN_BLOCK
    assert default >= 600
    results = []
    for block in (7, 512, default):
        monkeypatch.setattr(errormodel, "TRAIN_BLOCK", block)
        results.append(errormodel._jittered_fidelities(theta, delta, seeds, 100, jitter, delta_c).tobytes())
    assert results[0] == results[1] == results[2]


class TestElementUnitarityCheck:
    """Jittered trains are checked element by element: a non-unitary element
    must stop both the single-point sweep and `uqcm sweep --mode perturbed`,
    although normalizing the output column would hide it."""

    N_INPUT = len(optics._input_elements(0.0, 0.0))

    def _scaled_body_element(self, monkeypatch, scale_coefficients, kind, path):
        # One body element's coefficients scaled by 1 + 1e-8:
        # |J^H J - I| ~ 2e-8. Every element's coefficients come from
        # `optics._coefficients`; equal elements elsewhere stay exact.
        body = optics._body_elements()
        monkeypatch.setattr(errormodel, "_body_elements", lambda: body)
        k = next(k for k, e in enumerate(body) if isinstance(e, kind) and e.path == path)
        scale_coefficients(body[k], 1.0 + 1e-8)
        return f"Jones matrix of element {self.N_INPUT + k} ({kind.__name__} on path {path})"

    def _scaled_hwp(self, monkeypatch, scale_coefficients):
        return self._scaled_body_element(monkeypatch, scale_coefficients, HWP, 5)

    def _scaled_phase_shift(self, monkeypatch, scale_coefficients):
        return self._scaled_body_element(monkeypatch, scale_coefficients, PhaseShift, 4)

    def _scaled_bs(self, monkeypatch, scale_coefficients):
        monkeypatch.setattr(optics, "_BS_COUPLING", optics._BS_COUPLING * (1.0 + 1e-8))
        return "BS coupling"

    FAULTS = ["_scaled_hwp", "_scaled_phase_shift", "_scaled_bs"]

    @pytest.mark.parametrize("fault", FAULTS)
    def test_single_point_sweep_raises_naming_the_element(self, fault, monkeypatch, scale_coefficients):
        name = getattr(self, fault)(monkeypatch, scale_coefficients)
        with pytest.raises(IsometryError, match=re.escape(f"{name} is not an isometry")):
            perturbation_sweep(jitter=0.0018, n_samples=3, seed=4, theta=0.3, delta=1.2)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_cli_sweep_exits_3_naming_the_element(self, fault, monkeypatch, scale_coefficients, tmp_path, capsys):
        name = getattr(self, fault)(monkeypatch, scale_coefficients)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("mode = perturbed\ntheta_steps = 2\nsamples = 3\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        assert name in capsys.readouterr().err
        assert not out.exists()
