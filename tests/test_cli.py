"""Harness behavior: config handling, CSV output, exit codes, reproducibility."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from uqcm import cli, errormodel, network, optics, tomography
from uqcm.angles import SolverError
from uqcm.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXACT_BLOCK,
    EXIT_VERIFY,
    MAX_GRID_AXIS,
    PERTURBED_BOUND,
    SweepConfig,
    UsageError,
    _check_reference_oracle,
    _check_tomography_roundtrip,
    _format_matrix,
    build_sweep_config,
    compute_sweep,
    load_config_file,
    main,
    run_verify,
)
from uqcm.errormodel import TRAIN_BLOCK, perturbation_sweep
from uqcm.hilbert import DensityMatrix, IsometryError, PureState, _qubit_stokes, fidelity
from uqcm.network import clone
from uqcm.optics import optical_measurement_state
from uqcm.sweepcsv import CSV_HEADER, format_row, write_csv
from uqcm.tomography import (
    MONTECARLO_BLOCK,
    CountsRecord,
    FidelityReport,
    ReconstructionError,
    _replica_stokes,
    fidelity_report,
    montecarlo_report,
    reconstruct_replica,
    signal_probabilities,
    simulate_counts,
)

from reference import input_state, measurement_state, misaligned_cloner_train, replicas_from_state
from test_package import PERFBENCH, perfbench_constant


def python(*args, **kwargs):
    """A `python *args` child process, with this checkout's src/ as its PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    return subprocess.run([sys.executable, *args], env=env, check=False, **kwargs)


def sweep_rows(config):
    """`compute_sweep` with its blocks collected: (rows, summary, exit_code)."""
    blocks = []
    n_rows, summary, code = compute_sweep(config, blocks.append)
    assert all(block.endswith("\n") for block in blocks)
    rows = "".join(blocks).splitlines()
    assert len(rows) == n_rows
    return rows, summary, code


class TestConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.mode == "exact"
        assert cfg.theta_steps == 19
        assert len(cfg.delta_list) == 4
        grid = cfg.theta_grid()
        assert grid[0] == pytest.approx(-math.pi / 2 + math.pi / 36)
        assert grid[-1] == pytest.approx(math.pi / 2)

    def test_theta_grid_has_every_step_and_keeps_a_single_start(self):
        assert SweepConfig(theta_start=-0.5, theta_end=0.5, theta_steps=2).theta_grid().tolist() == [-0.5, 0.5]
        # One step is theta_start itself: linspace would turn -0.0 into 0.0.
        assert math.copysign(1.0, SweepConfig(theta_start=-0.0, theta_steps=1).theta_grid()[0]) == -1.0

    def test_validation(self):
        with pytest.raises(UsageError, match="mode"):
            SweepConfig(mode="bogus")
        with pytest.raises(UsageError, match="theta_steps"):
            SweepConfig(theta_steps=0)
        with pytest.raises(UsageError, match="theta value"):
            SweepConfig(theta_start=-2.0)
        with pytest.raises(UsageError, match="trials"):
            SweepConfig(trials=0)
        with pytest.raises(UsageError, match="delta_list"):
            SweepConfig(delta_list=())
        # Count-oscillation factors 1 + u_i delta_c / sum |u_j| stay >= 0 only for delta_c <= 1.
        for bad in (-0.1, 1.0 + 1e-12, 1.5, 3.0, 10.0, math.inf, math.nan):
            with pytest.raises(UsageError, match=r"delta_c must be finite and in \[0, 1\]"):
                SweepConfig(mode="perturbed", delta_c=bad)
        assert SweepConfig(mode="perturbed", delta_c=1.0).delta_c == 1.0

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("trials", dict(mode="montecarlo", trials=2.5)),
            ("seed", dict(mode="montecarlo", seed=1.5)),
            ("theta_steps", dict(theta_steps=2.5)),
            ("samples", dict(mode="perturbed", samples=2.5)),
        ],
        ids=["trials", "seed", "theta_steps", "samples"],
    )
    def test_counts_and_seed_must_be_integers(self, field, fields):
        # Rejected before any other rule, and before a sweep could start
        # writing its CSV: the kernels would fail on these partway through.
        with pytest.raises(UsageError, match=rf"^{field} must be an integer, got {fields[field]!r}$"):
            SweepConfig(**fields)
        with pytest.raises(UsageError, match=rf"^{field} must be an integer, got {fields[field]!r}$"):
            SweepConfig(**dict(fields, mode="bogus", theta_start=-2.0))
        # numpy's integers are integers.
        assert getattr(SweepConfig(**dict(fields, **{field: np.int64(3)})), field) == 3

    @pytest.mark.parametrize(
        ("field", "value", "name", "library"),
        [
            ("trials", 0, "trials", lambda v: montecarlo_report(0.1, 0.2, v, 1)),
            ("trials", 2**63, "trials", lambda v: simulate_counts(np.zeros((8, 4)), v, 1)),
            ("seed", -1, "seed", lambda v: montecarlo_report(0.1, 0.2, 100, v)),
            ("jitter_deg", -0.5, "jitter", lambda v: perturbation_sweep(v, 3, 0)),
            ("jitter_deg", math.nan, "jitter", lambda v: perturbation_sweep(v, 3, 0)),
            ("delta_c", 1.5, "delta_c_total", lambda v: perturbation_sweep(0.001, 3, 0, delta_c_total=v)),
        ],
    )
    def test_input_rules_are_the_library_rules(self, field, value, name, library):
        # One rule per input: the config's error is the library's, under the config's name.
        with pytest.raises(ValueError) as lib:
            library(value)
        with pytest.raises(UsageError) as usage:
            SweepConfig(mode="perturbed", **{field: value})
        assert str(usage.value).removeprefix(field) == str(lib.value).removeprefix(name)

    def test_mode_names_are_the_library_tuples(self):
        for command, modes in (("sweep", tomography.SWEEP_MODES), ("tomo", tomography.TOMO_MODES)):
            assert cli._COMMANDS[command]["--mode"] is modes
        with pytest.raises(UsageError, match="^unknown mode 'tomo'$"):
            SweepConfig(mode="tomo")
        with pytest.raises(ValueError, match="^unknown mode 'tomo'$"):
            FidelityReport(0.8, 0.8, 0.0, 0.0, 0.0, 0.0, mode="tomo")

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "mode = montecarlo\n"
            "trials = 500\n"
            "delta_list = 0, 1.57\n"
            "theta_steps = 3\n"
            "out = run=3.csv\n"
        )
        values = load_config_file(str(path))
        assert values["mode"] == "montecarlo"
        assert values["trials"] == 500
        assert values["delta_list"] == (0.0, 1.57)
        assert values["theta_steps"] == 3
        # Only the first '=' splits the key from its value.
        assert values["out"] == "run=3.csv"

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("  # indented comment\nout = run#3.csv # the file\nseed = 7\t# tab\n#seed = 8\n")
        assert load_config_file(str(path)) == {"out": "run#3.csv", "seed": 7}

    def test_hash_inside_a_value_names_the_whole_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("theta_steps = 2\ndelta_list = 0\nout = run#3.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#3.csv", "run.cfg"]

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 1\n# trials = 5\nseed = 2\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}:3: config key 'seed' given twice\n"

    @pytest.mark.parametrize("value", ["0.1,,0.2", "0.1,", ",0.1", "0.1, ,0.2", ","])
    def test_empty_delta_list_item_rejected(self, value, tmp_path, capsys):
        path, out = tmp_path / "gap.cfg", tmp_path / "x.csv"
        path.write_text(f"theta_steps = 2\ndelta_list = {value}\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: bad value for 'delta_list': could not convert string to float: ")
        assert not out.exists()

    def test_repeated_delta_rejected(self, tmp_path, capsys):
        # A repeated delta would sweep its points twice, each copy from its own seed.
        path, out = tmp_path / "twice.cfg", tmp_path / "x.csv"
        path.write_text("mode = montecarlo\ntheta_steps = 2\ndelta_list = 0, 0\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}:3: bad value for 'delta_list': delta value 0.0 given twice\n"
        assert not out.exists()
        with pytest.raises(UsageError, match=r"^delta_list: delta value 1.0 given twice$"):
            SweepConfig(delta_list=(1.0, 0.5, 1.0))

    def test_equal_theta_bounds_take_one_step(self, tmp_path, capsys):
        # Equal bounds over several steps would sweep one input several times.
        path, out = tmp_path / "flat.cfg", tmp_path / "x.csv"
        path.write_text("mode = montecarlo\ntheta_start = 0.5\ntheta_end = 0.5\ntheta_steps = 3\ndelta_list = 0\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: theta_end equals theta_start, so theta_steps must be 1, got 3\n"
        assert not out.exists()
        assert SweepConfig(theta_start=0.5, theta_end=0.5, theta_steps=1).theta_grid().tolist() == [0.5]
        with pytest.raises(UsageError, match="^theta_end equals theta_start, so theta_steps must be 1, got 2$"):
            SweepConfig(theta_start=0.5, theta_end=0.5, theta_steps=2)

    def test_theta_end_below_theta_start_rejected(self, tmp_path, capsys):
        path, out = tmp_path / "down.cfg", tmp_path / "x.csv"
        path.write_text("theta_start = 0.5\ntheta_end = 0.25\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: theta_end must be >= theta_start\n"
        assert not out.exists()

    def test_deltas_that_print_alike_rejected(self, tmp_path, capsys):
        # 0.1 and 0.1000000001 both print as 0.100000000: each row would come twice.
        path, out = tmp_path / "close.cfg", tmp_path / "x.csv"
        path.write_text("theta_steps = 1\ndelta_list = 0.1, 0.1000000001\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {path}:2: bad value for 'delta_list': delta values 0.1 and 0.1000000001 lie closer than 2e-09\n")
        assert not out.exists()
        with pytest.raises(UsageError, match=r"^delta_list: delta values 1.0 and 1.0000000019 lie closer than 2e-09$"):
            SweepConfig(delta_list=(1.0000000019, 0.5, 1.0))
        # MIN_GRID_SPACING apart, the two print apart.
        assert [f"{d:.9f}" for d in SweepConfig(delta_list=(2e-9, 0.0)).delta_list] == ["0.000000000", "0.000000002"]

    def test_thetas_that_print_alike_rejected(self, tmp_path, capsys):
        # Bounds one ulp apart: a 3-step grid would print 0.500000000 three times.
        path, out = tmp_path / "close.cfg", tmp_path / "x.csv"
        path.write_text("theta_start = 0.5\ntheta_end = 0.5000000000000001\ntheta_steps = 3\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: theta_start 0.5 and theta_end 0.5000000000000001 over 3 steps give thetas closer than 2e-09\n")
        assert not out.exists()
        # No theta range holds 10**15 steps that print apart; none is allocated.
        with pytest.raises(UsageError, match="over 1000000000000000 steps give thetas closer than 2e-09$"):
            SweepConfig(theta_steps=10**15)
        # Two steps are one spacing.
        with pytest.raises(UsageError, match="over 2 steps give thetas closer than 2e-09$"):
            SweepConfig(theta_start=0.5, theta_end=0.5 + 1e-9, theta_steps=2)
        # Steps of MIN_GRID_SPACING print apart.
        grid = SweepConfig(theta_start=0.0, theta_end=4e-9, theta_steps=3).theta_grid()
        assert [f"{t:.9f}" for t in grid] == ["0.000000000", "0.000000002", "0.000000004"]

    def test_empty_delta_list_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("delta_list = \n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: delta_list must not be empty\n"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gain = 11\n")
        with pytest.raises(UsageError, match="unknown config key"):
            load_config_file(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(UsageError, match="cannot read"):
            load_config_file("/no/such/file.cfg")

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = exact\nseed = 1\n")
        cfg = build_sweep_config({"config": str(path), "mode": "montecarlo"})
        assert cfg.mode == "montecarlo"
        assert cfg.seed == 1


class TestSweep:
    def test_exact_rows_pinned_to_reference(self, tmp_path):
        cfg = SweepConfig(theta_steps=3, delta_list=(0.0,), out=str(tmp_path / "x.csv"))
        rows, summary, code = sweep_rows(cfg)
        assert code == EXIT_OK
        assert len(rows) == 6
        for row in rows:
            fields = row.split(",")
            assert fields[0] == "exact"
            assert fields[4] == "0.833333333"
            assert fields[5] == "0.000000000"
        assert any("PASS" in line for line in summary)

    def test_rows_sorted_by_delta_theta_replica(self):
        cfg = SweepConfig(theta_steps=2, delta_list=(1.0, 0.0))
        rows, _, _ = sweep_rows(cfg)
        keys = []
        for row in rows:
            f = row.split(",")
            keys.append((float(f[1]), float(f[2]), int(f[3])))
        assert keys == sorted(keys)

    def test_exact_rows_match_per_point_route(self):
        # The grid pass against one clone + one optical_measurement_state per point.
        cfg = SweepConfig(theta_start=-1.2, theta_end=math.pi / 2, theta_steps=7, delta_list=(6.2, 0.0, 1.3))
        rows, summary, code = sweep_rows(cfg)
        thetas = cfg.theta_grid()
        assert thetas[-1] == math.pi / 2
        expect, worst_optics = [], 0.0
        for delta in (0.0, 1.3, 6.2):
            for theta in thetas:
                res = clone(theta, delta)
                expect += [
                    format_row("exact", delta, theta, r, f, 0.0, cfg.seed)
                    for r, f in ((1, res.fidelity1), (2, res.fidelity2))
                ]
                psi = input_state(theta, delta)
                for rho in replicas_from_state(optical_measurement_state(theta, delta)):
                    worst_optics = max(worst_optics, abs(fidelity(psi, DensityMatrix([1], rho.matrix)) - 5 / 6))
        assert rows == expect
        assert worst_optics < 1e-12
        assert code == EXIT_OK
        assert summary[0] == "exact sweep: 42 rows over 3 delta x 7 theta"
        assert summary[-1].startswith("PASS")

    @pytest.mark.parametrize("module", [network, optics])
    def test_exact_check_fails_with_corrupted_network(self, module, monkeypatch):
        # Triplicator prep angles compile a different image (gate tier) or
        # body isometry (optics tier): complex inputs then miss 5/6, by an
        # amount that depends on the point. 270 points span two array blocks.
        # The body isometry is compiled once, so the optics tier gets a fresh cache.
        monkeypatch.setattr(module, "cloner_prep_angles", network.triplicator_prep_angles)
        monkeypatch.setattr(optics, "_body_isometry", functools.cache(optics._body_isometry.__wrapped__))
        cfg = SweepConfig(theta_steps=90, delta_list=(0.0, 1.3, 2.0))
        assert len(cfg.theta_grid()) * len(cfg.delta_list) > EXACT_BLOCK
        rows, summary, code = sweep_rows(cfg)
        assert code == EXIT_VERIFY
        assert summary[-1].startswith("FAIL")
        expect, worst_gate, worst_optics = [], 0.0, 0.0
        for delta in cfg.delta_list:
            for theta in cfg.theta_grid():
                res = clone(theta, delta)
                for r, f in ((1, res.fidelity1), (2, res.fidelity2)):
                    expect.append(format_row("exact", delta, theta, r, f, 0.0, cfg.seed))
                    worst_gate = max(worst_gate, abs(f - 5 / 6))
                psi = input_state(theta, delta)
                for rho in replicas_from_state(optical_measurement_state(theta, delta)):
                    worst_optics = max(worst_optics, abs(fidelity(psi, DensityMatrix([1], rho.matrix)) - 5 / 6))
        assert rows == expect
        gate, optics_tier = (float(ln.split()[-1]) for ln in summary[1:3])
        assert gate == pytest.approx(worst_gate, rel=1e-3)
        assert optics_tier == pytest.approx(worst_optics, rel=1e-3)
        assert max(gate, optics_tier) > 1e-3

    # Grids the default sweeps do not cover: one delta, one theta, one
    # sample (no spread) and two (a spread), no count oscillation, two seeds,
    # and grids whose trains or points span several blocks.
    GRID_CASES = [
        dict(mode="perturbed", theta_steps=1, delta_list=(1.1,), samples=1, seed=3),
        dict(mode="perturbed", theta_steps=1, delta_list=(0.7,), samples=2, seed=12),
        dict(mode="perturbed", theta_steps=3, delta_list=(0.0, 2.5), samples=4, delta_c=0.0, seed=8),
        dict(mode="perturbed", theta_steps=2, delta_list=(0.3,), samples=600, jitter_deg=0.5, seed=5),
        dict(mode="montecarlo", theta_steps=1, delta_list=(2.0,), trials=300, seed=9),
        dict(mode="montecarlo", theta_steps=5, delta_list=(0.5, 4.0), trials=777, seed=21),
        # A base seed of three 32-bit words; one case without any jitter or
        # count oscillation at all.
        dict(mode="perturbed", theta_steps=3, delta_list=(0.4, 1.9), samples=6, jitter_deg=0.3, seed=2**64 + 5),
        dict(mode="perturbed", theta_steps=2, delta_list=(2.2,), samples=3, jitter_deg=0.0, delta_c=0.0,
             seed=2**64 + 5),
        dict(mode="montecarlo", theta_steps=2, delta_list=(0.4, 5.1), trials=900, seed=2**64 + 5),
    ]

    @pytest.mark.parametrize("case", GRID_CASES, ids=lambda c: f"{c['mode']}-seed{c['seed']}")
    def test_grid_pass_matches_single_point_references(self, case):
        cfg = SweepConfig(**case)
        rows, summary, code = sweep_rows(cfg)
        expect, point_devs, point_errs, n_exceed = [], [], [], 0
        for i_d, delta in enumerate(cfg.delta_list):
            for i_t, theta in enumerate(cfg.theta_grid()):
                seed = int(np.random.SeedSequence((cfg.seed, i_d, i_t)).generate_state(1)[0])
                if cfg.mode == "montecarlo":
                    rep = montecarlo_report(theta, delta, cfg.trials, seed)
                    stats = ((rep.fidelity1, rep.stderr1), (rep.fidelity2, rep.stderr2))
                    point_devs += [abs(f - 5 / 6) for f, _ in stats]
                    point_errs += [e for _, e in stats]
                else:
                    fids = perturbation_sweep(
                        math.radians(cfg.jitter_deg), cfg.samples, seed, theta=theta, delta=delta,
                        delta_c_total=cfg.delta_c,
                    )
                    stats = [(float(np.mean(fs)), float(np.std(fs, ddof=1)) if len(fs) > 1 else 0.0) for fs in fids]
                    devs = np.abs(fids[0] - 5 / 6)
                    point_devs.append(float(devs.mean()))
                    n_exceed += int(np.sum(devs > PERTURBED_BOUND))
                expect += [format_row(cfg.mode, delta, theta, r, f, e, seed) for r, (f, e) in enumerate(stats, 1)]
        assert code == EXIT_OK
        assert rows == expect
        if cfg.mode == "montecarlo":
            assert summary[1] == f"max |F - 5/6| = {max(point_devs):.6f}, max bootstrap stderr = {max(point_errs):.6f}"
        else:
            assert summary[2].startswith(f"max mean |F - 5/6| over grid = {max(point_devs):.6f} ")
            assert summary[3].startswith(f"samples exceeding bound: {n_exceed} ")

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3])
    def test_point_seeds_are_seed_sequence_words(self, seed):
        cfg = SweepConfig(mode="montecarlo", theta_steps=3, delta_list=(0.0, 1.0), trials=50, seed=seed)
        rows, _, _ = sweep_rows(cfg)
        assert [int(r.split(",")[-1]) for r in rows[::2]] == [
            int(np.random.SeedSequence((seed, i_d, i_t)).generate_state(1)[0]) for i_d in range(2) for i_t in range(3)
        ]

    def test_sweep_batches_stay_within_blocks(self, monkeypatch):
        # Memory is bounded by the block constants, not by the grid or the
        # sample count: record every batch reaching the two array kernels.
        propagated, refitted = [], []
        propagate, replica_stokes = errormodel._propagate, tomography._replica_stokes

        def spy_propagate(elements, m, offsets=None):
            propagated.append(m.shape)
            return propagate(elements, m, offsets)

        def spy_replica_stokes(counts, replicas=(1, 2)):
            refitted.append(np.shape(counts))
            return replica_stokes(counts, replicas)

        monkeypatch.setattr(errormodel, "_propagate", spy_propagate)
        monkeypatch.setattr(errormodel, "_replica_stokes", spy_replica_stokes)
        monkeypatch.setattr(tomography, "_replica_stokes", spy_replica_stokes)

        # A perturbed block holds as many whole points of 40 samples as fit
        # in TRAIN_BLOCK trains, and the 76 points take several blocks.
        per_block = TRAIN_BLOCK // 40
        sweep_rows(SweepConfig(mode="perturbed", samples=40, seed=2))
        assert len(propagated) == -(-76 // per_block) > 1
        assert sum(shape[0] for shape in propagated) == 76 * 40
        assert max(shape for shape in propagated) == (per_block * 40, 16, 1)
        assert max(shape[0] for shape in refitted) == per_block * 40

        refitted.clear()
        sweep_rows(SweepConfig(mode="montecarlo", trials=500, seed=2))
        points = [shape[0] for shape in refitted if len(shape) == 3]
        draws = [shape for shape in refitted if len(shape) == 4]
        assert sum(points) == 76 and max(points) == MONTECARLO_BLOCK
        assert max(draws) == (MONTECARLO_BLOCK, 50, 8, 4)
        assert len(points) + len(draws) == len(refitted)

    def test_montecarlo_has_stderr_column(self):
        cfg = SweepConfig(mode="montecarlo", theta_steps=2, delta_list=(0.0,), trials=2000)
        rows, summary, code = sweep_rows(cfg)
        assert code == EXIT_OK
        assert all(float(r.split(",")[5]) > 0 for r in rows)

    def test_deviation_at_the_tolerance_passes(self, monkeypatch):
        # Only a deviation above EXACT_TOL fails: both tiers of the default
        # grid reach 3.3306690738754696e-16 at most, so that tolerance passes.
        monkeypatch.setattr(cli, "EXACT_TOL", 3.3306690738754696e-16)
        _, summary, code = sweep_rows(SweepConfig())
        assert code == EXIT_OK
        assert summary[1:] == [
            "max |F - 5/6| gate tier:   3.331e-16",
            "max |F - 5/6| optics tier: 3.331e-16",
            "PASS: all fidelities within 3.3e-16 of 5/6",
        ]

    def test_perturbed_summary_reports_bound(self):
        cfg = SweepConfig(mode="perturbed", theta_steps=1, delta_list=(0.0,), samples=5)
        rows, summary, code = sweep_rows(cfg)
        assert code == EXIT_OK
        assert len(rows) == 2
        assert any("0.005" in line for line in summary)
        assert any("analytic bound" in line for line in summary)

    def test_csv_byte_identical_across_runs(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        code1 = main(["sweep", "--mode", "montecarlo", "--trials", "2000",
                      "--seed", "9", "--out", out1])
        code2 = main(["sweep", "--mode", "montecarlo", "--trials", "2000",
                      "--seed", "9", "--out", out2])
        assert code1 == code2 == EXIT_OK
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_csv_header_and_shape(self, tmp_path, capsys):
        # 70 theta steps x 4 deltas are 280 montecarlo points, two calls of
        # the counting kernel; every call's rows reach the CSV.
        config = tmp_path / "two-calls.cfg"
        config.write_text("mode = montecarlo\ntheta_steps = 70\n")
        assert cli.MONTECARLO_SWEEP_BLOCK < 70 * 4 <= 2 * cli.MONTECARLO_SWEEP_BLOCK
        for mode, argv, points in (("exact", [], 19 * 4), ("montecarlo", ["--config", str(config)], 70 * 4)):
            out = tmp_path / f"{mode}.csv"
            assert main(["sweep", *argv, "--out", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""
            lines = out.read_text(encoding="ascii").splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == 1 + points * 2
            assert all(line.startswith(f"{mode},") for line in lines[1:])


class TestStreamedOutput:
    """Blocks reach the CSV as they are computed; `--out` is replaced whole
    or left as it was."""

    def test_block_sizes_per_mode(self, monkeypatch):
        # Kernel calls per block, with stand-in kernels so that no grid is
        # actually scored: 257 points make one full block and one point in
        # exact and montecarlo mode, and several perturbed blocks.
        sizes = []
        per_block = TRAIN_BLOCK // 25
        n_blocks = -(-257 // per_block)

        def fake(theta, delta, *args, **kwargs):
            sizes.append(len(theta))
            return np.full((len(theta), 2), 5 / 6), np.full((len(theta), 2), 5 / 6)

        def fake_montecarlo(theta, delta, seeds, trials):
            return (*fake(theta, delta), np.zeros((len(theta), 2, 3)))

        def fake_jittered(theta, delta, seeds, samples, jitter, delta_c):
            sizes.append(len(theta))
            return np.full((2, len(theta), samples), 5 / 6)

        monkeypatch.setattr(cli, "_exact_fidelities", fake)
        monkeypatch.setattr(cli, "_montecarlo_fidelities", fake_montecarlo)
        monkeypatch.setattr(cli, "_jittered_fidelities", fake_jittered)
        grid = dict(theta_steps=257, delta_list=(0.5,))
        for mode, samples, expect in [
            ("exact", 25, [EXACT_BLOCK, 1]),
            ("montecarlo", 25, [cli.MONTECARLO_SWEEP_BLOCK, 1]),
            ("perturbed", 25, [per_block] * (n_blocks - 1) + [257 - (n_blocks - 1) * per_block]),
            ("perturbed", TRAIN_BLOCK + 1, [1] * 257),
        ]:
            sizes.clear()
            rows, _, code = sweep_rows(SweepConfig(mode=mode, samples=samples, **grid))
            assert (sizes, len(rows), code) == (expect, 2 * 257, EXIT_OK)
        assert EXACT_BLOCK == 256 and cli.MONTECARLO_SWEEP_BLOCK % MONTECARLO_BLOCK == 0 and n_blocks > 2
        # The default montecarlo grid is one kernel call.
        assert 19 * 4 <= cli.MONTECARLO_SWEEP_BLOCK

    def test_run_sweep_calls_the_module_names(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer wraps cli.compute_sweep and cli.write_csv by
        # name; run_sweep must look both up there at call time.
        calls = []
        for name in ("compute_sweep", "write_csv"):
            def wrapper(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, wrapper)
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == EXIT_OK
        capsys.readouterr()
        assert calls == ["write_csv", "compute_sweep"]

    @staticmethod
    def _prior(tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"an earlier sweep\n")
        return out

    @staticmethod
    def _assert_untouched(out):
        assert out.read_bytes() == b"an earlier sweep\n"
        assert sorted(p.name for p in out.parent.iterdir()) == [out.name]

    def test_isometry_failure_in_second_block_keeps_prior_output(self, tmp_path, monkeypatch, capsys):
        out = self._prior(tmp_path)
        calls, exact = [], cli._exact_fidelities

        def fail_second(theta, delta):
            calls.append(len(theta))
            if len(calls) == 2:
                raise IsometryError("bench body is not an isometry (dev 1.000e-03)")
            return exact(theta, delta)

        monkeypatch.setattr(cli, "_exact_fidelities", fail_second)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("theta_steps = 100\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        assert calls == [EXACT_BLOCK, 100 * 4 - EXACT_BLOCK]
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("verification error: bench body")
        cfg.unlink()
        self._assert_untouched(out)

    def test_non_ascii_text_raises_and_keeps_prior_output(self, tmp_path):
        out = self._prior(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            write_csv(str(out), lambda write: write("exact,\u03b8\n"))
        self._assert_untouched(out)

    def test_sparse_counts_keep_prior_output(self, tmp_path, capsys):
        # The montecarlo grid fails after the header has gone to the temporary file.
        out = self._prior(tmp_path)
        assert main(["sweep", "--mode", "montecarlo", "--trials", "1", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: replica ")
        self._assert_untouched(out)

    # A theta axis that large has steps under MIN_GRID_SPACING and is
    # refused first (test_thetas_that_print_alike_rejected).
    @pytest.mark.parametrize("key", ["samples"])
    def test_grid_too_large_to_allocate_is_a_usage_error(self, key, tmp_path, capsys):
        # numpy refuses 10**15 samples at once, before any work.
        cfg, out = tmp_path / "huge.cfg", tmp_path / "x.csv"
        small = {"theta_steps": 2, "samples": 25, key: 10**15}
        cfg.write_text("mode = perturbed\ndelta_list = 0\n" + "".join(f"{k} = {v}\n" for k, v in small.items()))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: Unable to allocate ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]

    @pytest.mark.parametrize(
        "lines",
        [
            "mode = perturbed\nsamples = 100000000000000000000000\n",
            "theta_steps = 100000000000000000000000\n",
            "mode = perturbed\ntheta_steps = 1\ndelta_list = 0\nsamples = 9223372036854775807\n",
            f"samples = {MAX_GRID_AXIS + 1}\n",
        ],
    )
    def test_grid_too_large_to_describe_is_a_usage_error(self, lines, tmp_path, capsys):
        # Beyond MAX_GRID_AXIS numpy raises ValueError, not MemoryError: the
        # config itself is refused, naming the field, before any file is made.
        cfg, out = tmp_path / "huge.cfg", tmp_path / "x.csv"
        cfg.write_text(lines)
        key = lines.splitlines()[-1].split(" = ")[0]
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        out_text, err = capsys.readouterr()
        assert out_text == "" and err == f"error: {key} must be >= 1 and <= {MAX_GRID_AXIS}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]

    def test_largest_grid_axis_is_accepted(self):
        cfg = SweepConfig(mode="perturbed", theta_steps=1, samples=MAX_GRID_AXIS)
        assert cfg.samples == MAX_GRID_AXIS == 2**59 - 1
        # MAX_GRID_AXIS theta steps pass the count check, but no theta range
        # holds that many steps MIN_GRID_SPACING apart.
        with pytest.raises(UsageError, match="steps give thetas closer than 2e-09$"):
            SweepConfig(theta_steps=MAX_GRID_AXIS)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_csv_mode_follows_the_umask(self, umask, tmp_path, capsys):
        out = tmp_path / "new.csv"
        old = os.umask(umask)
        try:
            assert main(["sweep", "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_replaced_csv_keeps_its_mode(self, tmp_path, capsys):
        out = self._prior(tmp_path)
        out.chmod(0o640)
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text(encoding="ascii").startswith(CSV_HEADER + "\n")

    def test_unwritable_output_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        # A read-only file is not replaced, as open() would not truncate it;
        # os.access stands in for a user without write permission.
        out = self._prior(tmp_path)
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, m: False if os.fspath(p) == str(out) else access(p, m))
        assert main(["sweep", "--out", str(out)]) == EXIT_IO
        assert "Permission denied" in capsys.readouterr().err
        self._assert_untouched(out)

    def test_symlinked_output_keeps_the_link(self, tmp_path, capsys):
        target, link = tmp_path / "data" / "sweep.csv", tmp_path / "latest.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["sweep", "--out", str(link)]) == EXIT_OK
        capsys.readouterr()
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert len(target.read_text(encoding="ascii").splitlines()) == 1 + 19 * 4 * 2
        assert sorted(p.name for p in target.parent.iterdir()) == ["sweep.csv"]

    def test_directory_output_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "dir.csv"
        out.mkdir()
        assert main(["sweep", "--out", str(out)]) == EXIT_IO
        capsys.readouterr()
        assert list(out.iterdir()) == [] and [p.name for p in tmp_path.iterdir()] == ["dir.csv"]

    @pytest.mark.parametrize(
        "argv",
        [["--out", "newdir/"], ["--out", "existing/"], ["--out", ""], ["--out", "newdir/."], ["--config", "../empty-out.cfg"]],
    )
    def test_output_named_as_a_directory_is_an_io_error(self, argv, tmp_path, monkeypatch, capsys):
        # realpath drops a trailing separator and turns "" into the working
        # directory; open() refuses each form, before the sweep runs, and no
        # file is left anywhere.
        (tmp_path / "run" / "existing").mkdir(parents=True)
        (tmp_path / "empty-out.cfg").write_text("out =\n")
        monkeypatch.chdir(tmp_path / "run")
        monkeypatch.setattr(cli, "compute_sweep", lambda *args: pytest.fail("the sweep ran"))
        name = argv[1] if argv[0] == "--out" else ""
        with pytest.raises(OSError) as refused:
            open(name, "w")
        assert main(["sweep", *argv]) == EXIT_IO
        assert capsys.readouterr().err == f"I/O error writing {name!r}: {refused.value.strerror}\n"
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "empty-out.cfg", "run", os.path.join("run", "existing"),
        ]

    def test_non_regular_output_is_written_directly(self, capsys):
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
        assert main(["sweep", "--out", os.devnull]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"wrote {19 * 4 * 2} rows to {os.devnull}\n")

    def test_output_that_is_stdout_goes_through_sys_stdout(self, tmp_path, monkeypatch):
        # In process: --out names the file sys.stdout is open on, so the CSV
        # and then the summary go through sys.stdout, and no temporary file
        # replaces it.
        listing = tmp_path / "listing.txt"
        with open(listing, "w", encoding="ascii") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            assert main(["sweep", "--out", str(listing)]) == EXIT_OK
        lines = listing.read_text(encoding="ascii").splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + 19 * 4 * 2 + 5
        assert lines[1 + 19 * 4 * 2] == f"wrote {19 * 4 * 2} rows to {listing}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["listing.txt"]

    def test_stdout_redirected_to_a_file_keeps_csv_and_summary(self, tmp_path):
        # --out /dev/stdout with stdout redirected to a regular file: the CSV
        # goes through sys.stdout, so the summary lines follow it there.
        listing = tmp_path / "listing.txt"
        with open(listing, "wb") as fh:
            proc = python("-m", "uqcm.cli", "sweep", "--out", "/dev/stdout", stdout=fh, stderr=subprocess.PIPE,
                          cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        lines = listing.read_text(encoding="ascii").splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + 19 * 4 * 2 + 5
        assert lines[1 + 19 * 4 * 2] == f"wrote {19 * 4 * 2} rows to /dev/stdout"
        assert lines[-1] == "PASS: all fidelities within 1.0e-09 of 5/6"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["listing.txt"]

    def test_every_output_branch_writes_the_same_bytes(self, tmp_path, capsys):
        # Over several blocks: a regular file (temporary file, then replace),
        # a FIFO (opened and written directly) and /dev/stdout in a child
        # whose stdout is a pipe (written through sys.stdout).
        config, regular, fifo = tmp_path / "multi.cfg", tmp_path / "regular.csv", tmp_path / "fifo"
        config.write_text("theta_steps = 300\n")
        assert main(["sweep", "--config", str(config), "--out", str(regular)]) == EXIT_OK
        summary, expected = capsys.readouterr().out, regular.read_bytes()
        assert expected.count(b"\n") == 1 + 2 * 300 * 4

        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert main(["sweep", "--config", str(config), "--out", str(fifo)]) == EXIT_OK
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive() and received == [expected]
        assert capsys.readouterr().out == summary.replace(str(regular), str(fifo))

        proc = python("-m", "uqcm.cli", "sweep", "--config", str(config), "--out", "/dev/stdout",
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == expected + summary.replace(str(regular), "/dev/stdout").encode("ascii")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "multi.cfg", "regular.csv"]

    def test_exact_sweep_memory_does_not_grow_with_the_grid(self, tmp_path):
        def peak(theta_steps):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cfg = SweepConfig(theta_steps=theta_steps, out=str(tmp_path / f"{theta_steps}.csv"))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_sweep(cfg) == EXIT_OK
            return tracemalloc.get_traced_memory()[1] - start

        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_sweep(SweepConfig(theta_steps=300, out=str(tmp_path / "warm.csv")))
        tracemalloc.start()
        try:
            small, large = peak(2_000), peak(20_000)
        finally:
            tracemalloc.stop()
        assert large - small < 1_000_000, (small, large)
        assert len((tmp_path / "20000.csv").read_bytes().splitlines()) == 1 + 20_000 * 4 * 2

    def test_montecarlo_sweep_memory_does_not_grow_with_the_grid(self, tmp_path):
        # 64 theta steps are one full kernel call of MONTECARLO_SWEEP_BLOCK
        # points and 320 steps are five: the kernel seeds, prices and draws a
        # whole call at once, so its peak is bounded by the call, not the grid.
        def peak(theta_steps):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cfg = SweepConfig(mode="montecarlo", trials=500, theta_steps=theta_steps,
                              out=str(tmp_path / f"{theta_steps}.csv"))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_sweep(cfg) == EXIT_OK
            return tracemalloc.get_traced_memory()[1] - start

        assert 64 * 4 == cli.MONTECARLO_SWEEP_BLOCK
        cfg = SweepConfig(mode="montecarlo", trials=500, theta_steps=20, out=str(tmp_path / "warm.csv"))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_sweep(cfg)
        tracemalloc.start()
        try:
            small, large = peak(64), peak(320)
        finally:
            tracemalloc.stop()
        assert large - small < 1_000_000, (small, large)
        assert len((tmp_path / "320.csv").read_bytes().splitlines()) == 1 + 320 * 4 * 2


class TestGoldenCsv:
    """The default sweep CSVs are pinned byte for byte (Python 3.11, numpy 2.4)."""

    # The versions the pins were recorded with, read from perfbench/golden.json:
    # a mismatch under other versions names both.
    _RECORDED = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    VERSIONS = (
        f"pinned with numpy {_RECORDED['numpy']} and Python {_RECORDED['python']}, "
        f"running numpy {np.__version__} and Python {platform.python_version()}"
    )

    GOLDEN_SHA256 = {
        "exact": "7a790a2eb13a029f03cbcadcd4057c49b9efa3c4f269ec1f4426c82b74f67e03",
        "montecarlo": "053ab2149ce42455291ef2a51d5084b4421a69d2e26178d21c42957710c9385c",
        "perturbed": "333b2dfccd6dc83894372f98912ff861ea7e45bf79b25267cac7fdc313e93e89",
    }

    # The summary lines below the "wrote ... rows" line, recorded with the
    # hashes' numpy before the gate runner and the click table became
    # whole-batch products.
    SUMMARY = {
        "exact": (
            "exact sweep: 152 rows over 4 delta x 19 theta\n"
            "max |F - 5/6| gate tier:   3.331e-16\n"
            "max |F - 5/6| optics tier: 3.331e-16\n"
            "PASS: all fidelities within 1.0e-09 of 5/6\n"
        ),
        "montecarlo": (
            "montecarlo sweep: trials=20000 per basis setting, base seed=42\n"
            "max |F - 5/6| = 0.021734, max bootstrap stderr = 0.013674\n"
        ),
        "perturbed": (
            "perturbed sweep: jitter=0.1 deg, delta_c=0.002, samples=25 per point\n"
            "analytic bound sum(dC) + 1.5*dtheta = 0.0046\n"
            "max mean |F - 5/6| over grid = 0.002046 (reference bound 0.005)\n"
            "samples exceeding bound: 5 (flagged, not fatal)\n"
        ),
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
    def test_default_sweep_csv_hash(self, mode, tmp_path, capsys):
        out = tmp_path / f"{mode}.csv"
        assert main(["sweep", "--mode", mode, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote 152 rows to {out}\n" + self.SUMMARY[mode], self.VERSIONS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_SHA256[mode], self.VERSIONS

    # Base seeds of two and three 32-bit words, recorded while every stream
    # was still built as Generator(PCG64(SeedSequence(...))) one by one.
    MULTIWORD_SHA256 = {
        ("montecarlo", 2**32): "dd9a26053561a1034830e86974aeda60eb6f00a211b9ba6f08ec3988798c0669",
        ("montecarlo", 2**64 + 5): "cc19e06061955aa9eeb5a2efb5f1f438a82c5c95893b0f1b7d19b08294b70f09",
        ("perturbed", 2**32): "bef2eda2c13cbbd9f150267bd1d998d5f541290686c7e02560e45e6caf57c78c",
        ("perturbed", 2**64 + 5): "525761003fcccdeb7ac054de6ec4f4d714c3d2a29cd393231db139e9b016b469",
    }

    @pytest.mark.parametrize("mode, seed", sorted(MULTIWORD_SHA256))
    def test_multiword_seed_sweep_csv_hash(self, mode, seed, tmp_path, capsys):
        out = tmp_path / f"{mode}.csv"
        assert main(["sweep", "--mode", mode, "--seed", str(seed), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MULTIWORD_SHA256[mode, seed], self.VERSIONS

    # 300 theta steps x the 4 default deltas: 1,200 points in five
    # EXACT_BLOCK blocks, the last one partial.
    MULTIBLOCK_SHA256 = "603c80f51c50bbdbd3785e0761fa5936238ac5d2fe654e8e6d05f3b5f56de0e0"

    def test_multiblock_exact_sweep_csv_hash(self, tmp_path, capsys):
        config, out = tmp_path / "multi.cfg", tmp_path / "multi.csv"
        config.write_text("theta_steps = 300\n")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"wrote 2400 rows to {out}\n"
            "exact sweep: 2400 rows over 4 delta x 300 theta\n"
            "max |F - 5/6| gate tier:   3.331e-16\n"
            "max |F - 5/6| optics tier: 7.772e-16\n"
            "PASS: all fidelities within 1.0e-09 of 5/6\n"
        ), self.VERSIONS
        assert -(-300 * 4 // EXACT_BLOCK) == 5
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MULTIBLOCK_SHA256, self.VERSIONS


class TestExitCodes:
    def test_usage_error_from_bad_flag_value(self, capsys):
        assert main(["sweep", "--mode", "bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_usage_error_from_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = -5\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        capsys.readouterr()

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"seed = \xff\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert "Traceback" not in err

    def test_delta_outside_range_in_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("delta_list = 7.0\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert "delta value 7.0 outside" in capsys.readouterr().err

    # delta_c above 1 could make a path weight negative: the same usage error.
    @pytest.mark.parametrize("line", ["jitter_deg = inf", "delta_c = nan", "delta_c = 1.5", "delta_c = 3", "delta_c = 10"])
    def test_nonfinite_jitter_or_delta_c_in_config(self, line, tmp_path, capsys):
        path, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
        path.write_text(f"mode = perturbed\n{line}\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_c_of_one_runs(self, tmp_path, capsys):
        path, out = tmp_path / "edge.cfg", tmp_path / "x.csv"
        path.write_text("mode = perturbed\ntheta_steps = 3\ndelta_list = 0\nsamples = 3\ndelta_c = 1.0\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "" and out.exists()

    @pytest.mark.parametrize("command", ["sweep", "tomo"])
    def test_trials_beyond_int64_range(self, command, tmp_path, capsys):
        # numpy's multinomial draw would raise OverflowError on these.
        argv = [command, "--mode", "montecarlo", "--trials", str(10**20)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: trials must be at most 9223372036854775807, got {10**20}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_trials_beyond_int64_range_in_config(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text(f"mode = montecarlo\ntrials = {2**63}\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert "trials must be" in capsys.readouterr().err
        assert SweepConfig(mode="montecarlo", trials=2**63 - 1).trials == 2**63 - 1

    def test_negative_seed(self, capsys):
        # The library's own seed rule, as a usage error, in both commands.
        for command in ("sweep", "tomo"):
            assert main([command, "--mode", "montecarlo", "--seed", "-1"]) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error: seed must be nonnegative, got -1\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "montecarlo", "--theta", "3"],
            ["--mode", "montecarlo", "--delta", "-0.5"],
            ["--mode", "montecarlo", "--trials", "0"],
            ["--mode", "montecarlo", "--seed", "-1"],
            ["--theta", "2.0"],
        ],
    )
    def test_tomo_out_of_range_input(self, flags, capsys):
        assert main(["tomo", *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_tomo_counts_too_sparse_to_reconstruct(self, seed, capsys):
        # One photon per setting leaves a replica's path group without H/V counts.
        assert main(["tomo", "--mode", "montecarlo", "--trials", "1", "--seed", str(seed)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: replica ") and err.rstrip().endswith("no counts in its path group")

    def test_sweep_counts_too_sparse_to_reconstruct_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "sparse.csv"
        assert main(["sweep", "--mode", "montecarlo", "--trials", "1", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: replica ")
        assert not out.exists()
        # Five photons per setting reconstruct, but a bootstrap resample does not.
        assert main(["sweep", "--mode", "montecarlo", "--trials", "5", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bootstrap resample: ")
        assert not out.exists()

    @pytest.mark.parametrize("trials", range(2, 6))
    def test_tomo_bootstrap_too_sparse_for_error_bars(self, trials, capsys):
        # Counts that reconstruct can still give a bootstrap resample with no
        # H/V counts in a path group; only that failure names the bootstrap.
        probs = signal_probabilities(measurement_state(0.0, 0.0))
        for seed in range(4):
            try:
                _replica_stokes(simulate_counts(probs, trials, seed))
                reconstructs = True
            except ReconstructionError:
                reconstructs = False
            argv = ["tomo", "--mode", "montecarlo", "--trials", str(trials), "--seed", str(seed)]
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            if reconstructs:
                assert err.startswith("error: bootstrap resample: replica ")
                assert err.rstrip().endswith("too few for error bars")
            else:
                # The README's example of the bootstrap error.
                assert (trials, seed) != (5, 0)
                assert err.startswith("error: replica ") and err.rstrip().endswith("no counts in its path group")

    @pytest.mark.parametrize(
        ("flag", "value", "code"),
        [
            ("tomo --theta", "-1e-3", EXIT_OK),
            ("tomo --delta", "-2.5E+1", EXIT_USAGE),
            ("tomo --mode montecarlo --trials", "-1e3", EXIT_USAGE),
            ("tomo --mode montecarlo --trials 50 --seed", "-5", EXIT_USAGE),
            ("sweep --mode perturbed --jitter-deg", "-.5e-1", EXIT_USAGE),
            ("sweep --mode montecarlo --seed", "-2e0", EXIT_USAGE),
        ],
    )
    def test_negative_value_reads_alike_in_both_forms(self, flag, value, code, tmp_path, capsys):
        # The next token is the value, whatever it looks like.
        *head, name = flag.split()
        head += ["--out", str(tmp_path / "x.csv")] if head[0] == "sweep" else []
        runs = [(main(argv), capsys.readouterr()) for argv in (head + [name, value], head + [f"{name}={value}"])]
        assert runs[0] == runs[1]
        assert runs[0][0] == code

    @pytest.mark.parametrize("flag", ["--prep-tol 1e-12", "--inject-hwp-offset-deg 0.1"])
    def test_verify_has_no_retired_flag(self, flag, capsys):
        # verify takes no flag: a retired one is a usage error, not a check.
        assert main(["verify", *flag.split()]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    def test_io_error_on_unwritable_output(self, capsys):
        # The message names --out and the reason, not the temporary file
        # beside it that could not be created.
        assert main(["sweep", "--out", "/nonexistent-dir/x.csv"]) == EXIT_IO
        assert capsys.readouterr() == ("", "I/O error writing '/nonexistent-dir/x.csv': No such file or directory\n")

    def test_verify_passes_on_pristine_build(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_verify_fails_with_injected_misalignment(self, monkeypatch, capsys):
        # The first half-wave plate turned by 0.1 deg: only the optics
        # equivalence check sees it, and the rest of the printout stays.
        monkeypatch.setattr(cli, "build_cloner_train", lambda: misaligned_cloner_train(0.1))
        assert main(["verify"]) == EXIT_VERIFY
        assert capsys.readouterr() == (
            "reference_oracle\tPASS\tdeviation=1.665e-16\ttol=1.0e-10\n"
            "optics_equivalence\tFAIL\tdeviation=2.015e-03\ttol=1.0e-09\n"
            "prep_solver\tPASS\tdeviation=1.110e-16\ttol=1.0e-10\n"
            "tomography_roundtrip\tPASS\tdeviation=2.555e-16\ttol=1.0e-12\n"
            "pipeline_fidelity\tPASS\tdeviation=5.818e-16\ttol=1.0e-10\n"
            "replica_symmetry\tPASS\tdeviation=2.220e-16\ttol=1.0e-10\n"
            "verify: CHECKS FAILED\n",
            "",
        )

    def test_print_to_a_broken_stdout_is_an_io_error(self, monkeypatch, capsys):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        for argv in (["tomo"], ["--help"], ["sweep", "-h"]):
            assert main(argv) == EXIT_IO
            assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"

    def test_distinct_exit_codes(self):
        # The README's exit-code promise, through the real entry point: one
        # `python -W error -m uqcm.cli` process per code. Exit 3 comes from a
        # `python -W error -c` child that misaligns the bench as
        # `test_verify_fails_with_injected_misalignment` does.
        assert (EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO) == (0, 2, 3, 4)
        misaligned = "; ".join((
            f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})",
            "from reference import misaligned_cloner_train",
            "from uqcm import cli",
            "cli.build_cloner_train = lambda: misaligned_cloner_train(0.1)",
            "sys.exit(cli.main(['verify']))",
        ))
        entry = ["-m", "uqcm.cli"]
        for argv, code, err in [
            (entry + ["verify"], EXIT_OK, ""),
            (entry + ["sweep", "--mode", "bogus"], EXIT_USAGE,
             "uqcm sweep: error: argument --mode: invalid choice: 'bogus'"),
            (["-c", misaligned], EXIT_VERIFY, ""),
            (entry + ["sweep", "--out", "/nonexistent-dir/x.csv"], EXIT_IO,
             "I/O error writing '/nonexistent-dir/x.csv': "),
            (entry + ["tomo"], EXIT_OK, ""),
            (entry + ["tomo", "--mode", "montecarlo", "--trials", "1"], EXIT_USAGE,
             "error: replica 2: no counts in its path group"),
        ]:
            proc = python("-W", "error", *argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            assert proc.returncode == code, (argv, proc.stderr)
            assert err in proc.stderr if err else proc.stderr == "", proc.stderr


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


class TestCommandLine:
    """The flag table's parser: help, usage errors, prefixes and defaults."""

    SWEEP_USAGE = (
        "uqcm sweep  [--mode exact|montecarlo|perturbed] [--trials N] [--seed N]\n"
        "            [--jitter-deg X] [--out FILE] [--config FILE]\n"
    )

    @pytest.mark.parametrize("argv", [["sweep", "-h"], ["sweep", "--help"], ["sweep", "--mode", "exact", "--he"]])
    def test_sweep_help_prints_its_usage_and_exits_0(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == (self.SWEEP_USAGE, "")

    def test_help_is_the_readme_block(self, capsys):
        # One usage text: `uqcm --help` prints the README's "Command line"
        # block, and each command's help is that command's lines of it.
        with open(README, encoding="utf-8") as fh:
            readme = fh.read()
        for argv in (["--help"], ["-h"]):
            assert main(argv) == EXIT_OK
            full, err = capsys.readouterr()
            assert err == "" and f"## Command line\n\n```\n{full}```\n" in readme
        for command in cli._COMMANDS:
            assert main([command, "-h"]) == EXIT_OK
            out = capsys.readouterr().out
            assert out.startswith(f"uqcm {command}") and out in full

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ([], "uqcm: error: the following arguments are required: command"),
            (["bogus"],
             "uqcm: error: argument command: invalid choice: 'bogus' (choose from 'sweep', 'verify', 'tomo')"),
            (["tomo", "--theta"], "uqcm tomo: error: argument --theta: expected one argument"),
            (["sweep", "--seed", "--out", "x.csv"], "uqcm sweep: error: argument --seed: expected one argument"),
            (["tomo", "--t", "1"], "uqcm tomo: error: ambiguous option: --t could match --theta, --trials"),
            (["sweep", "--trials", "1e3"], "uqcm sweep: error: argument --trials: invalid int value: '1e3'"),
            (["tomo", "--theta=x"], "uqcm tomo: error: argument --theta: invalid float value: 'x'"),
            (["tomo", "--mode", "perturbed"],
             "uqcm tomo: error: argument --mode: invalid choice: 'perturbed' (choose from 'exact', 'montecarlo')"),
            (["sweep", "--out", "x.csv", "3"], "uqcm sweep: error: unrecognized arguments: 3"),
        ],
    )
    def test_usage_error_exits_2(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        usage = cli._usage_text(argv[0] if argv and argv[0] in cli._COMMANDS else None)
        assert (out, err) == ("", "usage: " + usage.replace("\n", "\n       ") + f"\n{message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_printout(self, capsys):
        assert main(["sweep", "--mode", "bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage: uqcm sweep  [--mode exact|montecarlo|perturbed] [--trials N] [--seed N]\n"
            "                   [--jitter-deg X] [--out FILE] [--config FILE]\n"
            "uqcm sweep: error: argument --mode: invalid choice: 'bogus' "
            "(choose from 'exact', 'montecarlo', 'perturbed')\n"
        )
        assert main(["verify", "--bogus", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage: uqcm verify\nuqcm verify: error: unrecognized arguments: --bogus -1\n"

    def test_unique_prefix_names_its_flag(self, capsys):
        argv = ["sweep", "--jit", "0.2", "--m=perturbed", "--c", "run.cfg", "--o", "-h", "--s", "-3"]
        assert cli._parse_args(argv) == (
            "sweep", {"jitter_deg": 0.2, "mode": "perturbed", "config": "run.cfg", "out": "-h", "seed": -3}
        )
        runs = [(main(argv), capsys.readouterr()) for argv in (["tomo", "--th", "0.7", "--d=2.1"],
                                                               ["tomo", "--theta", "0.7", "--delta", "2.1"])]
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK

    def test_help_acts_where_it_is_read(self, capsys):
        # Flags are read left to right: help before an ambiguous prefix prints
        # the usage lines; the prefix first is a usage error (argparse exited
        # 2 for both).
        assert main(["tomo", "-h", "--t"]) == EXIT_OK
        assert capsys.readouterr() == (cli._usage_text("tomo") + "\n", "")
        assert main(["tomo", "--t", "-h"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith("\nuqcm tomo: error: ambiguous option: --t could match --theta, --trials\n")

    def test_last_value_of_a_flag_given_twice_wins(self):
        assert cli._parse_args(["tomo", "--seed", "1", "--seed=2", "--theta", "0.5"]) == (
            "tomo", {"seed": 2, "theta": 0.5}
        )

    def test_defaults(self, capsys):
        # A flag not given takes the default of `SweepConfig` or `run_tomo`.
        assert cli._parse_args(["sweep"]) == ("sweep", {}) and build_sweep_config({}) == SweepConfig()
        assert cli._parse_args(["tomo"]) == ("tomo", {})
        for mode in ("exact", "montecarlo"):
            explicit = ["tomo", "--theta", "0", "--delta", "0", "--mode", mode, "--trials", "20000", "--seed", "42"]
            runs = [(main(argv), capsys.readouterr()) for argv in (["tomo", "--mode", mode], explicit)]
            assert runs[0] == runs[1] and runs[0][0] == EXIT_OK


class TestVerify:
    # The whole printout. The oracle, round-trip, pipeline and symmetry
    # deviations are those of the four fixed check inputs.
    PINNED_STDOUT = (
        "reference_oracle\tPASS\tdeviation=1.665e-16\ttol=1.0e-10\n"
        "optics_equivalence\tPASS\tdeviation=2.267e-16\ttol=1.0e-09\n"
        "prep_solver\tPASS\tdeviation=1.110e-16\ttol=1.0e-10\n"
        "tomography_roundtrip\tPASS\tdeviation=2.555e-16\ttol=1.0e-12\n"
        "pipeline_fidelity\tPASS\tdeviation=5.818e-16\ttol=1.0e-10\n"
        "replica_symmetry\tPASS\tdeviation=2.220e-16\ttol=1.0e-10\n"
        "verify: all checks passed\n"
    )

    def test_stdout_pinned(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == self.PINNED_STDOUT

    def test_machine_readable_lines(self, capsys):
        code = run_verify()
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        named = [ln for ln in lines if "\t" in ln]
        # The benchmark's verify workload requires exactly this many lines.
        assert len(named) == perfbench_constant("run.py", "VERIFY_CHECKS")
        for ln in named:
            name, status, dev, tol = ln.split("\t")
            assert status in ("PASS", "FAIL")
            assert dev.startswith("deviation=")
            assert tol.startswith("tol=")

    def test_tightened_solver_tolerance_still_passes(self, monkeypatch, capsys):
        # The prep_solver check still passes when the solver it calls is held
        # to a tighter tolerance than PREP_TOL.
        monkeypatch.setattr("uqcm.angles.PREP_TOL", 1e-14)
        assert run_verify() == EXIT_OK
        assert "prep_solver\tPASS" in capsys.readouterr().out

    def test_check_inputs_are_four_bloch_axes(self):
        # +z, -z, +x and +y: the 1 + 2 sqrt(2) bound of the affine checks
        # holds for these four inputs.
        bloch = _qubit_stokes(cli._CHECK_INPUTS)
        assert np.max(np.abs(bloch - [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0]])) < 1e-15

    @pytest.mark.parametrize(
        ("check", "tol", "deviation"),
        [("_check_optics_equivalence", "EQUIVALENCE_TOL", 2.266972348095712e-16),
         ("_check_prep_solver", "PREP_TOL", 1.1102230246251565e-16)],
    )
    def test_deviation_at_the_tolerance_passes(self, check, tol, deviation, monkeypatch):
        # Only a deviation above the tolerance fails: the pristine build's own
        # deviation, taken as the tolerance, passes.
        monkeypatch.setattr(cli, tol, deviation)
        result = getattr(cli, check)()
        assert (result.passed, result.deviation) == (True, deviation)

    @pytest.mark.parametrize("residual", [0.0, 1.1102230246251565e-16, 0.5, math.nan])
    def test_solver_error_fails_whatever_its_residual(self, residual, monkeypatch):
        def failing(target):
            raise SolverError("prep-angle solve failed", residual=residual)

        monkeypatch.setattr(cli, "solve_prep_angles", failing)
        result = cli._check_prep_solver()
        assert not result.passed and math.isnan(result.deviation)
        assert result.line() == "prep_solver\tFAIL\tdeviation=nan\ttol=1.0e-10"

    def test_prep_check_reads_the_solvers_residual(self, monkeypatch):
        residuals = []

        def spy(angles, target, _residual=cli._prep_residual):
            residuals.append(_residual(angles, target))
            return residuals[-1]

        monkeypatch.setattr(cli, "_prep_residual", spy)
        assert cli._check_prep_solver().deviation == max(residuals) == 1.1102230246251565e-16
        assert len(residuals) == 2

    def test_nan_deviation_fails(self):
        assert not cli.CheckResult("x", math.nan, 1.0).passed
        assert cli.CheckResult("x", 1.0, 1.0).passed and not cli.CheckResult("x", np.nextafter(1.0, 2.0), 1.0).passed

    def test_symmetry_check_reads_the_replica_kernel(self, monkeypatch):
        # Replica 2 read from qubit 3: the check sees the kernel's replicas.
        monkeypatch.setattr(cli, "_replica_stokes_of_outputs",
                            lambda out: np.stack([_qubit_stokes(out, 0), _qubit_stokes(out, 2)], axis=-2))
        result = cli._check_replica_symmetry()
        assert not result.passed and result.deviation > 0.1

    def test_corrupted_network_fails_oracle_and_symmetry(self, monkeypatch, capsys):
        # The triplicator prep angles change the gate sequence that the
        # oracle and symmetry checks run, and the compiled image that the
        # pipeline check runs.
        monkeypatch.setattr(network, "cloner_prep_angles", network.triplicator_prep_angles)
        assert main(["verify"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        for name in ("reference_oracle", "pipeline_fidelity", "replica_symmetry"):
            assert f"{name}\tFAIL" in out

    def test_roundtrip_check_fails_on_a_wrong_inversion(self, monkeypatch):
        assert _check_tomography_roundtrip().passed
        path_stokes = cli._path_stokes
        monkeypatch.setattr(cli, "_path_stokes", lambda probs: path_stokes(probs) * (1.0 - 1e-9))
        result = _check_tomography_roundtrip()
        assert not result.passed
        assert 1e-12 < result.deviation < 1e-9

    def test_oracle_check_ignores_global_phase(self, monkeypatch):
        outputs = cli._network_outputs
        monkeypatch.setattr(cli, "_network_outputs", lambda amps: np.exp(0.7j) * outputs(amps))
        assert _check_reference_oracle().passed

    def test_oracle_check_fails_on_a_relative_phase(self, monkeypatch):
        # The image of |1> negated: a relative phase between the two basis
        # images, which no global phase removes.
        outputs = cli._network_outputs
        monkeypatch.setattr(cli, "_network_outputs", lambda amps: outputs(np.asarray(amps) * [1, -1]))
        result = _check_reference_oracle()
        assert not result.passed
        assert result.deviation > 1.0


def library_tomo(theta, delta, mode, trials, seed):
    """(stdout, stderr, exit code) of `tomo` built from the library's object
    chain: `simulate_counts` -> `reconstruct_replica` -> `fidelity_report`."""
    probs = signal_probabilities(measurement_state(theta, delta))
    record = None if mode == "exact" else simulate_counts(probs, trials, seed)
    source = probs if record is None else record
    try:
        rho1, rho2 = reconstruct_replica(source, 1), reconstruct_replica(source, 2)
        rep = fidelity_report(rho1, rho2, theta, delta, mode=mode, counts=record)
    except ReconstructionError as exc:
        return "", f"error: {exc}\n", EXIT_USAGE
    lines = [f"input: theta={theta:.9f} delta={delta:.9f} mode={mode}"]
    for r, rho, fid, err in ((1, rho1, rep.fidelity1, rep.stderr1), (2, rho2, rep.fidelity2, rep.stderr2)):
        lines += [f"replica {r}: F = {fid:.9f} +/- {err:.9f} (reference 5/6 = {5 / 6:.9f})", _format_matrix(rho.matrix)]
    return "\n".join(lines) + "\n", "", EXIT_OK


class TestTomo:
    # The poles, three generic points and the +y point of the equator; exact
    # mode, and montecarlo down to the trial counts whose counts (1: exit 2,
    # "error: replica N: ...") or bootstrap resamples (3: exit 2, "error:
    # bootstrap resample: ..." at 11 of the 12 runs) leave a path group empty.
    REFERENCE_INPUTS = [(0.0, 0.0), (math.pi / 2, 0.0), (0.7, 2.1), (-0.8, 1.0), (1.2, 0.3), (math.pi / 4, math.pi / 2)]
    REFERENCE_RUNS = [("exact", 20000)] + [("montecarlo", trials) for trials in (20000, 200, 3, 1)]

    @pytest.mark.parametrize("seed", [42, 2**40])
    @pytest.mark.parametrize(("mode", "trials"), REFERENCE_RUNS)
    @pytest.mark.parametrize(("theta", "delta"), REFERENCE_INPUTS)
    def test_equals_the_library_chain(self, theta, delta, mode, trials, seed, capsys):
        argv = ["tomo", "--theta", repr(theta), "--delta", repr(delta), "--mode", mode,
                "--trials", str(trials), "--seed", str(seed)]
        code = main(argv)
        assert (*capsys.readouterr(), code) == library_tomo(theta, delta, mode, trials, seed)

    def test_builds_no_object_tier_record(self, monkeypatch, capsys):
        built = []
        for cls in (PureState, DensityMatrix, CountsRecord, FidelityReport):
            init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__", lambda self, *a, _init=init, _name=cls.__name__, **kw: built.append(_name) or _init(self, *a, **kw)
            )
        for argv in (["tomo"], ["tomo", "--mode", "montecarlo"]):
            assert main(argv) == EXIT_OK
        assert built == []
        # The spies see the library chain build each record.
        assert library_tomo(0.3, 0.5, "montecarlo", 2000, 5)[2] == EXIT_OK
        assert set(built) == {"PureState", "DensityMatrix", "CountsRecord", "FidelityReport"}
        capsys.readouterr()

    def test_exact_output(self, capsys):
        assert main(["tomo", "--theta", "0.0", "--delta", "0.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "replica 1: F = 0.833333333" in out
        assert "replica 2: F = 0.833333333" in out

    def test_montecarlo_output(self, capsys):
        # A base seed of 2**100 + 3 seeds the count and bootstrap streams row
        # by row through numpy's own SeedSequence.
        for flags in (["--trials", "5000", "--seed", "4"], ["--seed", str(2**100 + 3)]):
            assert main(["tomo", "--mode", "montecarlo", *flags]) == EXIT_OK
            out, err = capsys.readouterr()
            assert "+/-" in out and err == ""

    # Whole printouts, recorded before the reconstruction became array
    # arithmetic. The exact point is off the poles: at theta = 0 the printed
    # off-diagonals are 1e-16 rounding residue, not a property of the state.
    PINNED_STDOUT = {
        ("--theta", "0.7", "--delta", "2.1"): (
            'input: theta=0.700000000 delta=2.100000000 mode=exact\n'
            'replica 1: F = 0.833333333 +/- 0.000000000 (reference 5/6 = 0.833333333)\n'
            '[[ 0.556656+0.j      -0.165833-0.28355j]\n'
            ' [-0.165833+0.28355j  0.443344+0.j     ]]\n'
            'replica 2: F = 0.833333333 +/- 0.000000000 (reference 5/6 = 0.833333333)\n'
            '[[ 0.556656+0.j      -0.165833-0.28355j]\n'
            ' [-0.165833+0.28355j  0.443344+0.j     ]]\n'
        ),
        ("--mode", "montecarlo"): (
            'input: theta=0.000000000 delta=0.000000000 mode=montecarlo\n'
            'replica 1: F = 0.833753618 +/- 0.004292925 (reference 5/6 = 0.833333333)\n'
            '[[0.833754+0.j       0.007131-0.011077j]\n'
            ' [0.007131+0.011077j 0.166246+0.j      ]]\n'
            'replica 2: F = 0.833109368 +/- 0.003344766 (reference 5/6 = 0.833333333)\n'
            '[[0.833109+0.j      0.005835+0.00338j]\n'
            ' [0.005835-0.00338j 0.166891+0.j     ]]\n'
        ),
    }

    def test_default_stdout_pinned(self, capsys):
        # At theta = delta = 0 the off-diagonals are exact zeros up to
        # rounding; they print as 0., in fixed point.
        assert main(["tomo"]) == EXIT_OK
        assert capsys.readouterr().out == (
            'input: theta=0.000000000 delta=0.000000000 mode=exact\n'
            'replica 1: F = 0.833333333 +/- 0.000000000 (reference 5/6 = 0.833333333)\n'
            '[[0.833333+0.j 0.      +0.j]\n'
            ' [0.      +0.j 0.166667+0.j]]\n'
            'replica 2: F = 0.833333333 +/- 0.000000000 (reference 5/6 = 0.833333333)\n'
            '[[0.833333+0.j 0.      +0.j]\n'
            ' [0.      +0.j 0.166667+0.j]]\n'
        )

    def test_montecarlo_stdout_pinned_at_a_two_word_seed(self, capsys):
        # Seed 2**40: the count and bootstrap streams are three words wide.
        assert main(["tomo", "--mode", "montecarlo", "--seed", "1099511627776"]) == EXIT_OK
        assert capsys.readouterr().out == (
            'input: theta=0.000000000 delta=0.000000000 mode=montecarlo\n'
            'replica 1: F = 0.832187458 +/- 0.003672661 (reference 5/6 = 0.833333333)\n'
            '[[0.832187+0.j       0.000502+0.000498j]\n'
            ' [0.000502-0.000498j 0.167813+0.j      ]]\n'
            'replica 2: F = 0.834548386 +/- 0.004096120 (reference 5/6 = 0.833333333)\n'
            '[[0.834548+0.j       0.021997-0.001013j]\n'
            ' [0.021997+0.001013j 0.165452+0.j      ]]\n'
        )

    def test_matrix_printout_has_no_negative_zero(self):
        m = np.array([[0.5, -1e-17 - 3e-9j], [-1e-17 + 3e-9j, 0.5]])
        text = _format_matrix(m)
        assert "-0." not in text and "e-" not in text
        # -0.1j has real part -0.0, which prints as 0.
        assert _format_matrix(np.array([[0.25, -0.1j], [0.1j, 0.75]])) == (
            "[[0.25+0.j  0.  -0.1j]\n [0.  +0.1j 0.75+0.j ]]"
        )
        # The float -5e-7 rounds to -0.000000 too; the next float down does not.
        assert _format_matrix(np.array([[0.5, -5e-7 - 5e-7j], [-5e-7 + 5e-7j, 0.5]])) == (
            "[[0.5+0.j 0. +0.j]\n [0. +0.j 0.5+0.j]]"
        )
        assert "-0.000001" in _format_matrix(np.array([[np.nextafter(-5e-7, -1.0)]]))

    @pytest.mark.parametrize("flags", sorted(PINNED_STDOUT))
    def test_stdout_pinned(self, flags, capsys):
        assert main(["tomo", *flags]) == EXIT_OK
        assert capsys.readouterr().out == self.PINNED_STDOUT[flags]


def test_exact_commands_never_import_numpy_random(tmp_path):
    # Exact runs and verify never draw, so the CLI loads numpy.random only
    # for a random run; a montecarlo tomo afterwards shows that the probe
    # sees it.
    script = "\n".join((
        "import sys",
        "import uqcm.cli",
        "loaded = ['numpy.random' in sys.modules]",
        f"assert uqcm.cli.main(['sweep', '--out', {str(tmp_path / 'exact.csv')!r}]) == 0",
        "assert uqcm.cli.main(['tomo']) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        "assert uqcm.cli.main(['verify']) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        "assert uqcm.cli.main(['tomo', '--mode', 'montecarlo', '--seed', '3', '--trials', '200']) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        "print(loaded, file=sys.stderr)",
    ))
    proc = python("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"[False, False, False, True]\n")


def test_command_line_loads_no_argparse_gettext_or_locale(tmp_path):
    # The flag table is parsed without argparse, whose first gettext call
    # imports locale; importing argparse afterwards shows that the probe
    # sees all three.
    script = "\n".join((
        "import sys",
        "import uqcm.cli",
        f"assert uqcm.cli.main(['sweep', '--out', {str(tmp_path / 'exact.csv')!r}]) == 0",
        "assert uqcm.cli.main(['tomo']) == 0",
        "assert uqcm.cli.main(['verify']) == 0",
        "assert uqcm.cli.main(['tomo', '--help']) == 0",
        "assert uqcm.cli.main(['tomo', '--bogus']) == 2",
        "probe = lambda: sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))",
        "loaded = [probe()]",
        "import argparse",
        "argparse.ArgumentParser().parse_args([])",
        "loaded.append(probe())",
        "print(loaded)",
    ))
    proc = python("-c", script, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[-1] == "[[], ['argparse', 'gettext', 'locale']]"


def test_commands_load_no_dataclasses(tmp_path):
    # The records are plain slots classes: no command imports dataclasses,
    # and importing it afterwards shows that the probe sees it.
    script = "\n".join((
        "import sys",
        "import uqcm, uqcm.cli",
        f"assert uqcm.cli.main(['sweep', '--out', {str(tmp_path / 'exact.csv')!r}]) == 0",
        "assert uqcm.cli.main(['verify']) == 0",
        "assert uqcm.cli.main(['tomo']) == 0",
        "assert uqcm.cli.main(['tomo', '--mode', 'montecarlo']) == 0",
        "loaded = ['dataclasses' in sys.modules]",
        "import dataclasses",
        "loaded.append('dataclasses' in sys.modules)",
        "print(loaded)",
    ))
    proc = python("-c", script, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[-1] == "[False, True]"


WORKFLOW = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "tests.yml")


def _workflow_commands():
    """The shell lines of the CI workflow's `run:` steps: the text after
    `run:`, or each line of the block under `run: |`. CI installs no YAML
    parser, so the file is read as text."""
    commands, run_indent = [], None
    with open(WORKFLOW, encoding="utf-8") as fh:
        for line in fh:
            indent, text = len(line) - len(line.lstrip()), line.strip()
            if run_indent is not None and (indent > run_indent or not text):
                commands.append(text)
            elif text.startswith(("run:", "- run:")):
                run_indent = indent
                commands.append(text.split(":", 1)[1].strip())
            else:
                run_indent = None
    return [c for c in commands if c not in ("", "|", ">")]


def test_cli_checks_live_in_the_suite_not_the_workflow():
    # A check of the command line or of a script belongs in the tier-1
    # suite, which every local run makes, not in a CI step of its own.
    commands = _workflow_commands()
    tier1 = [c for c in commands if "python -m pytest" in c]
    assert len(tier1) == 1 and any("perfbench/run.py" in c for c in commands)
    assert [c for c in commands if "uqcm" in c or "scripts/" in c] == []
    # The README gives the suite's command as CI runs it.
    with open(README, encoding="utf-8") as fh:
        assert tier1[0] in fh.read()
