"""Harness behavior: config handling, CSV output, exit codes, reproducibility."""

import hashlib
import io
import math

import numpy as np
import pytest

from uqcm import network, optics
from uqcm.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXACT_BLOCK,
    EXIT_VERIFY,
    SweepConfig,
    UsageError,
    _format_matrix,
    build_sweep_config,
    compute_sweep,
    format_row,
    load_config_file,
    main,
    run_verify,
)
from uqcm.hilbert import DensityMatrix, fidelity
from uqcm.network import clone, input_state
from uqcm.optics import optical_measurement_state
from uqcm.tomography import replicas_from_state


class TestConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.mode == "exact"
        assert cfg.theta_steps == 19
        assert len(cfg.delta_list) == 4
        grid = cfg.theta_grid()
        assert grid[0] == pytest.approx(-math.pi / 2 + math.pi / 36)
        assert grid[-1] == pytest.approx(math.pi / 2)

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

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "mode = montecarlo\n"
            "trials = 500\n"
            "delta_list = 0, 1.57\n"
            "theta_steps = 3\n"
        )
        values = load_config_file(str(path))
        assert values["mode"] == "montecarlo"
        assert values["trials"] == 500
        assert values["delta_list"] == (0.0, 1.57)
        assert values["theta_steps"] == 3

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

        class Args:
            config = str(path)
            mode = "montecarlo"
            trials = None
            seed = None
            jitter_deg = None
            out = None

        cfg = build_sweep_config(Args())
        assert cfg.mode == "montecarlo"
        assert cfg.seed == 1


class TestSweep:
    def test_exact_rows_pinned_to_reference(self, tmp_path):
        cfg = SweepConfig(theta_steps=3, delta_list=(0.0,), out=str(tmp_path / "x.csv"))
        rows, summary, code = compute_sweep(cfg)
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
        rows, _, _ = compute_sweep(cfg)
        keys = []
        for row in rows:
            f = row.split(",")
            keys.append((float(f[1]), float(f[2]), int(f[3])))
        assert keys == sorted(keys)

    def test_exact_rows_match_per_point_route(self):
        # The grid pass against one clone + one optical_measurement_state per point.
        cfg = SweepConfig(theta_start=-1.2, theta_end=math.pi / 2, theta_steps=7, delta_list=(6.2, 0.0, 1.3))
        rows, summary, code = compute_sweep(cfg)
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
        # amount that depends on the point. 150 points span two array blocks.
        monkeypatch.setattr(module, "cloner_prep_angles", network.triplicator_prep_angles)
        cfg = SweepConfig(theta_steps=50, delta_list=(0.0, 1.3, 2.0))
        assert len(cfg.theta_grid()) * len(cfg.delta_list) > EXACT_BLOCK
        rows, summary, code = compute_sweep(cfg)
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

    def test_montecarlo_has_stderr_column(self):
        cfg = SweepConfig(mode="montecarlo", theta_steps=2, delta_list=(0.0,), trials=2000)
        rows, summary, code = compute_sweep(cfg)
        assert code == EXIT_OK
        assert all(float(r.split(",")[5]) > 0 for r in rows)

    def test_perturbed_summary_reports_bound(self):
        cfg = SweepConfig(mode="perturbed", theta_steps=1, delta_list=(0.0,), samples=5)
        rows, summary, code = compute_sweep(cfg)
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

    def test_csv_header_and_shape(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert main(["sweep", "--out", out]) == EXIT_OK
        with open(out, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 19 * 4 * 2


class TestGoldenCsv:
    """The default sweep CSVs are pinned byte for byte (Python 3.11, numpy 2.4)."""

    GOLDEN_SHA256 = {
        "exact": "7a790a2eb13a029f03cbcadcd4057c49b9efa3c4f269ec1f4426c82b74f67e03",
        "montecarlo": "053ab2149ce42455291ef2a51d5084b4421a69d2e26178d21c42957710c9385c",
        "perturbed": "333b2dfccd6dc83894372f98912ff861ea7e45bf79b25267cac7fdc313e93e89",
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
    def test_default_sweep_csv_hash(self, mode, tmp_path, capsys):
        out = tmp_path / f"{mode}.csv"
        assert main(["sweep", "--mode", mode, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_SHA256[mode]


class TestExitCodes:
    def test_usage_error_from_bad_flag_value(self, capsys):
        assert main(["sweep", "--mode", "bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_usage_error_from_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = -5\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        capsys.readouterr()

    def test_delta_outside_range_in_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("delta_list = 7.0\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert "delta value 7.0 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["jitter_deg = inf", "delta_c = nan"])
    def test_nonfinite_jitter_or_delta_c_in_config(self, line, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"mode = perturbed\n{line}\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert main(["sweep", "--mode", "montecarlo", "--seed", "-1"]) == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--theta", "3"], ["--delta", "-0.5"], ["--trials", "0"], ["--seed", "-1"]]
    )
    def test_tomo_out_of_range_input(self, flags, capsys):
        assert main(["tomo", "--mode", "montecarlo", *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_io_error_on_unwritable_output(self, capsys):
        assert main(["sweep", "--out", "/nonexistent-dir/x.csv"]) == EXIT_IO
        capsys.readouterr()

    def test_verify_passes_on_pristine_build(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_verify_fails_with_injected_misalignment(self, capsys):
        assert main(["verify", "--inject-hwp-offset-deg", "0.1"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "optics_equivalence\tFAIL" in out

    def test_distinct_exit_codes(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO}) == 4


class TestVerify:
    def test_machine_readable_lines(self):
        buf = io.StringIO()
        code = run_verify(stdout=buf)
        assert code == EXIT_OK
        lines = buf.getvalue().splitlines()
        named = [ln for ln in lines if "\t" in ln]
        assert len(named) == 6
        for ln in named:
            name, status, dev, tol = ln.split("\t")
            assert status in ("PASS", "FAIL")
            assert dev.startswith("deviation=")
            assert tol.startswith("tol=")

    def test_tightened_solver_tolerance_still_passes(self):
        buf = io.StringIO()
        assert run_verify(prep_tol=1e-14, stdout=buf) == EXIT_OK
        assert "prep_solver\tPASS" in buf.getvalue()


class TestTomo:
    def test_exact_output(self, capsys):
        assert main(["tomo", "--theta", "0.0", "--delta", "0.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "replica 1: F = 0.833333333" in out
        assert "replica 2: F = 0.833333333" in out

    def test_montecarlo_output(self, capsys):
        assert main(["tomo", "--mode", "montecarlo", "--trials", "5000", "--seed", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "+/-" in out

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

    def test_matrix_printout_has_no_negative_zero(self):
        m = np.array([[0.5, -1e-17 - 3e-9j], [-1e-17 + 3e-9j, 0.5]])
        text = _format_matrix(m)
        assert "-0." not in text and "e-" not in text
        # -0.1j has real part -0.0, which prints as 0.
        assert _format_matrix(np.array([[0.25, -0.1j], [0.1j, 0.75]])) == (
            "[[0.25+0.j  0.  -0.1j]\n [0.  +0.1j 0.75+0.j ]]"
        )

    @pytest.mark.parametrize("flags", sorted(PINNED_STDOUT))
    def test_stdout_pinned(self, flags, capsys):
        assert main(["tomo", *flags]) == EXIT_OK
        assert capsys.readouterr().out == self.PINNED_STDOUT[flags]
