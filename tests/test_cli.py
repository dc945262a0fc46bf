import math

import pytest

from qsd import cli
from qsd import discrimination as disc


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurve:
    def test_pcorr_header_and_values(self, capsys):
        code, out, _err = run(
            [
                "curve",
                "--family",
                "three_mode",
                "--metric",
                "p_corr",
                "--variants",
                "pure,mixed",
                "--alpha",
                "0:2:5",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha_abs,p_corr_pure,p_corr_mixed"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.25
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0
        assert float(last[1]) == pytest.approx(disc.three_mode_pure_pcorr(2.0), rel=1e-11)
        assert float(last[2]) == pytest.approx(
            disc.three_mode_mixed_pcorr(2.0)[0], rel=1e-11
        )

    def test_two_mode_prior(self, capsys):
        code, out, _err = run(
            [
                "curve",
                "--family",
                "two_mode",
                "--metric",
                "p_corr",
                "--prior",
                "0.25",
                "--alpha",
                "0:1:2",
            ],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(disc.two_mode_pure_pcorr(1.0, 0.25), rel=1e-11)
        assert float(row[2]) == pytest.approx(disc.two_mode_mixed_pcorr(1.0, 0.25), rel=1e-11)

    def test_bot_parametric_columns(self, capsys):
        code, out, _err = run(
            [
                "curve",
                "--family",
                "phase_encoded",
                "--metric",
                "b_ot",
                "--alpha",
                "0.5:1:2",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha_abs,p_1bit_pure,b_ot_pure,p_1bit_mixed,b_ot_mixed"
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(
            disc.family_p1bit("phase_encoded", "pure", 0.5), rel=1e-11
        )
        assert float(row[4]) == pytest.approx(
            disc.family_bot("phase_encoded", "mixed", 0.5), rel=1e-11
        )

    def test_unambiguous_single_column(self, capsys):
        code, out, _err = run(
            [
                "curve",
                "--family",
                "four_mode",
                "--metric",
                "p_unambiguous",
                "--alpha",
                "0:1:3",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha_abs,p_unambiguous"
        assert float(lines[-1].split(",")[1]) == pytest.approx(
            1.0 - math.exp(-4.0), rel=1e-11
        )

    def test_deterministic_output(self, capsys):
        argv = [
            "curve",
            "--family",
            "phase_encoded",
            "--metric",
            "p_corr",
            "--alpha",
            "0:3:7",
        ]
        _c, first, _e = run(argv, capsys)
        _c, second, _e = run(argv, capsys)
        assert first == second

    def test_shared_grid_points_stable_under_refinement(self, capsys):
        _c, coarse, _e = run(
            ["curve", "--family", "three_mode", "--metric", "p_corr", "--alpha", "0:2:3"],
            capsys,
        )
        _c, fine, _e = run(
            ["curve", "--family", "three_mode", "--metric", "p_corr", "--alpha", "0:2:5"],
            capsys,
        )
        coarse_rows = {r.split(",")[0]: r for r in coarse.strip().splitlines()[1:]}
        fine_rows = {r.split(",")[0]: r for r in fine.strip().splitlines()[1:]}
        for key, row in coarse_rows.items():
            assert fine_rows[key] == row

    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, out, _err = run(
            [
                "curve",
                "--family",
                "four_mode",
                "--metric",
                "p_corr",
                "--alpha",
                "0:1:3",
                "-o",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha_abs,p_corr_pure,p_corr_mixed"
        assert len(lines) == 4

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output_path(self, target, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "x.csv" if target == "missing" else tmp_path
        argv = ["curve", "--family", "four_mode", "--metric", "p_corr"]
        code, out, err = run(argv + ["--alpha", "0:1:3", "-o", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_invalid_family_metric_combination(self, capsys):
        code, _out, err = run(
            ["curve", "--family", "two_mode", "--metric", "p_1bit", "--alpha", "0:1:3"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_prior_rejected_outside_two_mode(self, capsys):
        code, _out, _err = run(
            [
                "curve",
                "--family",
                "three_mode",
                "--metric",
                "p_corr",
                "--prior",
                "0.3",
                "--alpha",
                "0:1:3",
            ],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid",
        ["0:0:5", "1:0.5:4", "0:1:1", "nonsense",
         "0:nan:2", "nan:1:2", "0:inf:2", "0:1e400:2"],
    )
    def test_degenerate_grids_rejected(self, grid, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["curve", "--family", "two_mode", "--metric", "p_corr", "--alpha", grid]
            )
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("family", disc.COHERENT_FAMILIES)
    def test_pure_curve_past_float_range(self, family, capsys):
        code, out, err = run(
            ["curve", "--family", family, "--metric", "p_corr", "--variants", "pure",
             "--alpha", "0:1e200:2"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "1e+200,1"

    def test_phase_encoded_pure_past_cosh_overflow(self, capsys):
        code, out, err = run(
            ["curve", "--family", "phase_encoded", "--metric", "p_corr",
             "--variants", "pure", "--alpha", "0:30:3"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["15,1", "30,1"]

    def test_tail_tol_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QSD_TAIL_TOL", "1e-6")
        code, out, _err = run(
            ["curve", "--family", "three_mode", "--metric", "p_corr", "--alpha", "0:1:2"],
            capsys,
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(disc.three_mode_mixed_pcorr(1.0, 1e-6)[0], rel=1e-11)

    @pytest.mark.parametrize("value", ["2", "0", "-1e-6", "nan", "inf"])
    def test_bad_tail_tol_flag(self, value, capsys):
        code, out, err = run(
            ["curve", "--family", "three_mode", "--metric", "p_corr",
             "--alpha", "0:1:3", f"--tail-tol={value}"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "2", "nan"])
    def test_bad_tail_tol_env(self, value, capsys, monkeypatch):
        # rejected even for two_mode, whose curves never use it
        monkeypatch.setenv("QSD_TAIL_TOL", value)
        code, out, err = run(
            ["curve", "--family", "two_mode", "--metric", "p_corr", "--alpha", "0:1:3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: QSD_TAIL_TOL") and err.count("\n") == 1


class TestCurveRequest:
    def test_programmatic_use(self, capsys):
        import io

        import numpy as np

        request = cli.CurveRequest(
            family="four_mode", metric="p_corr", alphas=np.linspace(0.0, 1.0, 3)
        )
        buffer = io.StringIO()
        assert cli.cmd_curve(request, buffer) == 0
        assert buffer.getvalue().splitlines()[0] == "alpha_abs,p_corr_pure,p_corr_mixed"

    def test_invariants(self):
        import numpy as np

        with pytest.raises(cli.UsageError):
            cli.CurveRequest("two_mode", "p_1bit", np.linspace(0, 1, 3))
        with pytest.raises(cli.UsageError):
            cli.CurveRequest("two_mode", "p_corr", np.array([0.0]))
        with pytest.raises(cli.UsageError):
            cli.CurveRequest("two_mode", "p_corr", np.linspace(0, 1, 3), prior=1.5)


class TestVerify:
    def test_gram_suite_passes(self, capsys):
        code, out, _err = run(["verify", "gram"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("#")

    def test_circuit_suite_passes(self, capsys):
        code, out, _err = run(["verify", "circuit"], capsys)
        assert code == 0
        assert "circuit.fig3_identification_map" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "appendix_z"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from qsd import verify

        monkeypatch.setattr(
            verify,
            "run_suite",
            lambda name, tail_tol=1e-12: [verify.CheckResult("forced.fail", False, 1.0)],
        )
        code, out, _err = run(["verify", "gram"], capsys)
        assert code == 1
        assert "FAIL  forced.fail" in out


class TestCircuit:
    def test_fig3_state_00(self, capsys):
        code, out, _err = run(["circuit", "fig3", "--state", "00", "--alpha", "1"], capsys)
        assert code == 0
        d3 = next(line for line in out.splitlines() if line.startswith("D3"))
        assert float(d3.split(":")[1]) == pytest.approx(1.0 - math.exp(-4.0), rel=1e-11)
        assert "identified: 00" in out

    def test_fig3_overflowing_energy_is_silent(self, capsys):
        code, out, err = run(["circuit", "fig3", "--state", "00", "--alpha", "1e200"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "D1 (identifies 11): 0",
            "D2 (identifies 10): 0",
            "D3 (identifies 00): 1",
            "D4 (identifies 01): 0",
            "no_click: 0",
            "identified: 00",
        ]

    def test_bs2_difference_port(self, capsys):
        code, out, _err = run(["circuit", "bs2", "--state", "1", "--alpha", "0.5"], capsys)
        assert code == 0
        d2 = next(line for line in out.splitlines() if line.startswith("D2"))
        assert float(d2.split(":")[1]) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-11)

    def test_zero_alpha_all_dark(self, capsys):
        code, out, _err = run(["circuit", "fig3", "--state", "11", "--alpha", "0"], capsys)
        assert code == 0
        assert "no_click: 1" in out
        assert "identified: none" in out

    def test_raw_amplitudes(self, capsys):
        code, out, _err = run(
            ["circuit", "bs2", "--amplitudes", "0.5,0.5"], capsys
        )
        assert code == 0
        d1 = next(line for line in out.splitlines() if line.startswith("D1"))
        assert float(d1.split(":")[1]) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-11)

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["circuit", "fig9", "--state", "00"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_bad_state_label(self, capsys):
        code, _out, err = run(["circuit", "fig3", "--state", "22"], capsys)
        assert code == 2
        assert "error" in err

    def test_wrong_amplitude_count(self, capsys):
        code, _out, _err = run(["circuit", "fig3", "--amplitudes", "1,2"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--state", "0", "--alpha", "nan"],
            ["--state", "0", "--alpha", "inf"],
            ["--state", "0", "--alpha", "-1"],
            ["--amplitudes", "nan,0"],
            ["--amplitudes", "0,inf"],
            ["--amplitudes", "1,nanj"],
        ],
    )
    def test_non_finite_inputs_rejected(self, flags, capsys):
        code, out, err = run(["circuit", "bs2"] + flags, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
