import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsd
from qsd import cli
from qsd import discrimination as disc
from qsd.fock import CapacityError


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: A curve whose mixed column is a Poisson series, so the tail tolerance shows.
SERIES_CURVE = ["curve", "--family", "three_mode", "--metric", "p_corr", "--alpha", "0:1:2"]


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

    @pytest.mark.parametrize("variants", ["mixed", "pure", "pure,mixed"])
    @pytest.mark.parametrize(
        "metric, family", [("p_unambiguous", "four_mode"), ("delta_p_corr", "three_mode")]
    )
    def test_variants_refused_for_single_column_metrics(self, metric, family, variants, capsys):
        code, out, err = run(
            ["curve", "--family", family, "--metric", metric, "--variants", variants,
             "--alpha", "0:1:2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --variants") and err.count("\n") == 1

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

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_request_leaves_output_file_alone(self, existing, tmp_path):
        # three_mode p_corr at |alpha| = 8 passes the 150-photon cap
        path = tmp_path / "x.csv"
        if existing:
            path.write_text("kept\n")
        argv = ["curve", "--family", "three_mode", "--metric", "p_corr"]
        with pytest.raises(CapacityError):
            cli.main(argv + ["--alpha", "0:8:3", "-o", str(path)])
        if existing:
            assert path.read_text() == "kept\n"
        else:
            assert not path.exists()

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
        code, out, err = run(
            ["curve", "--family", "two_mode", "--metric", "p_corr", "--alpha", grid],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: argument --alpha") and err.count("\n") == 1

    def test_huge_grid_refused_before_allocating(self, capsys):
        # 10^12 steps used to fail in numpy with a memory-error traceback
        code, out, err = run(
            ["curve", "--family", "two_mode", "--metric", "p_corr",
             "--alpha", "0:1:1000000000000"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: grid") and err.count("\n") == 1

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
        # the default tolerance is a constant, whatever QSD_TAIL_TOL says
        expected = run(SERIES_CURVE, capsys)
        assert run(SERIES_CURVE + ["--tail-tol", "1e-6"], capsys) != expected
        monkeypatch.setenv("QSD_TAIL_TOL", "1e-6")
        assert run(SERIES_CURVE, capsys) == expected
        value = float(expected[1].strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(disc.three_mode_mixed_pcorr(1.0)[0], rel=1e-11)

    @pytest.mark.parametrize("value", ["2", "0", "-1e-6", "nan", "inf", "1e-15", "1e-17"])
    def test_bad_tail_tol_flag(self, value, capsys):
        code, out, err = run(
            ["curve", "--family", "three_mode", "--metric", "p_corr",
             "--alpha", "0:1:3", f"--tail-tol={value}"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "2", "nan", "1e-15", "1e-17"])
    def test_bad_tail_tol_env(self, value, capsys, monkeypatch):
        # no module reads QSD_TAIL_TOL, so a malformed value changes nothing
        expected = run(SERIES_CURVE, capsys)
        monkeypatch.setenv("QSD_TAIL_TOL", value)
        assert run(SERIES_CURVE, capsys) == expected
        assert expected[0] == 0 and expected[2] == ""

#: Names through which a module could read the process environment.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every number is a function of the arguments alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qsd.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS)
        or (isinstance(node, ast.alias) and node.name in ENVIRONMENT_READS)
    ]
    assert found == []


def test_verify_and_curve_never_load_numpy_random():
    # numpy.random costs a fresh interpreter about 5 MB; the seeded verify
    # inputs come from the stdlib instead
    child = (
        "import sys\n"
        "from qsd import cli\n"
        f"codes = [cli.main(['verify', 'all']), cli.main({SERIES_CURVE!r})]\n"
        "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qsd.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.stderr == "[0, 0] False\n"


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

    def test_huge_grid_is_usage_error(self):
        import numpy as np

        # a zero-stride view: 10^12 entries, none of them allocated
        alphas = np.broadcast_to(np.float64(0.5), (10**12,))
        with pytest.raises(cli.UsageError, match="steps"):
            cli.CurveRequest("two_mode", "p_corr", alphas)

    @pytest.mark.parametrize(
        "variants",
        [(), ("bogus",), ("pure", "pure"), ("mixed", "pure", "mixed")],
        ids=["empty", "unknown", "repeated", "repeated_apart"],
    )
    def test_bad_variants_are_usage_errors(self, variants):
        import numpy as np

        with pytest.raises(cli.UsageError, match="variant"):
            cli.CurveRequest("three_mode", "p_corr", np.linspace(0, 1, 3), variants=variants)

    @pytest.mark.parametrize("metric", ["p_unambiguous", "delta_p_corr"])
    def test_single_column_metrics_take_no_variants(self, metric):
        import numpy as np

        grid = np.linspace(0, 1, 3)
        assert cli.CurveRequest("four_mode", metric, grid).variants == disc.VARIANTS
        with pytest.raises(cli.UsageError, match="variants"):
            cli.CurveRequest("four_mode", metric, grid, variants=("mixed",))

    @pytest.mark.parametrize("family", disc.FOUR_STATE_FAMILIES)
    def test_prior_outside_two_mode_is_usage_error(self, family):
        import numpy as np

        with pytest.raises(cli.UsageError, match="prior"):
            cli.CurveRequest(family, "p_corr", np.linspace(0, 1, 3), prior=0.1)

    @pytest.mark.parametrize(
        "alphas, tail_tol",
        [([math.nan, 1.0], 1e-12), ([0.0, -1.0, 1.0], 1e-12), ([0.0, 1.0], 1e-17)],
        ids=["nan_entry", "negative_entry", "tail_tol_1e-17"],
    )
    def test_bad_grid_or_tail_tol_is_usage_error(self, alphas, tail_tol):
        with pytest.raises(cli.UsageError):
            cli.CurveRequest("three_mode", "p_corr", alphas, tail_tol=tail_tol)


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

    def test_unreachable_tail_tol_rejected(self, capsys):
        # verify runs at the default tolerance its check tolerances are set
        # for, so it takes no --tail-tol: not an unreachable 1e-17, nor 1e-9
        for suite, value in (("families", "1e-17"), ("all", "1e-9"), ("all", "1e-12")):
            code, out, err = run(["verify", suite, "--tail-tol", value], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: unrecognized arguments: --tail-tol {value}\n"

    def test_unknown_suite_rejected(self, capsys):
        code, out, err = run(["verify", "appendix_z"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: argument suite") and err.count("\n") == 1

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from qsd import verify

        monkeypatch.setattr(
            verify,
            "run_suite",
            lambda name: [verify.CheckResult("forced.fail", 1.0, verify.BOOLEAN_TOL)],
        )
        code, out, _err = run(["verify", "gram"], capsys)
        assert code == 1
        assert "FAIL  forced.fail" in out

    @staticmethod
    def stub_suites(monkeypatch, **suites):
        """Replace every suite by one passing row `<suite>.ok`, or by `suites[name]`."""
        from qsd import verify

        for name in verify.SUITE_NAMES:
            row = [verify.CheckResult(f"{name}.ok", 0.0, verify.BOOLEAN_TOL)]
            monkeypatch.setattr(verify, f"suite_{name}", suites.get(name, lambda row=row: row))

    def test_raising_suite_is_one_fail_row_and_the_rest_still_run(self, capsys, monkeypatch):
        def broken():
            raise ZeroDivisionError("float division by zero")

        self.stub_suites(monkeypatch, gram=broken)
        code, out, err = run(["verify", "all"], capsys)
        assert code == 1
        assert err == "error: suite gram raised ZeroDivisionError: float division by zero\n"
        assert out.splitlines() == [
            "PASS  fock.ok  0.000e+00",
            "FAIL  gram.raised  inf",
            "PASS  families.ok  0.000e+00",
            "PASS  appendix_a.ok  0.000e+00",
            "PASS  appendix_b.ok  0.000e+00",
            "PASS  circuit.ok  0.000e+00",
            "# 5/6 checks passed",
        ]

    def test_rows_are_written_as_each_suite_finishes(self, capsys, monkeypatch):
        seen = []
        self.stub_suites(monkeypatch, gram=lambda: seen.append(capsys.readouterr().out) or [])
        assert run(["verify", "all"], capsys)[0] == 0
        assert seen == ["PASS  fock.ok  0.000e+00\n"]  # before the gram suite ran


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
        code, out, err = run(["circuit", "fig9", "--state", "00"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: argument preset") and err.count("\n") == 1

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


@pytest.mark.parametrize("command", [[], ["curve"], ["verify"], ["circuit"]])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(command + ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qsd")
