import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bondkit
from bondkit.cli import main

# the exact bytes of ``bondkit eoc`` (defaults), on stdout or in an --out file
EOC_CSV = """\
tau,err,eoc
1.0,2.7744179850741624e-07,4.930366775301482
0.75,6.717042484727376e-08,4.951037467978068
0.5,9.022848676543127e-09,4.971622993540574
0.25,2.8756499959037285e-10,
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_price(stdout):
    fields = dict(part.split("=") for part in stdout.split())
    return float(fields["lnP"]), float(fields["P"])


class TestPrice:
    def test_zero_maturity(self, capsys):
        code, out, _ = run(capsys, "price", "--method", "cw", "--tau", "0", "--rate", "0.05")
        assert code == 0
        assert out.strip() == "lnP=0 P=1"

    def test_cw_close_to_cir(self, capsys):
        argv = ["--gamma", "0.5", "--tau", "1", "--rate", "0.1"]
        _, out_cw, _ = run(capsys, "price", "--method", "cw", *argv)
        _, out_cir, _ = run(capsys, "price", "--method", "cir", *argv)
        lnp_cw, _ = parse_price(out_cw)
        lnp_cir, _ = parse_price(out_cir)
        assert abs(lnp_cw - lnp_cir) < 2.774e-7

    def test_17_digit_round_trip(self, capsys):
        _, out, _ = run(capsys, "price", "--method", "cir", "--tau", "1", "--rate", "0.1")
        lnp, p = parse_price(out)
        from bondkit import DEFAULT_PARAMS, cir_log_price

        assert lnp == cir_log_price(DEFAULT_PARAMS, 1.0, 0.1)  # %.17g round-trips
        assert p == np.exp(lnp)

    def test_method_gamma_mismatch_exit_3(self, capsys):
        code, _, err = run(capsys, "price", "--method", "cir", "--gamma", "1.0",
                           "--tau", "1", "--rate", "0.1")
        assert code == 3
        assert "gamma" in err

    def test_validation_error_exit_2(self, capsys):
        code, _, err = run(capsys, "price", "--method", "cw", "--alpha", "-1",
                           "--tau", "1", "--rate", "0.1")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("flag,value", [("--beta", "nan"), ("--sigma", "inf"),
                                            ("--tau", "nan"), ("--tau", "inf"), ("--rate", "nan")])
    def test_non_finite_input_exit_2(self, capsys, flag, value):
        argv = {"--tau": "1", "--rate": "0.1", flag: value}
        code, out, err = run(capsys, "price", "--method", "cw", *(x for kv in argv.items() for x in kv))
        assert code == 2 and out == ""
        assert flag[2:] in err

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "price", "--method", "improved", "--gamma", "0.75",
                         "--tau", "1", "--rate", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [("cw", "--tau", "1e308"), ("improved", "--tau", "100"),
                                      ("improved", "--tau", "1e52"),
                                      ("vasicek", "--gamma", "0", "--tau", "1e6")])
    def test_out_of_range_price_exit_2(self, capsys, argv):
        # neither NaN nor an overflow traceback: the pricer's refusal of its
        # own overflow, or the CLI's refusal naming method, tau and lnP
        method, *rest = argv
        code, out, err = run(capsys, "price", "--method", method, *rest, "--rate", "0.05")
        assert code == 2 and out == ""
        refused_by_pricer = {("cw", "--tau", "1e308"): "cw_log_price: out of float range at tau=1e+308",
                             ("improved", "--tau", "1e52"): "improved_log_price: out of float range at tau=1e+52"}
        if argv in refused_by_pricer:
            assert err == f"error: {refused_by_pricer[argv]}\n"
        else:
            assert f"--method {method} at tau=" in err and "lnP=" in err

    @pytest.mark.parametrize("argv, message", [
        (("cw", "--beta", "0", "--tau", "1e80"), "cw_log_price: out of float range at tau=1e+80"),
        (("vasicek", "--gamma", "0", "--beta", "1e103", "--tau", "1e-110"),
         "vasicek_log_price: out of float range at tau=1e-110"),
        (("improved", "--sigma", "1e160", "--tau", "1"),
         "improved_log_price: out of float range at tau=1.0"),
        (("improved", "--gamma", "1e200", "--tau", "1"),
         "improved_log_price: out of float range at tau=1.0"),
        (("cir", "--sigma", "1e-170", "--tau", "1"), "cir_log_price: out of float range at tau=1.0"),
    ], ids=["cw-beta-zero", "vasicek-huge-beta", "improved-huge-sigma", "improved-huge-gamma",
            "cir-tiny-sigma"])
    def test_pricer_overflow_is_refused_by_the_pricer(self, capsys, argv, message):
        # a Python float power that overflows (the beta -> 0 series, a huge
        # sigma or gamma), or a division by a sigma**2 that underflowed to 0,
        # is a typed refusal from the library, not a traceback
        method, *rest = argv
        code, out, err = run(capsys, "price", "--method", method, *rest, "--rate", "0.05")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_pricer_refusal_is_the_only_stderr_line(self):
        # under default warning filters, NumPy's overflow warnings do not
        # reach stderr ahead of the pricer's refusal of its NaN result
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bondkit.__file__))
        proc = subprocess.run([sys.executable, "-m", "bondkit.cli", "price", "--method", "cw", "--sigma", "1e100",
                               "--gamma", "0.75", "--tau", "1", "--rate", "0.05"],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: cw_log_price: out of float range at tau=1.0\n")

    def test_improved_long_maturity_still_prices(self, capsys):
        code, out, _ = run(capsys, "price", "--method", "improved", "--tau", "30", "--rate", "0.05")
        assert code == 0
        lnp, p = parse_price(out)
        assert np.isfinite(lnp) and np.isfinite(p)

    @pytest.mark.parametrize("method", ["cw", "improved", "cir"])
    def test_negative_rate_exit_2(self, capsys, method):
        code, out, err = run(capsys, "price", "--method", method, "--tau", "1", "--rate", "-0.1")
        assert code == 2 and out == ""
        assert "rate" in err

    @pytest.mark.parametrize("rate", ["5.0", "-0.3"])
    def test_pde_method_rate_outside_grid_exit_2(self, capsys, rate):
        # the solver grid is [0, --rmax]; a rate beyond either end has no price there
        code, out, err = run(capsys, "price", "--method", "pde", "--tau", "1", "--rate", rate,
                             "--nspace", "201", "--ntime", "200")
        assert code == 2 and out == ""
        assert "rate" in err

    def test_pde_method_small_grid(self, capsys):
        base = ["--tau", "0.5", "--rate", "0.1", "--nspace", "401", "--ntime", "400"]
        code, out, _ = run(capsys, "price", "--method", "pde", *base)
        assert code == 0
        lnp, _ = parse_price(out)
        _, out_cir, _ = run(capsys, "price", "--method", "cir", "--tau", "0.5", "--rate", "0.1")
        assert abs(lnp - parse_price(out_cir)[0]) < 1e-5

    @pytest.mark.parametrize("flag, value", [("--nspace", "2"), ("--ntime", "0"), ("--rmax", "-1"),
                                             ("--tfinal", "-3")])
    @pytest.mark.parametrize("method", ["cw", "improved", "cir", "vasicek"])
    def test_closed_form_refuses_grid_flags(self, capsys, method, flag, value):
        # a closed-form price solves no PDE: a grid flag it would ignore is refused
        code, out, err = run(capsys, "price", "--method", method, "--tau", "1", "--rate", "0.05", flag, value)
        assert (code, out, err) == (2, "", f"error: --method {method} solves no PDE, so it takes no {flag}\n")

    def test_params_file(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 0.5\n")
        _, out_file, _ = run(capsys, "price", "--params", str(f), "--method", "cir",
                             "--tau", "1", "--rate", "0.1")
        _, out_flags, _ = run(capsys, "price", "--method", "cir", "--tau", "1", "--rate", "0.1")
        assert out_file == out_flags

    def test_flag_overrides_file(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 1.0\n")
        code, out, _ = run(capsys, "price", "--params", str(f), "--gamma", "0.5",
                           "--method", "cir", "--tau", "1", "--rate", "0.1")
        assert code == 0

    def test_params_file_key_given_twice(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 0.5\nalpha = 0.1\n")
        code, out, err = run(capsys, "price", "--params", str(f), "--method", "cir",
                             "--tau", "1", "--rate", "0.1")
        assert code == 2 and out == ""
        assert f"{f}:5: key 'alpha' given twice" in err


class TestTable:
    def test_table1_check_passes(self, capsys):
        code, out, _ = run(capsys, "table", "--table", "1", "--check")
        assert code == 0
        assert "max deviation" in out

    def test_table2_rows(self, capsys, tmp_path):
        path = tmp_path / "t2.csv"
        code, _, _ = run(capsys, "table", "--table", "2", "--out", str(path))
        assert code == 0
        data = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(data) == 1 + 10  # header + ten maturities

    def test_table1_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "table", "--table", "1", "--out", str(a))
        run(capsys, "table", "--table", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_adds_metadata(self, capsys, tmp_path):
        path = tmp_path / "t1.csv"
        run(capsys, "table", "--table", "1", "--out", str(path), "--stamp")
        assert "# generated:" in path.read_text()

    def test_requires_out_or_check(self, capsys):
        code, _, err = run(capsys, "table", "--table", "1")
        assert code == 2

    def test_table3_small_grid_writes(self, capsys, tmp_path):
        path = tmp_path / "t3.csv"
        code, _, _ = run(capsys, "table", "--table", "3", "--out", str(path),
                         "--nspace", "201", "--ntime", "80")
        assert code == 0
        text = path.read_text()
        data = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(data) == 1 + 16  # header + 4 gammas x 4 maturities
        assert "solver_grid" in text

    def test_table3_params_line_leaves_gamma_off(self, capsys, tmp_path):
        # table 3 solves its own four gammas and prints them in each row
        params = tmp_path / "p.txt"
        params.write_text("alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 0.75\n")
        path = tmp_path / "t3.csv"
        code, _, _ = run(capsys, "table", "--table", "3", "--params", str(params), "--out", str(path),
                         "--nspace", "201", "--ntime", "80")
        assert code == 0
        assert "# params: alpha=0.00315 beta=-0.0555 sigma=0.0894\n" in path.read_text()

    @pytest.mark.parametrize("argv", [("--table", "1", "--check", "--gamma", "0.75"),
                                      ("--table", "3", "--check", "--tfinal", "2")])
    def test_refuses_gamma_and_tfinal(self, capsys, argv):
        # the tables fix their own gammas and horizon; a flag they ignore is refused
        with pytest.raises(SystemExit) as exc:
            main(["table", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err

    @pytest.mark.parametrize("flag, value", [("--nspace", "41"), ("--ntime", "40"), ("--rmax", "-1")])
    @pytest.mark.parametrize("table", ["1", "2"])
    def test_tables_1_2_refuse_grid_flags(self, capsys, tmp_path, table, flag, value):
        # tables 1-2 solve no PDE: a grid flag they would ignore is refused
        path = tmp_path / "t.csv"
        code, out, err = run(capsys, "table", "--table", table, "--check", "--out", str(path), flag, value)
        assert (code, out, err) == (2, "", f"error: table {table} solves no PDE, so it takes no {flag}\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [("--nspace", "4", "--ntime", "4"),
                                      ("--rmax", "0.1", "--nspace", "11", "--ntime", "8"),
                                      ("--nspace", "7", "--ntime", "8")], ids=["one-node", "short", "companion"])
    def test_table3_refuses_a_grid_without_two_norm_nodes(self, capsys, tmp_path, argv):
        # one node in [0, 0.15] has no L2 norm, and r_max < 0.15 leaves part of the interval out
        path = tmp_path / "t3.csv"
        code, out, err = run(capsys, "table", "--table", "3", "--out", str(path), *argv)
        assert (code, out) == (2, "") and err.startswith("error: table 3 takes its norms on [0, 0.15]")
        assert not path.exists()

    def test_help_names_the_table_gammas(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert "Tables 1-2 price at gamma = 1/2" in out
        assert "table 3 solves its own four gammas (0.5, 0.75, 1.0, 1.32)" in out

    def test_table3_check_exits_4_when_out_of_band(self, capsys):
        # non-nestable grid -> no Richardson companion -> bands are the bare
        # 10 percent, which a deliberately coarse solve cannot hit
        code, out, _ = run(capsys, "table", "--table", "3", "--check",
                           "--nspace", "202", "--ntime", "82")
        assert code == 4
        assert "out of tolerance" in out


class TestEoc:
    def test_defaults_reproduce_reference_orders(self, capsys):
        code, out, _ = run(capsys, "eoc")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,err,eoc"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(2.774e-7, rel=0.02)
        assert float(first[2]) == pytest.approx(4.930, abs=0.01)
        assert lines[4].endswith(",")  # last maturity: no EOC

    def test_l2_improved_pair(self, capsys):
        code, out, _ = run(capsys, "eoc", "--norm", "l2", "--method-pair", "improved,cir",
                           "--taus", "1,0.75")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(7.042, abs=0.05)

    def test_single_tau_rejected(self, capsys):
        code, _, _ = run(capsys, "eoc", "--taus", "1")
        assert code == 2

    @pytest.mark.parametrize("taus", ["1,1/3", "1,nan", "1,inf"])
    def test_bad_taus_exit_2(self, capsys, taus):
        code, out, err = run(capsys, "eoc", "--taus", taus)
        assert code == 2 and out == ""
        assert "--taus" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "eoc.csv"
        code, out, _ = run(capsys, "eoc", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("tau,err,eoc")

    def test_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "eoc.csv"
        assert run(capsys, "eoc", "--out", str(path)) == (0, "", "")
        assert path.read_text() == EOC_CSV
        assert run(capsys, "eoc") == (0, EOC_CSV, "")


class TestPde:
    def test_small_solve_with_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "pde.csv"
        code, out, _ = run(capsys, "pde", "--out", str(path),
                           "--nspace", "201", "--ntime", "100", "--taus", "0.5,1")
        assert code == 0
        assert "min pivot" in out
        assert path.exists()

    def test_gamma_from_reference_study_without_closed_form(self, capsys, tmp_path):
        path = tmp_path / "pde132.csv"
        code, _, _ = run(capsys, "pde", "--gamma", "1.32", "--out", str(path),
                         "--nspace", "201", "--ntime", "100", "--taus", "1")
        assert code == 0

    @pytest.mark.parametrize("flag, name", [("--rmax", "r_max"), ("--tfinal", "t_final")])
    def test_non_finite_grid_exit_2(self, capsys, tmp_path, flag, name):
        # refused before any grid is built: no NumPy warning, no CSV
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "pde", flag, "inf", "--out", str(path),
                             "--nspace", "11", "--ntime", "4", "--taus", "1")
        assert (code, out, err) == (2, "", f"error: {name} must be finite and > 0, got inf\n")
        assert not path.exists()

    def test_gamma_beyond_range_exit_3(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        args = ["pde", "--gamma", "1.6", "--out", str(path),
                "--nspace", "101", "--ntime", "20", "--taus", "1"]
        code, _, err = run(capsys, *args)
        assert code == 3 and "1.5" in err

    def test_off_level_snapshot_keeps_ntime(self, capsys, tmp_path):
        # tau = 0.333333 with t_final = 1 falls between time levels: the
        # solver takes a partial step to it and n_time stays as given
        path = tmp_path / "pde3.csv"
        code, out, _ = run(capsys, "pde", "--out", str(path),
                           "--nspace", "101", "--ntime", "100", "--taus", "0.333333,1")
        assert code == 0
        assert out.startswith("solved: 100 steps")
        assert " n_time=100 " in path.read_text()

    def test_unstable_exit_5(self, capsys, tmp_path):
        path = tmp_path / "u.csv"
        code, _, err = run(capsys, "pde", "--sigma", "1e160", "--out", str(path),
                           "--nspace", "51", "--ntime", "10", "--taus", "1")
        assert code == 5

    @pytest.mark.parametrize("taus", ["0.25,1/3,1", "0.5,nan", "inf"])
    def test_bad_taus_exit_2(self, capsys, tmp_path, taus):
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "pde", "--taus", taus, "--out", str(path),
                             "--nspace", "11", "--ntime", "4")
        assert code == 2 and out == ""
        assert "--taus" in err
        assert not path.exists()

    def test_repeated_maturity_exit_2(self, capsys, tmp_path):
        # two snapshots within the lookup tolerance would be one CSV column twice
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "pde", "--taus", "0.5,0.5", "--nspace", "11", "--ntime", "4",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err == "error: snapshot maturities must be distinct, got (0.5, 0.5)\n"
        assert not path.exists()

    def test_startup_steps_reported_within_step_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "pde", "--nspace", "11", "--ntime", "4", "--taus", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert out.startswith("solved: 4 steps (4 implicit startup)")
        assert "rannacher=4 " in (tmp_path / "x.csv").read_text()


class TestExitCodes:
    """One command per exit code, each refusal naming the error type behind
    it on stderr (exit 4, a failed golden check, is
    ``TestTable::test_table3_check_exits_4_when_out_of_band``)."""

    GRID = ("--nspace", "11", "--ntime", "4")

    @pytest.mark.parametrize("argv, code, message", [
        (("price", "--method", "cw", "--alpha", "-1", "--tau", "1", "--rate", "0.1"),
         2, "alpha must be > 0, got -1.0"),  # ValidationError
        (("price", "--method", "improved", "--gamma", "0.75", "--tau", "1", "--rate", "0"),
         2, "improved_log_price: singular as r -> 0 for this gamma; need r >= 1e-06"),  # DomainError
        (("price", "--method", "cir", "--gamma", "1.0", "--tau", "1", "--rate", "0.1"),
         3, "cir_log_price requires gamma == 0.5, got 1.0"),  # GammaMismatch
        (("pde", "--gamma", "1.6", "--taus", "1", *GRID),
         3, "gamma=1.6 >= 1.5: uniqueness of the continuous problem is not guaranteed there"),
        (("pde", "--sigma", "1e160", "--taus", "1", *GRID),
         5, "non-finite time-step operator entries (parameter/grid overflow)"),  # UnstableSolve
        (("pde", "--alpha", "0.01", "--beta", "1000", "--sigma", "0.1", "--gamma", "0", "--rmax", "0.2",
          "--nspace", "5", "--ntime", "400", "--taus", "1"),
         5, re.compile(r"non-finite price after step \d+")),  # the step depends on LAPACK rounding
    ])
    def test_refusal(self, capsys, tmp_path, argv, code, message):
        path = tmp_path / "x.csv"
        out_flag = ("--out", str(path)) if argv[0] == "pde" else ()
        pattern = message.pattern if isinstance(message, re.Pattern) else re.escape(message)
        got, out, err = run(capsys, *argv, *out_flag)
        assert (got, out) == (code, "") and re.fullmatch(f"error: {pattern}\n", err), err
        assert not path.exists()

    def test_singular_pivot_exit_5(self, capsys, tmp_path, monkeypatch):
        # a singular step matrix is a failed solve, like a non-finite price
        import bondkit.pde

        monkeypatch.setattr(bondkit.pde, "_PIVOT_FLOOR", 1e300)
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "pde", "--taus", "1", *self.GRID, "--out", str(path))
        assert (code, out) == (5, "")
        assert err.startswith("error: time-step matrix pivot ") and err.endswith(" below 1e+300\n")
        assert not path.exists()

    def test_zero_maturity_pde_exit_0(self, capsys, tmp_path):
        # with every maturity 0 and no --tfinal, the solve keeps the default horizon
        assert run(capsys, "price", "--method", "pde", "--tau", "0", "--rate", "0.05") == (0, "lnP=0 P=1\n", "")
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "pde", "--taus", "0", *self.GRID, "--out", str(path))
        assert (code, err) == (0, "") and out.startswith("solved: 0 steps (0 implicit startup)")
        lines = path.read_text().splitlines()
        assert " t_final=1.0 " in lines[1] and lines[3] == "r,lnP_tau0.0"
        assert [ln.split(",")[1] for ln in lines[4:]] == ["0.0"] * 11
