import numpy as np
import pytest

from bondkit.cli import main


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

    def test_feller_flag(self, capsys):
        code, _, err = run(capsys, "price", "--method", "cw", "--feller-check",
                           "--tau", "1", "--rate", "0.1")
        assert code == 2 and "sigma" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "price", "--method", "improved", "--gamma", "0.75",
                         "--tau", "1", "--rate", "0")
        assert code == 2

    @pytest.mark.parametrize("method", ["cw", "improved", "cir"])
    def test_negative_rate_exit_2(self, capsys, method):
        code, out, err = run(capsys, "price", "--method", method, "--tau", "1", "--rate", "-0.1")
        assert code == 2 and out == ""
        assert "rate" in err

    def test_pde_method_small_grid(self, capsys):
        base = ["--tau", "0.5", "--rate", "0.1", "--nspace", "401", "--ntime", "400"]
        code, out, _ = run(capsys, "price", "--method", "pde", *base)
        assert code == 0
        lnp, _ = parse_price(out)
        _, out_cir, _ = run(capsys, "price", "--method", "cir", "--tau", "0.5", "--rate", "0.1")
        assert abs(lnp - parse_price(out_cir)[0]) < 1e-5

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

    def test_gamma_beyond_range_needs_force(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        args = ["pde", "--gamma", "1.6", "--out", str(path),
                "--nspace", "101", "--ntime", "20", "--taus", "1"]
        code, _, err = run(capsys, *args)
        assert code == 3 and "1.5" in err
        code2, _, _ = run(capsys, *args, "--force-gamma")
        assert code2 == 0

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

    def test_startup_steps_reported_within_step_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "pde", "--nspace", "11", "--ntime", "4", "--taus", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert out.startswith("solved: 4 steps (4 implicit startup)")
        assert "rannacher=4 " in (tmp_path / "x.csv").read_text()
