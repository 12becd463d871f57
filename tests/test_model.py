import io
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bondkit import (
    LogPriceCurve,
    MaturityGrid,
    ModelParams,
    PdeConfig,
    RateGrid,
    ValidationError,
    build_table,
    load_params,
    save_params,
    solve,
    validate_params,
)


class TestValidateParams:
    def test_benchmark_set_accepted_without_feller(self, params):
        # 2*0.00315 = 0.0063 < 0.0894^2 = 0.00799236: the Feller condition is no invariant
        assert validate_params(params) is params

    def test_negative_alpha(self):
        with pytest.raises(ValidationError, match=r"^alpha must be > 0, got -1.0$"):
            validate_params(ModelParams(-1.0, 0.0, 1.0, 0.5))

    def test_zero_alpha(self):
        with pytest.raises(ValidationError, match=r"^alpha must be > 0, got 0.0$"):
            validate_params(ModelParams(0.0, 0.0, 1.0, 0.5))

    def test_non_positive_sigma(self):
        with pytest.raises(ValidationError, match=r"^sigma must be > 0, got 0.0$"):
            validate_params(ModelParams(0.1, 0.0, 0.0, 0.5))

    def test_negative_gamma(self):
        with pytest.raises(ValidationError, match=r"^gamma must be >= 0, got -0.25$"):
            validate_params(ModelParams(0.1, 0.0, 0.1, -0.25))

    @pytest.mark.parametrize("field,value", [("alpha", np.inf), ("beta", np.nan),
                                             ("sigma", np.inf), ("gamma", np.nan)])
    def test_non_finite_rejected(self, params, field, value):
        with pytest.raises(ValidationError, match=field):
            validate_params(replace(params, **{field: value}))

    def test_any_beta_sign_accepted(self):
        for beta in (-1.0, 0.0, 0.3):
            p = ModelParams(0.1, beta, 0.1, 0.5)
            assert validate_params(p) is p

    def test_idempotent_and_identity(self, params):
        once = validate_params(params)
        twice = validate_params(once)
        assert twice is params


#: One value of each real type other than float a caller may give a field, and the values
#: that are not real numbers within float range.
REALS = [1, True, np.int64(2), np.float16(0.7), np.float32(0.7), np.float64(0.7), Fraction(4, 3)]
OTHERS = ["0.5", None, Decimal("0.5"), 10**400]


class TestFieldType:
    """A parameter is a Python float from construction: ModelParams stores
    each real field, and PdeConfig its r_max and t_final, as the float of
    its value.  Any other value is kept as given, and refused with
    ValidationError by validate_params (so by solve) and by PdeConfig."""

    @pytest.mark.parametrize("v", REALS, ids=lambda v: type(v).__name__)
    def test_a_real_field_is_stored_as_its_float(self, v):
        p, cfg = ModelParams(v, v, v, v), PdeConfig(r_max=v, t_final=v)
        for got in (p.alpha, p.beta, p.sigma, p.gamma, cfg.r_max, cfg.t_final):
            assert type(got) is float and got.hex() == float(v).hex()
        assert p == ModelParams(*[float(v)] * 4) and repr(p) == repr(ModelParams(*[float(v)] * 4))

    @pytest.mark.parametrize("v", OTHERS, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("field", ["alpha", "beta", "sigma", "gamma"])
    def test_any_other_field_is_kept_and_refused(self, params, field, v):
        p = replace(params, **{field: v})
        assert getattr(p, field) is v
        with pytest.raises(ValidationError, match=rf"^{field} must be a finite real number, got {re.escape(repr(v))}$"):
            validate_params(p)
        with pytest.raises(ValidationError, match=rf"^{field} must be a finite real number"):
            solve(p, PdeConfig(n_space=11, n_time=8), [1.0])

    @pytest.mark.parametrize("v", OTHERS, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("field", ["r_max", "t_final"])
    def test_a_config_refuses_any_other_value(self, field, v):
        with pytest.raises(ValidationError, match=rf"^{field} must be finite and > 0, got "):
            PdeConfig(**{field: v})


class TestRateGrid:
    def test_spacing_consistency(self):
        g = RateGrid(0.0, 0.15, 1501)
        assert g.spacing * (g.n_points - 1) == pytest.approx(0.15, abs=1e-18)
        pts = g.points
        assert pts[0] == 0.0 and pts[-1] == 0.15
        assert np.all(np.diff(pts) > 0)
        assert np.allclose(np.diff(pts), g.spacing, rtol=1e-12)

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            RateGrid(-0.01, 0.15, 10)
        with pytest.raises(ValidationError):
            RateGrid(0.2, 0.1, 10)
        with pytest.raises(ValidationError):
            RateGrid(0.0, 0.1, 1)

    @pytest.mark.parametrize("r_max", [np.inf, np.nan])
    def test_non_finite_r_max_rejected(self, r_max):
        with pytest.raises(ValidationError, match="r_max < inf"):
            RateGrid(0.0, r_max, 3)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(5.0)])
    def test_non_integer_n_points_rejected(self, bad):
        # the same rule and message as PdeConfig's grid sizes
        with pytest.raises(ValidationError, match=r"^n_points must be an integer >= 2, got "):
            RateGrid(0.0, 0.1, bad)

    def test_numpy_integer_n_points_accepted(self):
        g = RateGrid(0.0, 0.1, np.int64(5))
        assert g.points.shape == (5,) and g.points[-1] == 0.1


class TestMaturityGrid:
    def test_decreasing_and_increasing_ok(self):
        assert MaturityGrid((1.0, 0.75, 0.5, 0.25)).taus == (1.0, 0.75, 0.5, 0.25)
        assert len(MaturityGrid(range(1, 11))) == 10

    def test_rejects_zero_and_nonmonotone(self):
        with pytest.raises(ValidationError):
            MaturityGrid((1.0, 0.0))
        with pytest.raises(ValidationError):
            MaturityGrid((1.0, 0.5, 0.75))
        with pytest.raises(ValidationError):
            MaturityGrid(())
        with pytest.raises(ValidationError):
            MaturityGrid((float("nan"),))


class TestLogPriceCurve:
    def test_valid(self):
        g = RateGrid(0.0, 0.1, 5)
        c = LogPriceCurve(g, 1.0, np.linspace(0, -0.1, 5))
        assert c.values.shape == (5,)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            LogPriceCurve(RateGrid(0.0, 0.1, 5), 1.0, np.zeros(4))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            LogPriceCurve(RateGrid(0.0, 0.1, 3), 1.0, np.array([0.0, np.nan, 0.0]))

    def test_tau_zero_must_be_flat_one(self):
        g = RateGrid(0.0, 0.1, 3)
        LogPriceCurve(g, 0.0, np.zeros(3))
        with pytest.raises(ValidationError):
            LogPriceCurve(g, 0.0, np.array([0.0, -1e-9, 0.0]))


class TestParamsFile:
    def test_round_trip_exact(self, tmp_path, params):
        path = tmp_path / "params.txt"
        save_params(params, path)
        again = load_params(path)
        assert again == params  # bitwise: repr round-trip

    def test_numpy_floats_round_trip(self, tmp_path, params):
        # each value is written as a Python float, so load_params reads it back
        p = ModelParams(*map(np.float64, (params.alpha, params.beta, params.sigma, params.gamma)))
        path = tmp_path / "params.txt"
        save_params(p, path)
        assert path.read_text() == "alpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 0.5\n"
        assert load_params(path) == p

    def test_csv_params_line_prints_python_floats(self, params):
        p = ModelParams(*map(np.float64, (params.alpha, params.beta, params.sigma, params.gamma)))
        buf = io.StringIO()
        build_table("1", p).to_csv(buf)
        assert "# params: alpha=0.00315 beta=-0.0555 sigma=0.0894 gamma=0.5\n" in buf.getvalue()

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# benchmark\nalpha = 0.00315\nbeta=-0.0555  # slope\nsigma = 0.0894\ngamma = 0.5\n")
        p = load_params(path)
        assert p == ModelParams(0.00315, -0.0555, 0.0894, 0.5)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("alpha = 0.1\nbeta = 0\nsigma = 0.1\n")
        with pytest.raises(ValidationError):
            load_params(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("alpha = 0.1\nbeta = 0\nsigma = 0.1\ngamma = 0.5\nkappa = 1\n")
        with pytest.raises(ValidationError):
            load_params(path)

    def test_key_given_twice(self, tmp_path):
        # the later value would otherwise win silently; keys are case-blind
        path = tmp_path / "p.txt"
        path.write_text("alpha = 0.1\nbeta = 0\nsigma = 0.1\ngamma = 0.5\nAlpha = 0.2\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:5: key 'alpha' given twice$"):
            load_params(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("alpha = abc\nbeta = 0\nsigma = 0.1\ngamma = 0.5\n")
        with pytest.raises(ValidationError):
            load_params(path)
