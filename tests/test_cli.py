"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so exit codes and printed output
are exercised exactly as a shell user would see them.
"""

from __future__ import annotations

import json
import math

import pytest

from cgft.cli import main
from cgft.special_functions import mu


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecialFunctionCommand:
    def test_mu_near_half_pi(self, capsys):
        # the 8-digit argument sits 1.19e-9 away from 1/sqrt(2), and the
        # slope of the modulus there is about -2.03, so the printed value
        # can only agree with pi/2 to ~2.4e-9; the function itself is
        # exact at the true argument
        code, out, _ = run_cli(capsys, "sf", "mu", "0.70710678")
        assert code == 0
        assert abs(float(out) - math.pi / 2) <= 1e-8
        assert abs(mu(2**-0.5) - math.pi / 2) <= 1e-10

    def test_two_argument_function(self, capsys):
        code, out, _ = run_cli(capsys, "sf", "phik", "1.0", "0.25")
        assert code == 0
        assert float(out) == pytest.approx(0.25, abs=1e-12)

    def test_interval_result_prints_two_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "sf", "tau-n", "3", "1.0")
        assert code == 0
        lo, hi = map(float, out.split())
        assert lo <= hi

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sf", "mu")
        assert code == 2

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sf", "mu", "1.5")
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize(
        "argv", [("mu-inv", "nan"), ("mu-inv", "inf"), ("tau-n-inv", "3", "nan")]
    )
    def test_non_finite_argument_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "sf", *argv)
        assert code == 2
        assert out == ""
        assert "error" in err.lower()

    def test_upper_end_past_float_range_is_inf(self, capsys):
        code, out, _ = run_cli(capsys, "sf", "tau-n", "3", "1e-200")
        assert code == 0
        lo, hi = out.split()
        assert float(lo) > 0.0 and hi == "inf"


class TestMetricCommand:
    def test_exact_quasihyperbolic_punctured_space(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "metric", "--domain", "punctured_space", "--metric", "quasihyperbolic",
            "--x", "1", "0", "--y", "2", "0",
        )
        assert code == 0
        assert float(out) == pytest.approx(math.log(2), abs=1e-12)

    def test_half_space_quasihyperbolic_of_close_points(self, capsys):
        # the closed form printed 0 here while j printed 9.99999995e-09
        point_args = ("--domain", "half_space", "--x", "0", "1", "--y", "1e-8", "1")
        _, k_out, _ = run_cli(capsys, "metric", "--metric", "quasihyperbolic", *point_args)
        _, j_out, _ = run_cli(capsys, "metric", "--metric", "j", *point_args)
        assert float(k_out) >= float(j_out) > 0.0

    def test_numeric_quasihyperbolic_ball(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "metric", "--domain", "ball", "--metric", "quasihyperbolic",
            "--x", "0.1", "0", "--y", "0.3", "0", "--tol", "1e-3",
        )
        assert code == 0
        # 1D oracle along a diameter: integral of 1/(1-|t|) from 0.1 to 0.3
        exact = math.log(0.9 / 0.7)
        assert float(out) == pytest.approx(exact, rel=5e-3)

    def test_j_metric_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "metric", "--domain", "ball", "--metric", "j",
            "--x", "0.1", "0", "--y", "0.3", "0",
        )
        assert code == 0
        expected = math.log(1 + 0.2 / min(0.9, 0.7))
        assert float(out) == pytest.approx(expected, rel=1e-12)

    def test_mismatched_dimensions_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "metric", "--domain", "ball", "--metric", "j",
            "--x", "0.1", "0", "--y", "0.3",
        )
        assert code == 2

    def test_numeric_quasihyperbolic_refuses_nan_tol(self, capsys):
        code, out, err = run_cli(
            capsys,
            "metric", "--domain", "ball", "--metric", "quasihyperbolic",
            "--x", "0.1", "0", "0", "--y", "0.2", "0.1", "0", "--tol", "nan",
        )
        assert (code, out) == (2, "")
        assert err == "error: tol must be positive and finite\n"


class TestChartCommand:
    def test_export_has_at_least_20_cited_edges(self, capsys):
        code, out, _ = run_cli(capsys, "chart", "export")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "from", "to", "formula", "window", "requires", "validity", "provenance",
        ]
        rows = lines[1:]
        assert len(rows) >= 20
        provenance_col = header.index("provenance")
        for row in rows:
            assert row.split(",")[provenance_col].strip()

    def test_query_identity_edge(self, capsys):
        code, out, _ = run_cli(
            capsys, "chart", "query", "--from", "k", "--to", "j", "--t", "0.5"
        )
        assert code == 0
        first, path_line = out.strip().splitlines()
        assert float(first) == pytest.approx(0.5, abs=1e-15)
        assert path_line.startswith("path: k")

    def test_query_without_required_property_reports_no_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "chart", "query", "--from", "j", "--to", "k", "--t", "0.5"
        )
        assert code == 0
        assert "no transfer" in out

    def test_query_with_uniform_constant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chart", "query", "--from", "j", "--to", "k", "--t", "0.5",
            "--uniform-c", "2.0",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(1.0, abs=1e-15)

    def test_query_past_float_range_is_inf(self, capsys):
        # the qed capacity edge takes expm1(2t), past float range at t = 400
        code, out, _ = run_cli(
            capsys,
            "chart", "query", "--from", "j", "--to", "lambda_inv", "--t", "400",
            "--qed-c", "0.5",
        )
        assert code == 0
        assert out.splitlines()[0] == "inf"

    def test_query_ring_inverse_past_double_range(self, capsys):
        # 1 / (sqrt 2 t) overflows; the upper end at DBL_MAX is taken as it is
        code, out, _ = run_cli(
            capsys, "chart", "query", "--from", "lambda_inv", "--to", "j", "--t", "1e-323"
        )
        assert code == 0
        assert out.splitlines()[0] == "4.9406564584124654e-324"

    @pytest.mark.parametrize(
        "flag", [["--cn", "inf"], ["--uniform-c", "inf"], ["--diam", "inf"], ["--qed-c", "nan"]]
    )
    def test_non_finite_constant_is_usage_error(self, capsys, flag):
        # with --cn inf the mu -> j edge printed 0, a false bound j <= 0
        code, out, err = run_cli(
            capsys,
            "chart", "query", "--from", "mu", "--to", "j", "--t", "0.5", "--connected", *flag,
        )
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "flag, label", [(["--uniform-c", "0.5"], "uniform"), (["--qed-c", "4"], "qed")]
    )
    def test_impossible_constant_is_usage_error(self, capsys, flag, label):
        # --uniform-c 0.5 printed j <= 0.5 k, against the chart's own k -> j edge
        code, out, err = run_cli(
            capsys, "chart", "query", "--from", "j", "--to", "k", "--t", "1", *flag
        )
        assert code == 2 and out == ""
        assert f"{label}_constant" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # an explored path through the qed capacity reaches tau2_inv(0)
            (["--from", "j", "--t", "0.3", "--cn", "0.15", "--uniform-c", "2",
              "--qed-c", "0.5", "--diam", "2", "--connected", "--nondegenerate"],
             2.0 * math.expm1(0.3)),
            (["--dimension", "3", "--from", "k", "--t", "0.01", "--uniform-c", "2",
              "--qed-c", "0.5", "--diam", "2", "--connected", "--nondegenerate",
              "--card-ge-2"],
             0.02),
            # (exp(t) - 1) * diam overflows on the way, t * diam does not
            (["--from", "k", "--t", "800", "--diam", "2"], 1600.0),
        ],
    )
    def test_infinite_detour_keeps_finite_answer(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "chart", "query", "--to", "euclid", *argv)
        assert code == 0
        value, path = out.strip().splitlines()
        assert float(value) == pytest.approx(expected, rel=1e-15)
        assert path == f"path: {argv[argv.index('--from') + 1]} -> euclid"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--from", "j", "--to", "mu", "--t", "1e-310", "--local"],
            ["--from", "mu", "--to", "lambda_inv", "--t", "5e-324", "--cn", "10",
             "--qed-c", "0.5", "--connected"],
        ],
    )
    def test_subnormal_t_answers(self, capsys, argv):
        # 1 / expm1(t) overflowed to inf and t / c_n underflowed to 0 here
        code, out, _ = run_cli(capsys, "chart", "query", *argv)
        assert code == 0
        assert float(out.splitlines()[0]) > 0.0

    def test_export_takes_no_domain_constant(self, capsys):
        code, out, _ = run_cli(capsys, "chart", "export", "--cn", "0.15")
        assert code == 2 and out == ""


class TestBallCommand:
    def test_circumscribed_near_two(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "circumscribed", "--T", "0.49")
        assert code == 0
        assert abs(float(out) - 2.0) < 0.25

    def test_quasiball_factors(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "quasiball", "--M", "0.5")
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert float(lines["inner"]) == pytest.approx(1 - math.exp(-0.5), rel=1e-15)
        assert float(lines["outer"]) == pytest.approx(math.exp(0.5) - 1, rel=1e-15)

    def test_irrelevance_default_is_cubic_root(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "irrelevance")
        assert code == 0
        r = float(out)
        assert abs(r**3 + r**2 - 1) <= 1e-12

    def test_mu_constants_at_small_t(self, capsys):
        # tau2_inv(0.005) is +inf, so d1 takes its limit 1
        code, out, _ = run_cli(capsys, "ball", "mu-constants", "--n", "2", "--t", "0.005")
        assert code == 0
        assert "d1 1\n" in out

    def test_mu_constants_outer_factor_positive_at_small_t(self, capsys):
        # 1/u underflows for u = tau2_inv(0.005) = +inf; the outer factor
        # reports the upper bound 1/DBL_MAX rounded up, not 0
        code, out, _ = run_cli(capsys, "ball", "mu-constants", "--n", "2", "--t", "0.005")
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values["d3"]) > 0.0
        assert float(values["k_radius_outer"]) > 0.0

    def test_lambda_constants_outer_factor_positive_at_large_t(self, capsys):
        # tau2_inv(1000 / sqrt 2) underflows to 0; c3 reports the smallest
        # positive double, an upper bound of it
        code, out, _ = run_cli(capsys, "ball", "lambda-constants", "--t", "1000")
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values["c3"]) > 0.0
        assert float(values["k_radius_outer"]) > 0.0

    @pytest.mark.parametrize(
        "command, key", [("mu-constants", "d2_hi"), ("lambda-constants", "c1_hi")]
    )
    def test_upper_end_positive_at_small_t(self, capsys, command, key):
        # tau_3_inv overflows at t = 1e-6: the upper end is its value at
        # DBL_MAX rounded up, not 0
        code, out, _ = run_cli(capsys, "ball", command, "--n", "3", "--t", "1e-6")
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values[key]) > 0.0


class TestDistortCommand:
    def test_bound_prints_value_and_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "distort", "bound", "--quantity", "euclid_displacement", "--K", "1.5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert float(lines[0]) > 0
        assert lines[1].startswith("validity:")
        assert lines[2].startswith("bound:")

    def test_report_lists_entries(self, capsys):
        code, out, _ = run_cli(capsys, "distort", "report", "--K", "1.5")
        assert code == 0
        assert len(out.strip().splitlines()) >= 5

    @pytest.mark.parametrize("K", ["100", "141", "1e4"])
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_report_at_large_K(self, capsys, K, n):
        # c3 = e^(60 sqrt(K-1)) overflows from K ~ 141
        code, out, _ = run_cli(capsys, "distort", "report", "--K", K, "--n", n)
        assert code == 0
        for line in out.splitlines():
            _, shown = line.split()
            assert shown == "inapplicable" or float(shown) >= 0.0, line

    @pytest.mark.parametrize("K", ["nan", "inf"])
    def test_report_refuses_non_finite_K(self, capsys, K):
        code, out, err = run_cli(capsys, "distort", "report", "--K", K)
        assert code == 2 and out == ""
        assert f"K={K}" in err

    def test_lens_brute_requires_enough_samples(self, capsys):
        code, _, err = run_cli(
            capsys, "distort", "lens-brute", "--x", "-1", "0", "--eps", "0.01",
            "--N", "100",
        )
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("eps", ["inf", "nan", "0"])
    def test_lens_brute_refuses_bad_eps(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "distort", "lens-brute", "--x", "-0.5", "0", "--eps", eps
        )
        assert code == 2 and out == ""
        assert "lens_diam_brute needs finite eps > 0" in err

    def test_lens_exact_is_the_corner_distance(self, capsys):
        # x = -1: the corners |p| = 1.01, |p - e1| = 1.99 sit at Re p = -0.97,
        # and they are the farthest pair of the one-patch lens
        code, out, _ = run_cli(
            capsys, "distort", "lens-exact", "--x", "-1", "0", "--eps", "0.01"
        )
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.sqrt(1.01**2 - 0.97**2), rel=1e-13)

    @pytest.mark.parametrize("eps", ["0", "nan"])
    def test_lens_exact_refuses_bad_eps(self, capsys, eps):
        code, out, err = run_cli(
            capsys, "distort", "lens-exact", "--x", "-1", "0", "--eps", eps
        )
        assert code == 2 and out == ""
        assert "needs finite eps > 0" in err

    def test_lens_exact_refuses_non_finite_x(self, capsys):
        code, out, err = run_cli(
            capsys, "distort", "lens-exact", "--x", "nan", "0", "--eps", "0.01"
        )
        assert code == 2 and out == ""
        assert "finite x" in err

    @pytest.mark.parametrize("op", ["lens-exact", "lens-brute"])
    def test_lens_refuses_x_whose_squared_radius_overflows(self, capsys, op):
        code, out, err = run_cli(
            capsys, "distort", op, "--x", "1e308", "1e308", "--eps", "0.01"
        )
        assert code == 2 and out == ""
        assert "lens construction" in err


class TestHarmonicCommand:
    def test_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "harmonic", "exponent", "--k", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(8 / 9, rel=1e-15)

    def test_laplacian_of_shear(self, capsys):
        code, out, _ = run_cli(
            capsys, "harmonic", "laplacian", "--k", "0.5", "--z", "1", "0"
        )
        assert code == 0
        assert float(out) == pytest.approx(5.0, rel=1e-12)

    def test_scan_reports_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "harmonic", "scan", "--k", "0.2", "--p", "0.9",
            "--grid", "48",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("min ")
        assert lines[2] == "subharmonic yes"

    def test_moduli_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "harmonic", "moduli", "--k", "0.3", "--delta-list", "0.1,0.05",
            "--boundary-n", "1024",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,boundary_modulus,closed_modulus"
        assert len(lines) == 3

    def test_explicit_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "harmonic", "laplacian", "--g", "0,1", "--h", "0,0.5", "--z", "1", "0",
        )
        assert code == 0
        assert float(out) == pytest.approx(5.0, rel=1e-12)

    def test_k_and_g_together_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "harmonic", "laplacian", "--k", "0.5", "--g", "0,1", "--z", "1", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_moduli_refuses_non_finite_delta(self, capsys, delta):
        # inf printed "inf,3,3" with exit 0; nan failed converting NaN to an integer
        code, out, err = run_cli(
            capsys,
            "harmonic", "moduli", "--k", "0.5", "--delta-list", delta, "--boundary-n", "64",
        )
        assert (code, out) == (2, "")
        assert err == "error: delta must be positive and finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--k", "0.5", "--p", "nan", "--grid", "16"),
            ("laplacian", "--k", "0.5", "--z", "0.5", "0", "--p", "nan"),
            ("profile", "--k", "0.5", "--p-list", "nan", "--grid", "16"),
        ],
    )
    def test_refuses_nan_p(self, capsys, argv):
        # each printed NaN results with exit 0
        code, out, err = run_cli(capsys, "harmonic", *argv)
        assert (code, out) == (2, "")
        assert err == "error: p must be positive and finite\n"

    def test_scan_refuses_nan_tol(self, capsys):
        # the grid minimum here is about 0.175 > 0, yet a NaN tol read "no"
        code, out, err = run_cli(
            capsys, "harmonic", "scan", "--k", "0.5", "--p", "1", "--tol", "nan"
        )
        assert (code, out) == (2, "")
        assert err == "error: tol must be nonnegative and finite\n"


class TestVerifyCommand:
    def test_filter_runs_matching_checks_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "phipyth")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS phipythagorean-complement")
        assert lines[-1].startswith("summary: total=1 passed=1")

    def test_gated_checks_skip_without_constants(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "constant$")
        assert code == 0
        skip_lines = [l for l in out.splitlines() if l.startswith("SKIP")]
        assert len(skip_lines) == 3
        assert all("unconfigured constant" in l for l in skip_lines)

    def test_gated_checks_run_with_constants(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--filter", "constant$",
            "--cn", "0.15", "--uniform-c", "2.0", "--qed-c", "0.5",
        )
        assert code == 0
        assert not [l for l in out.splitlines() if l.startswith("SKIP")]
        assert "failed=0" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--filter", "spot-values", "--json", str(path)
        )
        assert code == 0
        text = path.read_text()
        obj = json.loads(text)
        assert json.dumps(obj, indent=2) + "\n" == text
        entry = obj["entries"][0]
        assert list(entry) == [
            "check_id", "provenance", "grid_spec", "min_slack",
            "argmin", "passed", "tolerance", "note",
        ]
        assert obj["summary"]["failed"] == 0

    def test_json_write_failure_is_io_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--filter", "spot-values",
            "--json", "/nonexistent-dir/report.json",
        )
        assert code == 3
        assert "error" in err.lower()

    def test_failed_entry_exits_one(self, capsys, monkeypatch):
        from cgft import verify
        from cgft.verify import VerifyEntry, VerifyReport

        failing = VerifyReport(
            entries=(
                VerifyEntry(
                    check_id="synthetic-failure",
                    provenance="synthetic",
                    grid_spec="one point",
                    min_slack=-1.0,
                    argmin="x=0",
                    passed=False,
                ),
            )
        )
        monkeypatch.setattr(verify, "run_verify", lambda *a, **k: failing)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.startswith("FAIL synthetic-failure")

    def test_raising_check_fails_and_the_run_goes_on(self, capsys, monkeypatch):
        from cgft import verify

        def raises(cfg, t):
            raise OverflowError("math range error")

        def passes(cfg, t):
            t.add(1.0, "x")

        monkeypatch.setattr(
            verify,
            "_REGISTRY",
            [
                verify._Check("raises", "synthetic", "one point", 0.0, (), raises),
                verify._Check("passes", "synthetic", "one point", 0.0, (), passes),
            ],
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.splitlines() == [
            "FAIL raises min_slack=nan argmin=- "
            "(raised OverflowError: math range error)",
            "PASS passes min_slack=1.000000e+00 argmin=x",
            "summary: total=2 passed=1 failed=1 skipped=0",
        ]

    def test_determinism_across_runs(self, capsys):
        # power-chain draws from a seeded generator, so identical output
        # across runs is evidence the whole pipeline is seed-stable
        _, out1, _ = run_cli(capsys, "verify", "--filter", "power-chain|spot|quartic")
        _, out2, _ = run_cli(capsys, "verify", "--filter", "power-chain|spot|quartic")
        assert out1 == out2

    def test_json_report_is_strict_json(self, tmp_path, capsys, monkeypatch):
        # a check that raises reports a NaN slack
        from cgft import verify

        def raises(cfg, t):
            raise OverflowError("math range error")

        monkeypatch.setattr(
            verify, "_REGISTRY", [verify._Check("raises", "synthetic", "one point", 0.0, (), raises)]
        )
        path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--json", str(path))
        assert code == 1

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        obj = json.loads(path.read_text(), parse_constant=refuse)
        (entry,) = obj["entries"]
        assert entry["min_slack"] is None
        assert entry["passed"] is False

    @pytest.mark.parametrize(
        "flag", [["--uniform-c", "inf"], ["--uniform-c", "0.5"], ["--qed-c", "4"], ["--cn", "0"]]
    )
    def test_impossible_constant_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestSweepCommand:
    def test_three_step_sweep_has_four_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "sf.mu", "--from", "0.2", "--to", "0.8", "--steps", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "x,value"
        mid = lines[2].split(",")
        assert float(mid[0]) == pytest.approx(0.5)
        assert float(mid[1]) == pytest.approx(2.0094593770052849, rel=1e-15)

    def test_empty_sweep_is_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ball.quasiball", "--from", "0.2", "--to", "1.0",
            "--steps", "0",
        )
        assert code == 0
        assert out == "M,inner,outer\n"

    def test_csv_numbers_have_17_significant_digits(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "sf.tau2", "--from", "0.5", "--to", "1.5", "--steps", "3",
            "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        # 0.5 at 17 significant digits shows its exact binary value
        assert lines[1].split(",")[0] == "0.5"
        value = lines[1].split(",")[1]  # tau2(0.5), an irrational value
        mantissa = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 16

    def test_param_name_override(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "harmonic.exponent", "--from", "0.1", "--to", "0.9",
            "--steps", "2", "--param", "dilatation",
        )
        assert code == 0
        assert out.splitlines()[0] == "dilatation,q"

    def test_interval_valued_sweep_gets_two_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "distort.bound", "--quantity", "growth_envelope",
            "--from", "1.2", "--to", "2.0", "--steps", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "K,lo,hi"
        for line in lines[1:]:
            _, lo, hi = map(float, line.split(","))
            assert lo <= hi

    def test_unknown_op_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "sf.bogus", "--from", "0", "--to", "1", "--steps", "2"
        )
        assert code == 2

    def test_multi_argument_function_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "sf.phik", "--from", "1", "--to", "2", "--steps", "2"
        )
        assert code == 2


class TestTopLevel:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_no_arguments_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "verify" in out and "sweep" in out

    @pytest.mark.parametrize(
        "command",
        [
            "sf", "metric", "verify", "sweep",
            "chart query", "chart export",
            "ball quasiball", "ball circumscribed", "ball mu-constants",
            "ball lambda-constants", "ball quartic", "ball threshold", "ball joining",
            "ball separating-inner", "ball separating-outer", "ball punctured-moduli",
            "ball irrelevance",
            "distort bound", "distort report", "distort eps-to-K", "distort lens-sqrt",
            "distort lens-linear", "distort lens-brute", "distort lens-exact",
            "harmonic exponent", "harmonic laplacian", "harmonic scan",
            "harmonic moduli", "harmonic profile",
        ],
    )
    def test_every_command_has_help(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split(), "-h")
        assert code == 0
        assert out.startswith(f"usage: cgft {command} ")

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["cgft", "sf", "mu", "0.5"])
        assert main() == 0
        assert float(capsys.readouterr().out) == pytest.approx(mu(0.5), rel=1e-15)
