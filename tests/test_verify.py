"""Contract tests for the check registry and report shape."""

from __future__ import annotations

import inspect
import math
import re

import pytest

from cgft import verify
from cgft.verify import (
    DOCUMENTED_TOTAL,
    SKIP_NOTE,
    VerifyConfig,
    VerifyReport,
    distortion_inequality_report,
    registered_check_ids,
    run_verify,
)


@pytest.fixture(scope="module")
def full_report() -> VerifyReport:
    return run_verify()


@pytest.fixture(scope="module")
def configured_report() -> VerifyReport:
    return run_verify(config=VerifyConfig(cn=0.15, uniform_c=2.0, qed_c=0.5))


class TestRegistry:
    def test_registry_count_matches_documented_total(self):
        assert len(registered_check_ids()) == DOCUMENTED_TOTAL == 49

    def test_ids_unique_and_kebab_case(self):
        ids = registered_check_ids()
        assert len(set(ids)) == len(ids)
        for check_id in ids:
            assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", check_id), check_id

    def test_no_filter_runs_every_check(self, full_report):
        assert [e.check_id for e in full_report.entries] == list(registered_check_ids())


class TestFullRun:
    def test_everything_passes(self, full_report):
        assert full_report.all_passed
        s = full_report.summary()
        assert s["failed"] == 0
        assert s["total"] == DOCUMENTED_TOTAL

    def test_exactly_three_skipped_without_constants(self, full_report):
        skipped = [e for e in full_report.entries if e.note == SKIP_NOTE]
        assert len(skipped) == 3
        assert {e.check_id for e in skipped} == {
            "capacity-distance-ratio-constant",
            "uniform-domain-growth-constant",
            "qed-capacity-comparison-constant",
        }
        for e in skipped:
            assert e.passed  # a skip never fails the suite

    def test_summary_counts_are_consistent(self, full_report):
        s = full_report.summary()
        assert s["passed"] + s["failed"] + s["skipped"] == s["total"]
        assert s["total"] == len(full_report.entries)

    def test_passed_iff_slack_within_tolerance(self, full_report):
        for e in full_report.entries:
            if e.note:
                continue
            assert e.passed == (e.min_slack >= -e.tolerance), e.check_id

    def test_every_entry_carries_citation_and_grid(self, full_report):
        for e in full_report.entries:
            assert e.provenance.strip(), e.check_id
            assert e.grid_spec.strip(), e.check_id

    def test_configured_run_skips_nothing(self, configured_report):
        assert configured_report.all_passed
        s = configured_report.summary()
        assert s["skipped"] == 0
        assert s["passed"] == DOCUMENTED_TOTAL

    def test_determinism(self, full_report):
        again = run_verify()
        assert again.to_dict() == full_report.to_dict()


class TestFilter:
    def test_filter_selects_subset_in_registration_order(self, full_report):
        sub = run_verify("metric|modulus")
        full_ids = [e.check_id for e in full_report.entries]
        sub_ids = [e.check_id for e in sub.entries]
        assert sub_ids == [i for i in full_ids if re.search("metric|modulus", i)]
        assert 0 < len(sub_ids) < len(full_ids)

    def test_filter_matching_nothing_gives_empty_passing_report(self):
        report = run_verify("no-such-check-id")
        assert report.entries == ()
        assert report.all_passed
        assert report.summary() == {
            "total": 0, "passed": 0, "failed": 0, "skipped": 0,
        }

    def test_anchored_filter(self):
        report = run_verify("^mu-product-identity$")
        assert [e.check_id for e in report.entries] == ["mu-product-identity"]
        assert report.entries[0].passed


class TestReportShape:
    def test_to_dict_key_order(self, full_report):
        d = full_report.to_dict()
        assert list(d) == ["entries", "summary"]
        for entry in d["entries"]:
            assert list(entry) == [
                "check_id", "provenance", "grid_spec", "min_slack",
                "argmin", "passed", "tolerance", "note",
            ]

    def test_min_slack_always_finite(self, full_report):
        import math

        for e in full_report.entries:
            assert math.isfinite(e.min_slack), e.check_id

    def test_argmin_is_string_serialized(self, full_report):
        for e in full_report.entries:
            assert isinstance(e.argmin, str) and e.argmin, e.check_id


class TestVerdicts:
    @staticmethod
    def run_synthetic(monkeypatch, fn):
        check = verify._Check("synthetic", "synthetic", "synthetic grid", 1e-12, (), fn)
        monkeypatch.setattr(verify, "_REGISTRY", [check])
        (entry,) = run_verify().entries
        return entry

    def test_nan_slack_fails_and_is_the_argmin(self, monkeypatch):
        def fn(cfg, t):
            t.add(0.5, "a")
            t.add(math.nan, "b")
            t.add(-1.0, "c")
            t.add(math.nan, "d")

        e = self.run_synthetic(monkeypatch, fn)
        assert not e.passed
        assert math.isnan(e.min_slack)
        assert e.argmin == "b"

    def test_empty_grid_fails(self, monkeypatch):
        e = self.run_synthetic(monkeypatch, lambda cfg, t: None)
        assert not e.passed
        assert math.isnan(e.min_slack)
        assert e.argmin == "empty grid"

    def test_infinite_slacks_keep_their_sign(self, monkeypatch):
        e = self.run_synthetic(monkeypatch, lambda cfg, t: t.add(-math.inf, "x"))
        assert not e.passed and e.min_slack == -math.inf
        e = self.run_synthetic(monkeypatch, lambda cfg, t: t.add(math.inf, "x"))
        assert e.passed and e.argmin == "x"

    def test_raising_check_fails_with_the_exception_as_note(self, monkeypatch):
        def fn(cfg, t):
            t.add(1.0, "a")
            raise OverflowError("math range error")

        e = self.run_synthetic(monkeypatch, fn)
        assert not e.passed and not e.skipped
        assert math.isnan(e.min_slack)
        assert e.note == "raised OverflowError: math range error"

    def test_equal_infinite_neighbours_do_not_fall(self, monkeypatch):
        def fn(cfg, t):
            verify._rising(t, [1.0, math.inf, math.inf], ["a", "b"], relative=True)

        e = self.run_synthetic(monkeypatch, fn)
        assert e.passed and e.min_slack == 0.0 and e.argmin == "b"

    def test_capacity_distance_edge_constant_at_inf(self):
        # with cn = 1e-300 the composed capacity route is +inf over the grid
        cfg = VerifyConfig(cn=1e-300, qed_c=0.5)
        (e,) = run_verify("^capacity-distance-ratio-constant$", cfg).entries
        assert e.passed and e.min_slack == 0.0

    def test_infinite_uniform_constant_is_refused(self):
        # the config applies DomainProps' rules, so no check sees uniform_c = inf
        with pytest.raises(ValueError, match="uniform_constant"):
            VerifyConfig(uniform_c=math.inf)

    def test_seeded_checks_pass_for_seeds_0_to_49(self):
        # every check that reads cfg.seed, the lens check included, with the
        # constants configured as in the documented verify run
        seeded = [
            c.check_id for c in verify._REGISTRY if "cfg.seed" in inspect.getsource(c.fn)
        ]
        assert len(seeded) == 13 and "lens-diameter-bounds" in seeded
        pattern = "^(" + "|".join(seeded) + ")$"
        for seed in range(50):
            cfg = VerifyConfig(seed=seed, cn=0.15, uniform_c=2.0, qed_c=0.5)
            report = run_verify(pattern, cfg)
            assert len(report.entries) == 13
            for e in report.entries:
                assert e.passed, (seed, e.check_id, e.min_slack, e.argmin, e.note)

    def test_sandwich_passes_for_every_seed(self):
        # the feet of x and y make the sampled supremum reach j exactly, so
        # the lower side needs no discretization allowance on any seed
        for seed in range(300):
            cfg = VerifyConfig(seed=seed)
            (e,) = run_verify("^absolute-ratio-metric-sandwich$", cfg).entries
            assert e.passed, (seed, e.min_slack, e.argmin)


class TestDistortionReport:
    def test_exported_from_verify_and_the_package(self):
        import cgft
        import cgft.distortion

        assert cgft.distortion_inequality_report is distortion_inequality_report
        assert not hasattr(cgft.distortion, "distortion_inequality_report")

    def test_window_does_not_depend_on_applicability(self):
        windows: dict[str, set[str]] = {}
        for K in (1.0, 1.5, 18.0):
            for e in distortion_inequality_report(K)["entries"]:
                windows.setdefault(e["check_id"], set()).add(e["window"])
        assert all(len(w) == 1 for w in windows.values()), windows

    def test_single_point_rows_report_their_point(self):
        by_id = {e["check_id"]: e for e in distortion_inequality_report(1.5)["entries"]}
        for check_id in ("planar-linear-rate", "dimension-free-linear-rate"):
            assert by_id[check_id]["argmin"] == 1.5
            assert by_id[check_id]["grid_points"] == 1
        assert by_id["transfer-branch-agreement"]["argmin"] == 1.0

    def test_planar_slack_is_zero_at_one(self):
        (entry, *_) = distortion_inequality_report(1.0)["entries"]
        assert entry["check_id"] == "planar-linear-rate"
        assert entry["min_slack"] == 0.0

    @pytest.mark.parametrize("K", [100.0, 141.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_large_K_slacks_nonnegative(self, K, n):
        # c3 = e^(60 sqrt(K-1)) sent the log-power row to -inf at K = 100
        # and raised from K ~ 141
        entries = distortion_inequality_report(K, n)["entries"]
        applicable = {e["check_id"]: e for e in entries if e["applicable"]}
        assert "log-power-transfer" in applicable
        for check_id, e in applicable.items():
            assert e["min_slack"] >= 0.0, check_id
