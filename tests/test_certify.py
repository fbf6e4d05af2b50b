import json
import math

import pytest

from morphcert.certify import (
    CASE_BETA_LT_ALPHA,
    CASE_SUPER_UNIT_ALPHA,
    CASE_UNIT_ALPHA,
    CONCLUSION_INCONCLUSIVE,
    CONCLUSION_MORPHIC,
    CONCLUSION_NON_MORPHIC,
    CertifyConfig,
    DensityProfile,
    PolyExpProfile,
    certify_nonmorphic,
    fit_logdamped,
    fit_polyexp,
    gamma_confidence,
    geometric_checkpoints,
    select_model,
    theorem1_verdict,
)
from morphcert.errors import DomainError
from morphcert.spectral import GrowthClass, LetterGrowthClass

from conftest import MORPHISM_DIR


def logdamped_counts(C, gamma, ns, *, rounded=False):
    vals = [C * n / math.log(n) ** gamma for n in ns]
    if rounded:
        vals = [round(v) for v in vals]
    return list(zip(ns, vals))


class TestFitLogdamped:
    def test_exact_recovery(self):
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)])
        prof = fit_logdamped(pts)
        assert prof.C == pytest.approx(0.76, abs=1e-12)
        assert prof.gamma == pytest.approx(0.5, abs=1e-12)
        assert prof.fit_residual < 1e-12
        assert prof.n_points == 15

    def test_rounded_recovery(self):
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)], rounded=True)
        prof = fit_logdamped(pts)
        assert prof.C == pytest.approx(0.76, abs=0.01)
        assert prof.gamma == pytest.approx(0.5, abs=0.01)

    def test_undamped_data_gives_zero_gamma(self):
        pts = [(n, n / 2) for n in [2**j for j in range(10, 20)]]
        prof = fit_logdamped(pts)
        assert abs(prof.gamma) < 1e-12
        assert prof.C == pytest.approx(0.5, abs=1e-12)

    def test_count_scaling_leaves_gamma_alone(self):
        ns = [2**j for j in range(10, 22)]
        base = fit_logdamped(logdamped_counts(0.5, 0.3, ns))
        scaled = fit_logdamped([(n, 1000 * c) for n, c in logdamped_counts(0.5, 0.3, ns)])
        assert scaled.gamma == pytest.approx(base.gamma, abs=1e-9)
        assert scaled.C == pytest.approx(1000 * base.C, rel=1e-9)

    def test_rejects(self):
        good = logdamped_counts(1.0, 0.5, [2**j for j in range(10, 25)])
        with pytest.raises(DomainError):  # too few points
            fit_logdamped(good[:7])
        with pytest.raises(DomainError):  # needs N >= 3 so ln ln N exists
            fit_logdamped([(2, 1)] + good[:7])
        with pytest.raises(DomainError):  # counts below 1
            fit_logdamped([(n, 0) for n, _ in good])


class TestFitPolyexp:
    def test_thue_morse_counts(self):
        pts = [(k, 2 ** (k - 1)) for k in range(1, 21)]
        prof = fit_polyexp(pts)
        assert prof.log_beta_fit == pytest.approx(math.log(2), abs=1e-6)
        assert prof.m_fit == pytest.approx(0.0, abs=1e-3)
        assert prof.fit_residual < 1e-9

    def test_pure_power_counts(self):
        prof = fit_polyexp([(k, k) for k in range(1, 51)])
        assert prof.m_fit == pytest.approx(1.0, abs=1e-9)
        assert prof.log_beta_fit == pytest.approx(0.0, abs=1e-9)
        assert prof.fit_residual < 1e-12

    def test_shifted_power_counts(self):
        # counts k+1 are not exactly in the family; past the transient the
        # fit still lands near (m, beta) = (1, 1)
        prof = fit_polyexp([(k, k + 1) for k in range(20, 101)])
        assert prof.m_fit == pytest.approx(1.0, abs=0.05)
        assert prof.log_beta_fit == pytest.approx(0.0, abs=1e-3)

    def test_constant_counts(self):
        prof = fit_polyexp([(k, 7) for k in range(1, 21)])
        assert prof.logGp == pytest.approx(math.log(7), abs=1e-9)
        assert prof.m_fit == pytest.approx(0.0, abs=1e-9)
        assert prof.log_beta_fit == pytest.approx(0.0, abs=1e-9)

    def test_count_scaling_shifts_only_loggp(self):
        pts = [(k, k**2 * 1.5**k) for k in range(1, 30)]
        base = fit_polyexp(pts)
        scaled = fit_polyexp([(k, 1000 * c) for k, c in pts])
        assert scaled.logGp == pytest.approx(base.logGp + math.log(1000), abs=1e-9)
        assert scaled.m_fit == pytest.approx(base.m_fit, abs=1e-9)
        assert scaled.log_beta_fit == pytest.approx(base.log_beta_fit, abs=1e-9)

    def test_rejects(self):
        with pytest.raises(DomainError):  # too few
            fit_polyexp([(k, 2**k) for k in range(1, 8)])
        with pytest.raises(DomainError):  # k must start at >= 1
            fit_polyexp([(k, 2**k) for k in range(0, 10)])
        with pytest.raises(DomainError):  # strictly increasing k
            fit_polyexp([(1, 2), (2, 4), (2, 4), (3, 8)] + [(k, 2**k) for k in range(4, 9)])


class TestGammaConfidence:
    def test_exact_data_pins_gamma(self):
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)])
        prof = fit_logdamped(pts)
        lo, hi = gamma_confidence(pts, prof)
        assert lo <= prof.gamma <= hi
        assert hi - lo < 1e-10

    def test_rounded_data_interval_covers_truth(self):
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)], rounded=True)
        prof = fit_logdamped(pts)
        lo, hi = gamma_confidence(pts, prof)
        assert lo < 0.5 < hi
        assert hi - lo < 0.02

    def test_wider_level_widens_interval(self):
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)], rounded=True)
        prof = fit_logdamped(pts)
        lo95, hi95 = gamma_confidence(pts, prof, 0.95)
        lo99, hi99 = gamma_confidence(pts, prof, 0.99)
        assert lo99 < lo95 and hi95 < hi99

    def test_rejects_tiny_samples(self):
        pts = logdamped_counts(1.0, 0.5, [2**j for j in range(10, 25)])
        prof = fit_logdamped(pts)
        with pytest.raises(DomainError):
            gamma_confidence(pts[:2], prof)


class TestTheorem1Verdict:
    def test_three_cases(self):
        g = GrowthClass(2.0, 0, 1, None)
        v = theorem1_verdict(g, LetterGrowthClass(1.0, 0, 1, None, False), 0.5)
        assert (v.case_id, v.incompatible) == (CASE_BETA_LT_ALPHA, True)
        g1 = GrowthClass(1.0, 1, 1, None)
        v = theorem1_verdict(g1, LetterGrowthClass(1.0, 1, 1, None, False), 0.5)
        assert (v.case_id, v.incompatible) == (CASE_UNIT_ALPHA, True)
        v = theorem1_verdict(g, LetterGrowthClass(2.0, 0, 1, None, False), 0.5)
        assert (v.case_id, v.incompatible) == (CASE_SUPER_UNIT_ALPHA, True)

    def test_explanations_nonempty(self):
        g = GrowthClass(2.0, 0, 1, None)
        v = theorem1_verdict(g, LetterGrowthClass(2.0, 0, 1, None, False), 0.25)
        assert isinstance(v.explanation, str) and len(v.explanation) > 40

    def test_rejects_gamma_outside_unit_interval(self):
        g = GrowthClass(2.0, 0, 1, None)
        lg = LetterGrowthClass(2.0, 0, 1, None, False)
        for gamma in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                theorem1_verdict(g, lg, gamma)

    def test_rejects_beta_above_alpha(self):
        g = GrowthClass(1.5, 0, 1, None)
        with pytest.raises(DomainError):
            theorem1_verdict(g, LetterGrowthClass(2.0, 0, 1, None, False), 0.5)


def _dp(res):
    return DensityProfile(1.0, 0.5, res, 10)


def _pp(res):
    return PolyExpProfile(0.0, 0.0, 0.5, res)


class TestSelectModel:
    CFG = CertifyConfig()

    def test_margin_both_ways(self):
        assert select_model(_dp(0.1), _pp(0.5), self.CFG) == "logdamped"
        assert select_model(_dp(0.5), _pp(0.1), self.CFG) == "polyexp"
        assert select_model(_dp(0.30), _pp(0.31), self.CFG) is None

    def test_exact_fit_floor_trumps_ratio(self):
        # a machine-precision polyexp fit wins even against a tiny logdamped RMS
        assert select_model(_dp(1e-12), _pp(1e-9), self.CFG) == "polyexp"
        # above the floor the ratio rule takes over again
        assert select_model(_dp(1e-12), _pp(1e-3), self.CFG) == "logdamped"

    def test_missing_profiles(self):
        assert select_model(None, _pp(0.1), self.CFG) is None
        assert select_model(_dp(0.1), None, self.CFG) is None


class TestGeometricCheckpoints:
    def test_powers_of_two(self):
        cps = geometric_checkpoints(1024, 2.0, 2**20)
        assert cps == [2**j for j in range(10, 21)]

    def test_empty_when_n0_exceeds_max(self):
        assert geometric_checkpoints(1024, 2.0, 100) == []

    def test_deduplicates_slow_ratios(self):
        cps = geometric_checkpoints(10, 1.05, 40)
        assert cps == sorted(set(cps))
        assert all(b > a for a, b in zip(cps, cps[1:]))

    def test_rejects(self):
        with pytest.raises(DomainError):
            geometric_checkpoints(0, 2.0, 100)
        with pytest.raises(DomainError):
            geometric_checkpoints(10, 1.0, 100)
        with pytest.raises(DomainError):
            geometric_checkpoints(10, float("nan"), 100)
        with pytest.raises(DomainError):  # 2.0**1024 leaves the float range
            geometric_checkpoints(1, 2.0, 10**400)


class TestCertifyPipeline:
    def test_s2_default_budget(self):
        report = certify_nonmorphic("s2")
        assert report.conclusion == CONCLUSION_NON_MORPHIC
        assert report.preferred_model == "logdamped"
        assert 0.4 < report.logdamped.gamma < 0.7
        lo, hi = report.gamma_ci
        assert 0.0 < lo < hi < 1.0
        assert report.verdict is None  # sieve sources carry no growth data
        assert report.checkpoints == tuple(
            (n, c) for n, c in report.checkpoints
        )
        assert len(report.checkpoints) == 11  # 2^10..2^20

    def test_s2_nonzero_default_budget_is_honest(self):
        # at 2^20 the margin rule does not separate the models for s2'; the
        # pipeline must say so rather than force a verdict (at 1e7 it resolves,
        # which the acceptance suite checks)
        report = certify_nonmorphic("s2nz")
        assert report.conclusion == CONCLUSION_INCONCLUSIVE
        assert report.preferred_model is None

    def test_thue_morse_is_morphic_compatible(self):
        src = f"morphic:{MORPHISM_DIR / 'thue_morse.morph'}"
        report = certify_nonmorphic(src)
        assert report.conclusion == CONCLUSION_MORPHIC
        assert report.preferred_model == "polyexp"
        assert report.polyexp.fit_residual <= 1e-6
        assert report.polyexp.log_beta_fit == pytest.approx(math.log(2), abs=1e-3)

    def test_fibonacci_is_morphic_compatible(self):
        src = f"morphic:{MORPHISM_DIR / 'fibonacci.morph'}"
        report = certify_nonmorphic(src)
        assert report.conclusion == CONCLUSION_MORPHIC
        assert report.polyexp.fit_residual <= 1e-6
        assert report.polyexp.log_beta_fit == pytest.approx(math.log((1 + 5**0.5) / 2), abs=1e-3)

    def test_morphic_growth_inputs_present(self):
        src = f"morphic:{MORPHISM_DIR / 'thue_morse.morph'}"
        report = certify_nonmorphic(src)
        # logdamped gamma for 2^k data is ~0, outside (0,1): no verdict block
        assert report.verdict is None
        assert report.logdamped is not None
        assert abs(report.logdamped.gamma) < 0.05

    def test_symbol_override(self):
        src = f"morphic:{MORPHISM_DIR / 'fibonacci.morph'}"
        report = certify_nonmorphic(src, CertifyConfig(symbol="1"))
        assert report.sequence_id == src
        assert report.conclusion == CONCLUSION_MORPHIC

    def test_too_few_checkpoints_is_inconclusive(self):
        report = certify_nonmorphic("s2", CertifyConfig(max_n=100))
        assert report.conclusion == CONCLUSION_INCONCLUSIVE
        assert report.checkpoints == ()
        assert report.logdamped is None and report.polyexp is None
        assert report.preferred_model is None and report.verdict is None
        assert report.gamma_ci is None

    def test_unknown_source(self):
        with pytest.raises(DomainError):
            certify_nonmorphic("collatz")

    def test_symbol_with_sieve_source(self):
        with pytest.raises(DomainError):
            certify_nonmorphic("s2", CertifyConfig(max_n=100, symbol="1"))

    def test_deterministic(self):
        a = certify_nonmorphic("s2", CertifyConfig(max_n=2**16))
        b = certify_nonmorphic("s2", CertifyConfig(max_n=2**16))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestReportJson:
    def test_structure(self):
        report = certify_nonmorphic("s2", CertifyConfig(max_n=2**20))
        doc = report.to_json_dict()
        assert set(doc) == {
            "sequence", "checkpoints", "logdamped", "polyexp",
            "preferred_model", "verdict", "conclusion", "notes", "config",
        }
        assert doc["sequence"] == "s2"
        for row in doc["checkpoints"]:
            assert set(row) == {"N", "count"}
            assert isinstance(row["N"], str) and row["N"].isdigit()
            assert isinstance(row["count"], str) and row["count"].isdigit()
        assert set(doc["logdamped"]) == {"C", "gamma", "gamma_ci", "residual"}
        assert set(doc["polyexp"]) == {"logGp", "m", "log_beta", "residual"}
        cfg = doc["config"]
        assert cfg["log_base"] == "e"
        assert cfg["min_N"] == 4096
        assert cfg["margin"] == 0.7
        assert cfg["exact_fit_floor"] == 1e-6
        assert cfg["ci_level"] == 0.95
        assert isinstance(doc["notes"], str) and doc["notes"]
        assert json.loads(json.dumps(doc)) == doc

    def test_null_blocks_when_no_fit(self):
        doc = certify_nonmorphic("s2", CertifyConfig(max_n=100)).to_json_dict()
        assert doc["logdamped"] is None
        assert doc["polyexp"] is None
        assert doc["verdict"] is None
        assert doc["conclusion"] == CONCLUSION_INCONCLUSIVE
