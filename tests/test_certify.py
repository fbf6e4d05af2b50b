import dataclasses
import json
import math
import operator
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphcert import certify, numtheory, spectral
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

from conftest import MORPHISM_DIR, chain, checkpoints, column, count_vectors, make_system


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

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, math.nan])
    def test_rejects_levels_outside_unit_interval(self, level, monkeypatch):
        # refused before scipy is imported; its quantile would make the
        # interval (nan, nan) or (-inf, inf)
        pts = logdamped_counts(0.76, 0.5, [2**j for j in range(10, 25)], rounded=True)
        prof = fit_logdamped(pts)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(DomainError, match="outside"):
            gamma_confidence(pts, prof, level)


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
    def test_margin_both_ways(self):
        assert select_model(_dp(0.1), _pp(0.5)) == "logdamped"
        assert select_model(_dp(0.5), _pp(0.1)) == "polyexp"
        assert select_model(_dp(0.30), _pp(0.31)) is None

    def test_exact_fit_floor_trumps_ratio(self):
        # a machine-precision polyexp fit wins even against a tiny logdamped RMS
        assert select_model(_dp(1e-12), _pp(1e-9)) == "polyexp"
        # above the floor the ratio rule takes over again
        assert select_model(_dp(1e-12), _pp(1e-3)) == "logdamped"

    def test_missing_profiles(self):
        assert select_model(None, _pp(0.1)) is None
        assert select_model(_dp(0.1), None) is None


def step_checkpoints(n0, ratio, max_n):
    """The j-by-j loop that the bisecting search replaced: the oracle."""
    out = []
    j = 0
    while True:
        try:
            v = int(n0 * ratio**j)
        except OverflowError:
            raise DomainError("checkpoint schedule leaves the float range") from None
        if v > max_n:
            return out
        if not out or v != out[-1]:
            out.append(v)
        j += 1


def bisect_checkpoints(n0, ratio, max_n):
    """The doubling and bisecting search, one checkpoint at a time, that dense
    runs of consecutive integers replaced: the oracle for those runs."""

    def at(j):
        try:
            return int(n0 * ratio**j)
        except OverflowError:
            return math.inf

    out = []
    j, v = 0, at(0)
    while True:
        if v == math.inf:
            raise DomainError("checkpoint schedule leaves the float range")
        if v > max_n:
            return out
        out.append(v)
        lo, hi = j, j + 1
        while (w := at(hi)) <= v:
            lo, hi = hi, 2 * hi - j
        while hi - lo > 1:
            mid = (lo + hi) // 2
            u = at(mid)
            if u <= v:
                lo = mid
            else:
                hi, w = mid, u
        j, v = hi, w


class TestGeometricCheckpoints:
    @pytest.mark.parametrize("ratio", [
        1 + 1e-7, 1 + 1e-6, 1 + 3e-5, 1.0003, 1.01, 1.05, 1.3, 2.0, 2.5, 3.0])
    def test_matches_step_loop(self, ratio):
        def fits(j):  # ratio**j stays a float
            return j * math.log(ratio) < 600

        for n0 in (1, 2, 7, 1000, 10**6, 10**7):
            # ending on, just before and just past a value, where the step
            # loop takes at most 5000 steps
            tops = {int(n0 * ratio**j) for j in (0, 1, 2, 13, 400, 3000) if fits(j)}
            cap = int(n0 * ratio**5000) if fits(5000) else math.inf
            for top in sorted(tops):
                for max_n in (top - 1, top, top + 1):
                    if max_n >= cap:
                        continue
                    want = step_checkpoints(n0, ratio, max_n)
                    assert geometric_checkpoints(n0, ratio, max_n) == want, (n0, max_n)

    @pytest.mark.parametrize("ratio", [
        1 + 1e-9, 1 + 1e-7, 1 + 1e-6, 1 + 1e-5, 1 + 3e-5, 1.0001, 1.001, 1.01, 1.1,
        1.5, 2.0, 3.0])
    def test_dense_runs_match_bisect_loop(self, ratio):
        edge = round(1 / (ratio - 1))  # where one step adds 1 to n0 * ratio^j
        cases = [(n0, max_n) for n0 in (1, 3, 1024, 10**9)
                 for max_n in (10**3, 10**5, 10**7, n0 + 10**4)]
        # schedules that start just below, on and just past the edge
        cases += [(edge + d, edge + d + 4000) for d in (-2000, -1, 0, 1) if edge + d >= 1]
        for n0, max_n in cases:
            # the oracle takes up to 60 steps per checkpoint: skip schedules
            # with more than 2 * 10^4 checkpoints
            if n0 <= max_n and min(max_n - n0, math.log(max_n / n0) / math.log(ratio)) > 2e4:
                continue
            want = bisect_checkpoints(n0, ratio, max_n)
            assert geometric_checkpoints(n0, ratio, max_n) == want, (n0, max_n)

    def test_dense_schedule_is_every_integer(self):
        assert geometric_checkpoints(1, 1.000001, 10**6) == list(range(1, 10**6 + 1))

    def test_overflow_where_the_step_loop_overflows(self):
        for n0, ratio, max_n in ((1, 2.0, 10**400), (3, 1e300, 10**400), (10**309, 2.0, 10**400)):
            with pytest.raises(DomainError, match="float range"):
                step_checkpoints(n0, ratio, max_n)
            with pytest.raises(DomainError, match="float range"):
                bisect_checkpoints(n0, ratio, max_n)
            with pytest.raises(DomainError, match="float range"):
                geometric_checkpoints(n0, ratio, max_n)
        # the step loop stops at a value past max_n before any overflow
        assert geometric_checkpoints(3, 1e300, 10**300) == step_checkpoints(3, 1e300, 10**300)

    def test_slow_ratio_is_fast(self):
        # the step loop takes 46 million steps for these 100 values
        assert geometric_checkpoints(1, 1.0000001, 100) == list(range(1, 101))

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


def test_logdamped_preferred_but_inconclusive_has_its_own_note(tmp_path):
    # perfbench's random_morphism(random.Random(106), "r1_6", 6, (1, 2, 3), 2):
    # at 2^20 log-damped wins the margin (residual ratio 0.62 against 0.7),
    # but its gamma interval, about (-4.5e-4, 2.1e-4), is not inside (0, 1)
    path = tmp_path / "r1_6.morph"
    path.write_text(
        "letters: x0 x1 x2 x3 x4 x5\nstart: x0\n"
        "x0 -> x0 x4\nx1 -> x5 x3 x5\nx2 -> x5\nx3 -> x2 x1\nx4 -> x1\nx5 -> x3 x0 x0\n"
        "coding: x0=0 x1=1 x2=0 x3=1 x4=1 x5=0\n", encoding="utf-8")
    report = certify_nonmorphic(f"morphic:{path}", CertifyConfig(max_n=2**20))
    assert report.conclusion == CONCLUSION_INCONCLUSIVE
    assert report.preferred_model == "logdamped"
    assert report.gamma_ci[0] < 0.0 < report.gamma_ci[1]
    assert report.notes == certify._GAMMA_OUTSIDE_NOTE
    assert "selection margin" not in report.notes


class TestGrowthClassesOnlyForVerdict:
    # a -> abb, b -> c, c -> aa counted on "0" = {a, c}: alpha > 1 and the
    # fitted gamma is about 0.01, so the case analysis runs
    VERDICT_SPEC = (
        "letters: a b c\nstart: a\ncoding: a=0 b=1 c=0\na -> a b b\nb -> c\nc -> a a\n"
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("scc_dag", "_fit_constant"):
            real = getattr(spectral, name)
            monkeypatch.setattr(
                spectral, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
            )
        return calls

    def test_no_verdict_computes_no_growth_class(self, calls):
        report = certify_nonmorphic(f"morphic:{MORPHISM_DIR / 'thue_morse.morph'}")
        assert report.verdict is None
        assert calls == []

    def test_verdict_computes_each_growth_class_once(self, calls, tmp_path):
        path = tmp_path / "verdict.morph"
        path.write_text(self.VERDICT_SPEC, encoding="utf-8")
        report = certify_nonmorphic(f"morphic:{path}")
        assert 0.0 < report.logdamped.gamma < 0.1
        assert report.verdict.case_id == CASE_SUPER_UNIT_ALPHA
        assert calls == ["scc_dag"]

    def test_verdict_builds_the_count_matrix_once(self, matrix_builds, tmp_path):
        # the level counts and the condensation read the same matrix
        path = tmp_path / "verdict.morph"
        path.write_text(self.VERDICT_SPEC, encoding="utf-8")
        report = certify_nonmorphic(f"morphic:{path}")
        assert report.verdict is not None and len(matrix_builds) == 1


def _masked_points(report, morphic):
    """How many checkpoints the usable-point mask keeps: N >= MIN_FIT_N,
    count >= 1, and not level 0 of a morphic source."""
    return sum(
        n >= certify.MIN_FIT_N and c >= 1 and (i > 0 or not morphic)
        for i, (n, c) in enumerate(report.checkpoints)
    )


def _assert_fit_points_as_masked(report, morphic):
    want = _masked_points(report, morphic)
    if want >= certify.MIN_FIT_POINTS:
        assert report.logdamped.n_points == want
    else:
        assert report.logdamped is None and report.polyexp is None


class TestUsableSuffix:
    @pytest.mark.parametrize("max_n", [4095, 4096, 4097])
    @pytest.mark.parametrize("min_fit_n", [4088, 4089, 4090, 4096])
    def test_column_around_max_n(self, max_n, min_fit_n, monkeypatch):
        # N_k = k + 1: a checkpoint at every N up to max_n
        monkeypatch.setattr(certify, "MIN_FIT_N", min_fit_n)
        src = f"morphic:{MORPHISM_DIR / 'column.morph'}"
        report = certify_nonmorphic(src, CertifyConfig(max_n=max_n))
        assert report.checkpoints[-1][0] == max_n
        _assert_fit_points_as_masked(report, True)

    @pytest.mark.parametrize("max_n", [4095, 4096, 4097])
    @pytest.mark.parametrize("min_fit_n", [4080, 4087, 4096])
    def test_sieve_around_max_n(self, max_n, min_fit_n, monkeypatch):
        # steps of one or two between checkpoints
        monkeypatch.setattr(certify, "N0", 4060)
        monkeypatch.setattr(certify, "RATIO", 1.0003)
        monkeypatch.setattr(certify, "MIN_FIT_N", min_fit_n)
        report = certify_nonmorphic("s2", CertifyConfig(max_n=max_n))
        _assert_fit_points_as_masked(report, False)

    @pytest.mark.parametrize("min_fit_n", [1, 2, 4, 5, 8])
    def test_symbol_with_leading_zero_counts(self, min_fit_n, monkeypatch):
        # c first occurs in phi^2(a) = abbc, so the counts start 0, 0, 1
        monkeypatch.setattr(certify, "MIN_FIT_N", min_fit_n)
        src = f"morphic:{MORPHISM_DIR / 'chain.morph'}"
        report = certify_nonmorphic(src, CertifyConfig(max_n=2**12, symbol="c"))
        assert [c for _, c in report.checkpoints[:3]] == [0, 0, 1]
        _assert_fit_points_as_masked(report, True)


def _assert_fits(decision, n_points):
    if n_points >= certify.MIN_FIT_POINTS:
        assert decision.logdamped.n_points == n_points
    else:
        assert decision == (None, None, None, None, CONCLUSION_INCONCLUSIVE)


def _powers_columns():
    # N_k = 4096 * 2^k: every checkpoint is past MIN_FIT_N
    levels = np.arange(12)
    ns = 4096 << levels
    return ns, ns // 3 + 1, levels


class TestDecideOnColumns:
    @pytest.mark.parametrize("source", [
        "s2", "s2nz", "chain", "column", "doubling", "fibonacci", "thue_morse"])
    def test_golden_reports(self, source):
        if source not in ("s2", "s2nz"):
            source = f"morphic:{MORPHISM_DIR / f'{source}.morph'}"
        report = certify_nonmorphic(source, CertifyConfig(max_n=2**20))
        ns, counts = report.checkpoints.first, report.checkpoints.counts
        levels = np.arange(len(ns)) if source.startswith("morphic:") else None
        got = certify.decide(ns, counts, levels)
        # repr tells every float apart bit for bit
        assert repr(tuple(got)) == repr(tuple(getattr(report, f) for f in certify.Decision._fields))

    @pytest.mark.parametrize("min_fit_n", [4090, 4096, 4097, 4098])
    def test_min_fit_n_boundary(self, min_fit_n, monkeypatch):
        # column's N_k = k + 1 to 4104, counting b: 4105 - min_fit_n points
        # from min_fit_n on, on both sides of MIN_FIT_POINTS
        monkeypatch.setattr(certify, "MIN_FIT_N", min_fit_n)
        levels = np.arange(4104)
        _assert_fits(certify.decide(levels + 1, levels, levels), 4105 - min_fit_n)

    def test_level_0_is_not_fitted(self):
        ns, counts, levels = _powers_columns()
        _assert_fits(certify.decide(ns, counts, levels), 11)
        _assert_fits(certify.decide(ns, counts), 12)
        _assert_fits(certify.decide(ns, counts, levels + 1), 12)

    @pytest.mark.parametrize("min_fit_n", [1, 2, 4, 5, 8])
    def test_leading_zero_counts(self, min_fit_n, monkeypatch):
        # c first occurs in chain's phi^2(a) = abbc, so the counts start 0, 0, 1
        monkeypatch.setattr(certify, "MIN_FIT_N", min_fit_n)
        sys = chain()
        walk = _walk_counts(sys.morphism.count_matrix, sys.start, sys.letters_for("c"), 2**12)
        ns, counts = map(np.array, walk)
        assert counts[:3].tolist() == [0, 0, 1]
        want = sum(n >= min_fit_n and c >= 1 and k >= 1 for k, (n, c) in enumerate(zip(*walk)))
        _assert_fits(certify.decide(ns, counts, np.arange(len(ns))), want)

    def test_rejects_columns_of_different_lengths(self):
        ns, counts, levels = _powers_columns()
        for args in ((ns, counts[1:]), (ns, counts, levels[1:])):
            with pytest.raises(DomainError):
                certify.decide(*args)

    def test_polyexp_index(self):
        # the usable suffix is indexed by its levels, or by 1, 2, ... without them
        ns, counts, levels = _powers_columns()
        assert certify.decide(ns, counts, levels + 1) == certify.decide(ns, counts)
        want = fit_polyexp(list(zip(range(1, 12), counts[1:].tolist())))
        assert certify.decide(ns, counts, levels).polyexp == want
        assert certify.decide(ns, counts, levels + 5).polyexp != want


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


# --- level counts against the per-level walk ----------------------------------

def _walk_counts(rows, start, targets, max_n):
    """The per-level count-vector walk that the doubling blocks replaced."""
    ns, counts = [], []
    for c in count_vectors(rows, bytes([start])):
        if sum(c) > max_n:
            break
        ns.append(sum(c))
        counts.append(sum(c[t] for t in targets))
    return ns, counts


def _assert_level_counts(sys, symbol, max_n):
    rows = sys.morphism.count_matrix
    targets = sys.letters_for(symbol)
    got = tuple(col.tolist() for col in certify._level_counts(rows, sys.start, targets, max_n))
    assert got == _walk_counts(rows, sys.start, targets, max_n)
    assert all(type(x) is int for col in got for x in col)


@st.composite
def _prolongable(draw):
    letters = "abcd"[:draw(st.integers(2, 4))]
    ids = st.sampled_from(letters)
    rules = {"a": ["a"] + draw(st.lists(ids, min_size=1, max_size=2))}
    for lid in letters[1:]:
        # fixed letters and one-letter images give alpha = 1 and cycles
        rules[lid] = draw(st.one_of(
            st.just([lid]),
            st.lists(ids, min_size=1, max_size=1),
            st.lists(ids, min_size=1, max_size=3),
        ))
    return make_system(letters, rules, "a")


@settings(max_examples=150, deadline=None)
@given(_prolongable(), st.integers(0, 45), st.integers(-1, 1), st.data())
def test_level_counts_match_walk(sys, k, offset, data):
    # N_45 reaches up to 3^45 > 2^63: both the int64 blocks and the Python-int path
    symbol = data.draw(st.sampled_from(sys.symbols()))
    n_k = checkpoints(sys, k).lengths()[-1]
    _assert_level_counts(sys, symbol, n_k + offset)


class TestLevelCounts:
    def test_linear_words_around_checkpoints(self):
        for sys in (column(), chain()):
            for k in (0, 1, 2, 3, 63, 64, 65, 1000, 2047):
                n_k = checkpoints(sys, k).lengths()[-1]
                for max_n in (n_k - 1, n_k, n_k + 1):
                    for symbol in sys.symbols():
                        _assert_level_counts(sys, symbol, max_n)

    def test_last_block_wraps_int64(self):
        # N_k = (3^k + 1) / 2: the block of levels 32..63 reaches N_63 > 2^64,
        # so it wraps in int64, and its lengths are exact up to the first past
        # max_n, which is at most L max_n for L the longest image
        sys = make_system("ab", {"a": ["a", "b"], "b": ["b", "b", "b"]}, "a")
        assert checkpoints(sys, 63).lengths()[-1] > 2**64
        for symbol in ("a", "b"):
            _assert_level_counts(sys, symbol, 2**50)
            _assert_level_counts(sys, symbol, 2**62 - 1)
        # at max_n = (2^63 - 1) // L the first length past max_n, N_40 here
        # and N_35 beside an unreachable z with L = 1000, lies in that wrapped
        # block; one above it the counts are Python ints
        wide = make_system("abz", {"a": ["a", "b"], "b": ["b", "b", "b"], "z": ["z"] * 1000}, "a")
        for sys, L in ((sys, 3), (wide, 1000)):
            rows = sys.morphism.count_matrix
            for max_n, dtype in (((2**63 - 1) // L, np.int64), ((2**63 - 1) // L + 1, object)):
                assert certify._level_counts(rows, 0, (1,), max_n)[0].dtype == dtype
                for symbol in ("a", "b"):
                    _assert_level_counts(sys, symbol, max_n)

    def test_max_n_beyond_int64(self):
        sys = make_system("ab", {"a": ["a", "b"], "b": ["b", "b", "b"]}, "a")
        n_39, n_40 = checkpoints(sys, 40).lengths()[-2:]
        assert n_39 < 2**62 < n_40 < 2**63
        for max_n in (2**62, n_40 - 1, n_40, 2**63, 2**64 + 1, 10**40):
            _assert_level_counts(sys, "b", max_n)

    def test_unreachable_fast_letter(self):
        # b -> c -> d -> bc grows by the plastic number 1.3247..., so 2^60
        # needs the block of levels 128..255, which passes 2^64 from level 153
        # on. z is never reached from a, but its image is the longest: L = 2000
        # puts 2^60 on Python ints, and 5000 on int64 blocks up to M^16, whose
        # z entries (2000^16) wrap
        letters = ("a", "b", "c", "d", "z")
        rules = {"a": ["a", "b"], "b": ["c"], "c": ["d"], "d": ["b", "c"], "z": ["z"] * 2000}
        sys = make_system(letters, rules, "a")
        lengths = checkpoints(sys, 255).lengths()
        assert lengths[145] <= 2**60 < lengths[146] and lengths[255] > 2**64
        for max_n in (0, 1, 2, 5000, 2**60):
            _assert_level_counts(sys, "b", max_n)

    def test_column_peak(self):
        # 2^20 levels of two int64 counts hold 16 MiB. The last doubling block
        # is cut to the levels that can still be <= max_n before it is formed,
        # and the returned columns own their data
        rows = column().morphism.count_matrix
        certify._level_counts(rows, 0, (1,), 2**10)  # warm
        tracemalloc.start()
        try:
            ns, counts = certify._level_counts(rows, 0, (1,), 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 2**20
        assert len(ns) == len(counts) == 2**20 and ns[-1] == 2**20 and counts[-1] == 2**20 - 1
        assert ns.base is None and counts.base is None

    def test_certify_reads_level_counts(self, tmp_path):
        path = tmp_path / "triple.morph"
        path.write_text("letters: a b\nstart: a\na -> a b\nb -> b b b\n", encoding="utf-8")
        report = certify_nonmorphic(f"morphic:{path}", CertifyConfig(max_n=2**50))
        sys = make_system("ab", {"a": ["a", "b"], "b": ["b", "b", "b"]}, "a")
        ns, counts = _walk_counts(sys.morphism.count_matrix, 0, (0,), 2**50)
        assert report.checkpoints == tuple(zip(ns, counts))


# --- fits against the list-comprehension bodies they replaced -----------------

def _finite(v):
    return not isinstance(v, float) or math.isfinite(v)


def _ref_fit_points(points, min_x, what):
    if len(points) < certify.MIN_FIT_POINTS:
        raise DomainError(f"{what} needs >= {certify.MIN_FIT_POINTS} points, got {len(points)}")
    for x, c in points:
        if not _finite(x):
            raise DomainError(f"{what} needs finite first coordinates")
        if x < min_x:
            raise DomainError(f"{what} needs all first coordinates >= {min_x}")
        if not _finite(c):
            raise DomainError(f"{what} needs finite counts")
        if c < 1:
            raise DomainError(f"{what} needs all counts >= 1")


def _ref_fit_logdamped(points):
    _ref_fit_points(points, 3.0, "logdamped fit")
    x = np.array([math.log(math.log(n)) for n, _ in points])
    y = np.array([math.log(n / c) for n, c in points])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    return DensityProfile(math.exp(-float(coef[0])), float(coef[1]), rms, len(points))


def _ref_fit_polyexp(points):
    _ref_fit_points(points, 1.0, "polyexp fit")
    ks = [k for k, _ in points]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("polyexp fit needs strictly increasing k")
    k = np.array(ks, dtype=float)
    y = np.array([math.log(c) for _, c in points])
    # ln k of the float column: past 2^53 most ints are no double
    design = np.column_stack([np.ones_like(k), [math.log(v) for v in k.tolist()], k])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    return PolyExpProfile(float(coef[0]), float(coef[1]), float(coef[2]), rms)


def _ref_gamma_confidence(points, profile, level=0.95):
    from scipy.special import stdtrit

    n = len(points)
    if n < 3:
        raise DomainError("confidence interval needs >= 3 points")
    x = np.array([math.log(math.log(p)) for p, _ in points])
    y = np.array([math.log(p / c) for p, c in points])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    resid = y - (-math.log(profile.C) + profile.gamma * x)
    dof = n - 2
    s2 = float(np.sum(resid * resid)) / dof
    se = math.sqrt(s2 / sxx) if sxx > 0 else float("inf")
    tq = float(stdtrit(dof, 0.5 + level / 2.0))
    return (profile.gamma - tq * se, profile.gamma + tq * se)


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _fields(out):
    """The fields of a fit or an interval as float.hex strings."""
    return _hex(out if isinstance(out, tuple) else tuple(out.__dict__.values()))


def _outcome(fn, *args):
    """The fields of a fit as float.hex strings, or the error it raises."""
    try:
        out = fn(*args)
    except DomainError as exc:
        return ("error", str(exc))
    return _fields(out)


# one flaw in a third of the draws
_flaw = st.sampled_from([None, None, None, None, None, None, "x", "count", "order"])


def _uniform_int(rng, bits):
    # every bit random: hypothesis's own large integers mostly end in zero
    # bits, and those convert to float exactly
    return rng.randrange(1 << rng.randint(2, bits))


@st.composite
def _logdamped_points(draw):
    # N and counts above 2^53, where int true division and float division differ
    rng = random.Random(draw(st.integers(0, 2**32)))
    ns = [3 + _uniform_int(rng, 80) for _ in range(draw(st.integers(8, 40)))]
    points = [(n, rng.randint(rng.choice((1, n // 3)), n)) for n in ns]
    flaw = draw(_flaw)
    i = draw(st.integers(0, len(points) - 1))
    if flaw == "x":
        points[i] = (2, 1)
    elif flaw == "count":
        points[i] = (points[i][0], 0)
    elif flaw == "order":
        points = points[:7]  # too few
    return points


@settings(max_examples=200, deadline=None)
@given(_logdamped_points(), st.sampled_from([0.9, 0.95, 0.99]))
def test_logdamped_matches_reference(points, level):
    want = _outcome(_ref_fit_logdamped, points)
    columns = certify._FitPoints.of(points)
    assert _outcome(fit_logdamped, points) == want
    assert _outcome(fit_logdamped, columns) == want
    if want[0] != "error":
        profile = _ref_fit_logdamped(points)
        ci = _outcome(_ref_gamma_confidence, points, profile, level)
        assert _outcome(gamma_confidence, points, profile, level) == ci
        # certify hands the same columns to the fit and to the interval
        assert _outcome(gamma_confidence, columns, profile, level) == ci


@st.composite
def _polyexp_points(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    ks = sorted({1 + _uniform_int(rng, 60) for _ in range(draw(st.integers(8, 40)))})
    if len(ks) < 8:
        ks = list(range(1, 9))
    points = [(k, 1 + _uniform_int(rng, rng.choice((6, 80)))) for k in ks]
    flaw = draw(_flaw)
    i = draw(st.integers(1, len(points) - 1))
    if flaw == "x":
        points[i] = (0, 1)
    elif flaw == "count":
        points[i] = (points[i][0], 0)
    elif flaw == "order":
        points[i] = (points[i - 1][0], points[i][1])
    return points


@settings(max_examples=200, deadline=None)
@given(_polyexp_points())
def test_polyexp_matches_reference(points):
    want = _outcome(_ref_fit_polyexp, points)
    assert _outcome(fit_polyexp, points) == want
    assert _outcome(fit_polyexp, certify._FitPoints.of(points)) == want


def test_fit_errors_name_the_first_bad_point():
    good = [(2**j, 2**j // 3) for j in range(10, 20)]
    count_first = good[:2] + [(4096, 0)] + good[3:5] + [(2, 1)] + good[6:]
    x_first = good[:2] + [(2, 1)] + good[3:5] + [(4096, 0)] + good[6:]
    for points in (count_first, x_first):
        want = _outcome(_ref_fit_logdamped, points)
        assert want[0] == "error"
        assert _outcome(fit_logdamped, points) == want
        pe = [(k, c) for k, (_, c) in enumerate(points)]
        assert _outcome(fit_polyexp, pe) == _outcome(_ref_fit_polyexp, pe)


def test_fits_take_math_log_of_each_int():
    # np.log differs from math.log in the last bit on some integers: ln N at
    # N = 9170 and 19143, ln ln N at N = 5431, 9204 and 15602; polyexp's ln k
    # column reaches 9170 and 19143 too
    ld = [(n, 1) for n in (5431, 9170, 9204, 15602, 19143, 32581, 33326, 35332)]
    pe = [(k, k) for k in range(4095, 40000)]
    profile = fit_logdamped(certify._FitPoints.of(ld))
    assert _hex(profile.__dict__.values()) == _hex(_ref_fit_logdamped(ld).__dict__.values())
    assert _hex(gamma_confidence(ld, profile)) == _hex(_ref_gamma_confidence(ld, profile))
    assert _hex(fit_polyexp(pe).__dict__.values()) == _hex(_ref_fit_polyexp(pe).__dict__.values())


def test_fits_past_the_float_range_raise_domain_error():
    # Python ints keep N/count and k exactly, but the fits take them as
    # doubles: past the largest double that is a DomainError, not an overflow
    ns = [10**400 * j for j in range(1, 12)]
    for points in ([(n, 7) for n in ns], certify._FitPoints.of([(n, 7) for n in ns])):
        with pytest.raises(DomainError, match="N/count within the float range"):
            fit_logdamped(points)
        with pytest.raises(DomainError, match="N/count within the float range"):
            gamma_confidence(points, DensityProfile(1.0, 0.5, 0.0, len(ns)))
        with pytest.raises(DomainError, match="k within the float range"):
            fit_polyexp(points)
    # huge N with a ratio in range, and huge counts at small k, still fit
    assert fit_logdamped([(n, n // 10**300) for n in ns]).gamma == pytest.approx(0.0, abs=1e-9)
    assert fit_polyexp([(k, 10**400 * k) for k in range(1, 12)]).m_fit == pytest.approx(1.0)
    # int64 columns at the int64 edge are far inside the float range
    edge = np.array([2**63 - 1 - 2**40 * j for j in range(11, 0, -1)], dtype=np.int64)
    points = certify._FitPoints(edge, np.full(len(edge), 3, dtype=np.int64))
    assert fit_logdamped(points).n_points == len(edge)
    ks = certify._FitPoints(edge, np.arange(1, len(edge) + 1, dtype=np.int64))
    assert math.isfinite(fit_polyexp(ks).fit_residual)


_REF_FITS = {"fit_logdamped": _ref_fit_logdamped, "fit_polyexp": _ref_fit_polyexp,
             "gamma_confidence": _ref_gamma_confidence}


def _random_morph_text(seed):
    """A morphism whose images all have 2 or 3 letters, so alpha >= 2."""
    rng = random.Random(seed)
    letters = [f"x{i}" for i in range(rng.randint(3, 12))]
    lines = ["letters: " + " ".join(letters), "start: x0"]
    for a in letters:
        image = [rng.choice(letters) for _ in range(rng.randint(2, 3))]
        lines.append(f"{a} -> " + " ".join(["x0"] + image[1:] if a == "x0" else image))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, symbol, max_n", [
    ("column", "a", 2**20), ("column", "b", 2**20), ("chain", None, 2**20),
    ("doubling", None, 2**60), ("random0", None, 2**60), ("random1", None, 2**60),
    ("random2", None, 2**60), ("triple", "b", 10**40)])
def test_certificate_fits_match_reference_bitwise(name, symbol, max_n, tmp_path, monkeypatch):
    # each fit and interval a certificate makes, against column_stack and
    # y - design @ coef on the same points; column fits 2^20 - 4096 points,
    # triple's counts and lengths pass int64 and are object columns
    path = MORPHISM_DIR / f"{name}.morph"
    if name == "triple":
        path = tmp_path / "triple.morph"
        path.write_text("letters: a b\nstart: a\na -> a b\nb -> b b b\n", encoding="utf-8")
    elif name.startswith("random"):
        path = tmp_path / f"{name}.morph"
        path.write_text(_random_morph_text(name), encoding="utf-8")
    calls = []
    for fn_name in _REF_FITS:
        def record(*args, fn=getattr(certify, fn_name), fn_name=fn_name):
            calls.append((fn_name, args, fn(*args)))
            return calls[-1][2]
        monkeypatch.setattr(certify, fn_name, record)
    certify_nonmorphic(f"morphic:{path}", CertifyConfig(max_n=max_n, symbol=symbol))
    assert [c[0] for c in calls] == list(_REF_FITS)
    assert name != "triple" or calls[0][1][0].counts.dtype == object
    for fn_name, args, got in calls:
        assert _fields(got) == _fields(_REF_FITS[fn_name](*args)), fn_name


def test_fits_match_reference_past_int64():
    # object N and k past int64, where most ints are no double
    rng = random.Random(63)
    big = sorted({2**63 + _uniform_int(rng, 90) for _ in range(600)})
    points = [(n, rng.randint(1, n)) for n in big]
    want = _ref_fit_logdamped(points)
    profile = fit_logdamped(points)
    assert _fields(profile) == _fields(want)
    assert _fields(gamma_confidence(points, profile)) == _fields(_ref_gamma_confidence(points, want))
    assert _outcome(fit_polyexp, points) == _outcome(_ref_fit_polyexp, points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fits_reject_non_finite_points(bad, capfd):
    # lstsq raised LinAlgError on a NaN or infinite N, after LAPACK wrote to
    # stderr, and a NaN count gave NaN fields; the error names the first bad
    # point: a first coordinate of 0 before the bad one, a count of 0 after it
    ns = [2**j + 2**j // 3 for j in range(12, 24)]
    for fit, ref in ((fit_logdamped, _ref_fit_logdamped), (fit_polyexp, _ref_fit_polyexp)):
        firsts = ns if fit is fit_logdamped else range(1, len(ns) + 1)
        for big in (0, 2**70):  # ints within int64 and past it
            base = [(x + big, n // 3 + big) for x, n in zip(firsts, ns)]
            for coord, flaw, named in ((0, None, "finite"), (1, None, "finite"),
                                       (0, 1, ">="), (1, 1, ">="), (1, -1, "finite")):
                points = list(base)
                points[5] = tuple(bad if i == coord else v for i, v in enumerate(points[5]))
                if flaw is not None:
                    points[flaw] = (0, 1) if flaw == 1 else (points[-1][0], 0)
                want = _outcome(ref, points)
                assert want[0] == "error" and named in want[1], want
                assert _outcome(fit, points) == want
                assert _outcome(fit, certify._FitPoints.of(points)) == want
                if not big:  # float64 columns
                    floats = certify._FitPoints(*(np.array(c, dtype=float) for c in zip(*points)))
                    assert _outcome(fit, floats) == want
    assert capfd.readouterr().err == ""


def test_t_quantile_table_is_stdtrit():
    from scipy.special import stdtrit

    assert len(certify._T_QUANTILE) == 64
    for d, tq in enumerate(certify._T_QUANTILE, 1):
        assert tq == float(stdtrit(d, 0.5 + certify.CI_LEVEL / 2.0)), d


def test_gamma_confidence_on_and_off_the_table():
    # 66 points give dof 64, the table's last entry; 67 give dof 65, off it
    for n_points, level in ((66, 0.95), (67, 0.95), (66, 0.9)):
        ns = [int(4096 * 1.25**j) for j in range(n_points)]
        points = logdamped_counts(0.76, 0.5, ns, rounded=True)
        profile = fit_logdamped(points)
        got = gamma_confidence(points, profile, level)
        assert _hex(got) == _hex(_ref_gamma_confidence(points, profile, level)), n_points


# --- report checkpoints as two columns ----------------------------------------

def _checkpoint_cases(tmp_path):
    """(report, the tuple of int pairs its checkpoints stand for) on a sieve
    source, on column, and on object columns with counts above 2^63."""
    cps = geometric_checkpoints(certify.N0, certify.RATIO, 2**20)
    yield (certify_nonmorphic("s2"),
           numtheory.count_series(numtheory.sieve_s2_additive(2**20), cps).entries)
    sys = column()
    ns, counts = _walk_counts(sys.morphism.count_matrix, sys.start, sys.letters_for("a"), 2**12)
    yield (certify_nonmorphic(f"morphic:{MORPHISM_DIR / 'column.morph'}", CertifyConfig(max_n=2**12)),
           tuple(zip(ns, counts)))
    path = tmp_path / "triple.morph"
    path.write_text("letters: a b\nstart: a\na -> a b\nb -> b b b\n", encoding="utf-8")
    sys = make_system("ab", {"a": ["a", "b"], "b": ["b", "b", "b"]}, "a")
    ns, counts = _walk_counts(sys.morphism.count_matrix, 0, (1,), 10**40)
    report = certify_nonmorphic(f"morphic:{path}", CertifyConfig(max_n=10**40, symbol="b"))
    assert report.checkpoints.counts.dtype == object and counts[-1] > 2**63
    yield report, tuple(zip(ns, counts))


def test_checkpoints_behave_like_the_tuple(tmp_path):
    for report, want in _checkpoint_cases(tmp_path):
        got = report.checkpoints
        assert len(got) == len(want) >= 11
        assert list(got) == list(want)
        assert all(type(n) is int and type(c) is int for n, c in got)  # not np.int64
        for i in (0, 1, len(want) // 2, -1, -2, -len(want)):
            assert got[i] == want[i]
            assert type(got[i]) is tuple and all(type(x) is int for x in got[i])
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                got[i]
        for cut in (slice(None), slice(3), slice(-5, None), slice(1, -1, 7), slice(None, None, -3)):
            assert type(got[cut]) is tuple and got[cut] == want[cut]
            assert all(type(x) is int for pair in got[cut] for x in pair)
        assert got == want and want == got and not got != want
        assert got == certify._FitPoints.of(want)  # another instance, object columns
        assert got != list(want) and list(want) != got  # as a tuple compares with a list
        last = (want[-1][0], want[-1][1] + 1)
        assert got != want[:-1] + (last,) and got != want[:-1]
        assert got != certify._FitPoints.of(want[:-1] + (last,))
        assert hash(got) == hash(want)
        # a report with the plain tuple is the same report, hash and JSON
        plain = dataclasses.replace(report, checkpoints=want)
        assert plain == report and hash(plain) == hash(report)
        assert plain.to_json_dict() == report.to_json_dict()


def test_column_certificate_holds_no_pair_objects():
    # 2^20 checkpoints; a tuple and two ints per pair would take 100 MiB more
    src = f"morphic:{MORPHISM_DIR / 'column.morph'}"
    certify_nonmorphic(src, CertifyConfig(max_n=2**12))  # first calls fill caches
    tracemalloc.start()
    try:
        report = certify_nonmorphic(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.checkpoints) == 2**20
    assert peak < 140 * 2**20


def _assert_logdamped_xy_bitwise(first, counts):
    """int64 columns give the x and y of math.log and int true division, bit for bit."""
    points = certify._FitPoints(np.array(first, dtype=np.int64), np.array(counts, dtype=np.int64))
    x = np.array([math.log(math.log(n)) for n in first])
    y = np.array([math.log(operator.truediv(n, c)) for n, c in zip(first, counts)])
    got_x, got_y = points.logdamped_xy
    assert got_x.tobytes() == x.tobytes()
    assert got_y.tobytes() == y.tobytes()


@pytest.mark.parametrize("bits", [20, 53, 63])
def test_logdamped_xy_on_random_int64_columns(bits):
    rng = random.Random(bits)
    first = [rng.randrange(3, 2**bits) for _ in range(4000)]
    _assert_logdamped_xy_bitwise(first, [rng.randint(1, n) for n in first])


def test_logdamped_xy_next_to_2_53():
    # 2^53 + 1 is no double: float division would read it as 2^53
    rng = random.Random(53)
    first = [2**53 + d for d in (-1, 0, 1) for _ in range(300)]
    counts = [rng.randint(1, n) for n in first]
    _assert_logdamped_xy_bitwise(first, counts)
    _assert_logdamped_xy_bitwise(first[:300], counts[:300])  # all below 2^53


def _ones_columns(seed):
    """(name, first, counts) with counts of 1 everywhere, at random half of the
    points, and only at the first or only at the last point."""
    rng = random.Random(seed)
    first = sorted(rng.sample(range(3, 2**53), 3000))
    some = [rng.randint(2, n) for n in first]
    half = set(rng.sample(range(len(first)), len(first) // 2))
    yield "all", first, [1] * len(first)
    yield "half", first, [1 if i in half else c for i, c in enumerate(some)]
    yield "first", first, [1] + some[1:]
    yield "last", first, some[:-1] + [1]


@pytest.mark.parametrize("seed", [0, 1])
def test_logdamped_xy_where_counts_are_1(seed):
    # y reuses ln N wherever count == 1; x, y and the fit stay those of one
    # math.log per point
    for name, first, counts in _ones_columns(seed):
        _assert_logdamped_xy_bitwise(first, counts)
        points = list(zip(first, counts))
        columns = certify._FitPoints(np.array(first), np.array(counts))
        want = _ref_fit_logdamped(points)
        got = fit_logdamped(columns)
        assert _hex(got.__dict__.values()) == _hex(want.__dict__.values()), name
        assert _hex(gamma_confidence(columns, got)) == _hex(_ref_gamma_confidence(points, want)), name
        assert _outcome(fit_logdamped, points) == _fields(want), name  # object columns
        pe = [(k, c) for k, c in enumerate(counts, 1)]
        assert _outcome(fit_polyexp, pe) == _outcome(_ref_fit_polyexp, pe), name


def test_polyexp_logs_each_run_once():
    # long runs, single-point runs, and counts out of order; the fit equals one
    # that logs every count, on int64 and on object columns
    rng = random.Random(7)
    runs = [rng.choice((1, 1, 2, 500, 4000)) for _ in range(60)]
    values = [rng.randint(1, 2**40) for _ in runs]
    cases = {
        "runs": [v for v, r in zip(values, runs) for _ in range(r)],
        "singles": values,
        "unsorted": [rng.choice((3, 3, 5, 2**31, 7)) for _ in range(5000)],
        "constant": [1] * 9000,
        "big": [2**70 + (i // 100) for i in range(2000)],
    }
    for name, counts in cases.items():
        points = [(k, c) for k, c in enumerate(counts, 1)]
        want = _outcome(_ref_fit_polyexp, points)
        assert want[0] != "error", name
        assert _outcome(fit_polyexp, points) == want, name
        if name != "big":
            columns = certify._FitPoints(np.arange(1, len(counts) + 1), np.array(counts))
            assert columns.counts.dtype == np.int64
            assert _outcome(fit_polyexp, columns) == want, name


# --- the fits' logs: math.log's, in one numpy pass ----------------------------

_WITNESS = 1 + np.arange(4096) / 4096


def _math_logs(values):
    return np.array([math.log(v) for v in values.tolist()], dtype=float)


def _assert_logs_bitwise(column, want=None):
    got = certify._logs(column)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == (_math_logs(column) if want is None else want).tobytes()


def _assert_blocks_are_one_backward_pass(column):
    # on any host, whatever loop numpy picks: a fallback to math.log must not
    # hide a fault in the blocks
    whole = np.ascontiguousarray(column, dtype=float)[::-1]
    assert certify._backward_logs(column).tobytes() == np.log(whole)[::-1].tobytes()


@pytest.fixture
def fresh_log_check():
    """The once-per-process log check, run again on this test's code."""
    certify._backward_logs_are_libm.cache_clear()
    yield
    certify._backward_logs_are_libm.cache_clear()


def test_logs_are_math_log_on_every_int_to_2_21():
    ints = np.arange(1, 2**21 + 1, dtype=float)
    want = _math_logs(ints)
    _assert_logs_bitwise(ints, want)
    _assert_logs_bitwise(np.arange(1, 2**21 + 1), want)  # int64, as the fits pass counts
    _assert_blocks_are_one_backward_pass(ints)
    _assert_logs_bitwise(want[1:])  # ln ln N
    _assert_logs_bitwise(_WITNESS)
    # the control: where this host's contiguous np.log differs from math.log
    # on the witness, it differs on these ints too, so the asserts above show
    # that _logs does not run the kernel that makes them differ
    if np.log(_WITNESS).tobytes() != _math_logs(_WITNESS).tobytes():
        assert np.count_nonzero(np.log(ints) != want) > 0


def test_logs_next_to_2_53_and_on_large_int64():
    rng = random.Random(53)
    near = np.array([2**53 + d for d in range(-2000, 2000)], dtype=np.int64)
    _assert_logs_bitwise(near)
    _assert_logs_bitwise(near.astype(float))
    _assert_logs_bitwise(_math_logs(near))  # ln ln N as logdamped_xy takes it
    # int64 counts past 2^53 round to the double math.log(int) takes
    _assert_logs_bitwise(np.array([rng.randrange(1, 2**63) for _ in range(4000)], dtype=np.int64))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 63, 64, 65, 4099, certify._LOG_BLOCK,
                               certify._LOG_BLOCK + 1, 2 * certify._LOG_BLOCK + 7])
def test_logs_on_views_and_lengths(n):
    rng = np.random.default_rng(n)
    base = np.concatenate((rng.uniform(0.5, 2.0, 2 * n + 3), rng.uniform(1, 2**40, 2 * n + 3)))
    for column in (base[:n], base[::-1][:n], base[::2][:n], base[::-2][:n], base[1::2][:n],
                   base[3:3 + n], base[-n - 1:-1] if n else base[:0]):
        assert len(column) == n
        _assert_logs_bitwise(column)
        _assert_blocks_are_one_backward_pass(column)
    _assert_logs_bitwise(rng.integers(1, 2**62, 2 * n + 1)[1::2])


def _contiguous_np_log(column):
    return np.log(np.asarray(column, dtype=float))


def _one_ulp_up(column):
    return np.nextafter(_math_logs(column), np.inf)


@pytest.mark.parametrize("fake", [_contiguous_np_log, _one_ulp_up])
def test_logs_fall_back_when_the_numpy_pass_is_not_math_log(fake, fresh_log_check, monkeypatch):
    monkeypatch.setattr(certify, "_backward_logs", fake)
    fake_differs = fake(_WITNESS).tobytes() != _math_logs(_WITNESS).tobytes()
    assert certify._backward_logs_are_libm() is not fake_differs
    _assert_logs_bitwise(_WITNESS)
    rng = random.Random(9)
    first = [rng.randrange(3, 2**40) for _ in range(3000)] + list(range(9000, 20000))
    _assert_logdamped_xy_bitwise(first, [rng.randint(1, n) for n in first])


def test_column_certificate_logs_are_math_log(monkeypatch):
    # the goldens print fitted floats, which a 1-ulp log need not move; the
    # 2^20 checkpoint columns of column's fit must give math.log's x and y
    seen = []

    def spy(points):
        seen.append(points)
        return fit_logdamped(points)

    monkeypatch.setattr(certify, "fit_logdamped", spy)
    certify_nonmorphic(f"morphic:{MORPHISM_DIR / 'column.morph'}")
    (points,) = seen
    assert points.first.dtype == points.counts.dtype == np.int64 and len(points) > 10**6
    ln_n = _math_logs(points.first)
    x, y = points.logdamped_xy
    assert x.tobytes() == _math_logs(ln_n).tobytes()
    ratios = map(operator.truediv, points.first.tolist(), points.counts.tolist())
    assert y.tobytes() == np.fromiter(map(math.log, ratios), float, len(points)).tobytes()
