"""Density-model fitting, growth-case analysis, and certification reports.

The certifier fits two rival models to checkpoint counts:
  logdamped   count ~ C * N / (ln N)^gamma        (the shape ruled out for
                                                   morphic sequences when
                                                   0 < gamma < 1)
  polyexp     count ~ Gp * k^m * beta^k           (the shape morphic counts
                                                   must follow along N_k)
and selects by RMS residual with a margin, plus an absolute adequacy floor:
exact morphic data fits polyexp to machine precision, where residual ratios
are noise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import numtheory, spectral, words
from .errors import DomainError, UnknownSource
from .numtheory import _values

CASE_BETA_LT_ALPHA = "BETA_LT_ALPHA"
CASE_UNIT_ALPHA = "UNIT_ALPHA"
CASE_SUPER_UNIT_ALPHA = "SUPER_UNIT_ALPHA"

CONCLUSION_NON_MORPHIC = "non_morphic_conditional"
CONCLUSION_MORPHIC = "morphic_compatible"
CONCLUSION_INCONCLUSIVE = "inconclusive"

MIN_FIT_POINTS = 8
CASE_RTOL = 1e-9
# the one decision rule: a report shows the sieve grid N0, RATIO as its
# checkpoints and prints the rest in its "config" block
N0 = 1024               # sieve checkpoints are floor(N0 * RATIO^j) <= max_n
RATIO = 2.0
MIN_FIT_N = 4096        # checkpoints below this are transient regime
RESIDUAL_MARGIN = 0.7   # winner needs RMS <= margin * loser's RMS
EXACT_FIT_FLOOR = 1e-6  # polyexp RMS below this is an exact morphic fit
CI_LEVEL = 0.95
# float(stdtrit(d, 0.5 + CI_LEVEL / 2.0)) at index d - 1, d = 1..64, from scipy 1.17.1
_T_QUANTILE = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


@dataclass(frozen=True)
class DensityProfile:
    C: float
    gamma: float
    fit_residual: float
    n_points: int


@dataclass(frozen=True)
class PolyExpProfile:
    logGp: float
    m_fit: float
    log_beta_fit: float
    fit_residual: float


@dataclass(frozen=True)
class CaseVerdict:
    case_id: str
    incompatible: bool
    explanation: str


@dataclass(frozen=True)
class CertifyConfig:
    max_n: int = 2**20
    symbol: str | None = None  # morphic sources: which output symbol to count
    mem_budget: int = numtheory.DEFAULT_MEM_BYTES


@dataclass(frozen=True)
class CertificateReport:
    """`checkpoints` holds the (N, count) pairs in two numpy columns; it compares,
    hashes, indexes, slices and iterates like the tuple of int pairs it stands for."""

    sequence_id: str
    checkpoints: Sequence[tuple[int, int]]
    logdamped: DensityProfile | None
    gamma_ci: tuple[float, float] | None
    polyexp: PolyExpProfile | None
    preferred_model: str | None
    verdict: CaseVerdict | None
    conclusion: str
    notes: str
    config: CertifyConfig

    def to_json_dict(self) -> dict:
        ld = None
        if self.logdamped is not None:
            ld = {
                "C": self.logdamped.C,
                "gamma": self.logdamped.gamma,
                "gamma_ci": list(self.gamma_ci) if self.gamma_ci else None,
                "residual": self.logdamped.fit_residual,
            }
        pe = None
        if self.polyexp is not None:
            pe = {
                "logGp": self.polyexp.logGp,
                "m": self.polyexp.m_fit,
                "log_beta": self.polyexp.log_beta_fit,
                "residual": self.polyexp.fit_residual,
            }
        verdict = None
        if self.verdict is not None:
            verdict = {
                "case": self.verdict.case_id,
                "incompatible": self.verdict.incompatible,
                "explanation": self.verdict.explanation,
            }
        return {
            "sequence": self.sequence_id,
            "checkpoints": [{"N": str(n), "count": str(c)} for n, c in self.checkpoints],
            "logdamped": ld,
            "polyexp": pe,
            "preferred_model": self.preferred_model,
            "verdict": verdict,
            "conclusion": self.conclusion,
            "notes": self.notes,
            "config": {
                "log_base": "e",
                "min_N": MIN_FIT_N,
                "margin": RESIDUAL_MARGIN,
                "exact_fit_floor": EXACT_FIT_FLOOR,
                "ci_level": CI_LEVEL,
                "case_rtol": CASE_RTOL,
            },
        }


_LOG_BLOCK = 1 << 14  # entries _backward_logs reverses at a time: 128 KiB


def _backward_logs(column: np.ndarray) -> np.ndarray:
    """np.log of each entry of an int64 or float64 column, read backwards.

    numpy's float64 log runs its SIMD kernel, which differs from the C
    library's log in the last bit (under AVX-512 on 57 of the ints 1..2^20),
    only on input it reads with a positive stride. Read backwards, each entry
    goes through numpy's scalar loop, which calls the C library's log, as
    math.log does. Each block of entries is copied to float64 in reverse
    order, so the result comes out forward and contiguous, and no second
    column-sized array is held: at 2^20 entries one would add 8 MiB to RSS.
    """
    out = np.empty(len(column))
    block = np.empty(min(len(column), _LOG_BLOCK))
    for i in range(0, len(column), _LOG_BLOCK):
        part = block[:len(out) - i]
        part[::-1] = column[i:i + len(part)]
        np.log(part[::-1], out=out[i:i + len(part)])
    return out


@cache
def _backward_logs_are_libm() -> bool:
    """Whether _backward_logs matches math.log in this process.

    The scalar route is numpy's loop choice, not its API, so it is checked
    once, on a witness where an AVX-512 np.log differs from math.log 11 times.
    """
    witness = 1 + np.arange(4096) / 4096
    want = np.fromiter(map(math.log, witness.tolist()), float, len(witness))
    return _backward_logs(witness).tobytes() == want.tobytes()


def _logs(column: np.ndarray) -> np.ndarray:
    """math.log of each entry, bit for bit, so that a report's floats do not
    depend on the host's SIMD log. An int64 or float64 column takes one numpy
    pass where that pass matches math.log; an object column, whose Python ints
    may lie past int64 and float64, takes one math.log call per entry."""
    if column.dtype != object and _backward_logs_are_libm():
        return _backward_logs(column)
    return np.fromiter(map(math.log, _values(column)), float, len(column))


class _FitPoints(numtheory._Pairs):
    """(first, count) pairs held as two numpy columns, int64 or object.

    A report's checkpoints and the fit points are this type. The logdamped
    columns x = ln ln N and y = ln(N/count) are computed on first use and then
    kept, so a fit and its gamma interval on the same points pay for them once.
    Every log is math.log's, bit for bit (_logs). Each distinct log is taken
    once: x is the log of the ln N column, and on int64 columns y is that same
    ln N wherever count == 1.
    """

    @classmethod
    def of(cls, points) -> "_FitPoints":
        if isinstance(points, cls):
            return points
        pairs = list(points)
        # object columns keep the caller's numbers exactly as given
        return cls(np.array([a for a, _ in pairs], dtype=object),
                   np.array([c for _, c in pairs], dtype=object))

    @cached_property
    def logdamped_xy(self) -> tuple[np.ndarray, np.ndarray]:
        # the log of N/count as int division rounds it, which float64 division
        # matches below 2^53, where both are exact doubles
        first, counts = self.first, self.counts
        ln_n = _logs(first)
        x = _logs(ln_n)
        if all(c.dtype == np.int64 and -2**53 < c.min() and c.max() < 2**53
               for c in (first, counts)):
            # N / 1 is the double N, so y is ln N wherever count == 1
            y, other = ln_n, counts != 1
            y[other] = _logs(first[other] / counts[other])
        else:
            ratios = map(operator.truediv, _values(first), _values(counts))
            y = np.fromiter(map(math.log, ratios), float, len(self))
        return x, y


def _fit_points(points: _FitPoints, min_x: float, what: str):
    if len(points) < MIN_FIT_POINTS:
        raise DomainError(f"{what} needs >= {MIN_FIT_POINTS} points, got {len(points)}")
    first, counts = points.first, points.counts
    if first.dtype == counts.dtype == np.int64 and first.min() >= min_x and counts.min() >= 1:
        return  # int64 holds no NaN or inf
    with np.errstate(invalid="ignore"):  # c - c != 0 holds at NaN and ±inf only
        bad = np.array([first - first != 0, ~(first >= min_x), counts - counts != 0, ~(counts >= 1)])
    if bad.any():  # name the first bad point
        need = ["finite first coordinates", f"all first coordinates >= {min_x}",
                "finite counts", "all counts >= 1"][bad[:, bad.any(axis=0).argmax()].argmax()]
        raise DomainError(f"{what} needs {need}")


def _least_squares(y: np.ndarray, columns: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Coefficients and RMS residual of y on the design [1, *columns], filled in
    place as column_stack lays it out. Each column leaves the list as it is copied
    in, so one made for the call is freed; the residual is formed and squared in place."""
    design = np.empty((len(y), 1 + len(columns)))
    design[:, 0] = 1.0
    for j in range(1, design.shape[1]):
        design[:, j] = columns.pop(0)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ coef
    np.subtract(y, resid, out=resid)
    return coef, float(np.sqrt(np.mean(np.square(resid, out=resid))))


def fit_logdamped(points: Sequence[tuple[float, float]]) -> DensityProfile:
    """Least squares for count ~ C N/(ln N)^gamma on ln(N/count) vs ln ln N."""
    points = _FitPoints.of(points)
    _fit_points(points, 3.0, "logdamped fit")
    x, y = points.logdamped_xy
    coef, rms = _least_squares(y, [x])
    return DensityProfile(
        C=math.exp(-float(coef[0])),
        gamma=float(coef[1]),
        fit_residual=rms,
        n_points=len(points),
    )


def fit_polyexp(points: Sequence[tuple[float, float]]) -> PolyExpProfile:
    """Least squares for count ~ Gp k^m beta^k on ln count vs {1, ln k, k}."""
    points = _FitPoints.of(points)
    _fit_points(points, 1.0, "polyexp fit")
    ks = points.first
    if (ks[1:] <= ks[:-1]).any():
        raise DomainError("polyexp fit needs strictly increasing k")
    # one log per run of equal adjacent counts: an α = 1 word's counts repeat
    counts = points.counts
    bounds = np.flatnonzero(np.concatenate(([True], counts[1:] != counts[:-1], [True])))
    y = np.repeat(_logs(counts[bounds[:-1]]), np.diff(bounds))
    coef, rms = _least_squares(y, [_logs(ks), ks])
    return PolyExpProfile(
        logGp=float(coef[0]),
        m_fit=float(coef[1]),
        log_beta_fit=float(coef[2]),
        fit_residual=rms,
    )


def gamma_confidence(
    points: Sequence[tuple[float, float]],
    profile: DensityProfile,
    level: float = CI_LEVEL,
) -> tuple[float, float]:
    """Symmetric t-interval for gamma from the regression slope standard error."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level = {level} outside (0, 1)")
    points = _FitPoints.of(points)
    n = len(points)
    if n < 3:
        raise DomainError("confidence interval needs >= 3 points")
    x, y = points.logdamped_xy
    dev = x - x.mean()  # the deviations of x, then in place the residuals
    sxx = float(np.sum(np.square(dev, out=dev)))
    line = np.add(np.multiply(profile.gamma, x, out=dev), -math.log(profile.C), out=dev)
    resid = np.subtract(y, line, out=line)
    dof = n - 2
    s2 = float(np.sum(np.square(resid, out=resid))) / dof
    se = math.sqrt(s2 / sxx) if sxx > 0 else float("inf")
    if level == CI_LEVEL and dof <= len(_T_QUANTILE):
        tq = _T_QUANTILE[dof - 1]
    else:
        # deferred: importing scipy costs a cold start more than most
        # certificates do, and only an interval off the table needs it
        from scipy.special import stdtrit

        tq = float(stdtrit(dof, 0.5 + level / 2.0))
    return (profile.gamma - tq * se, profile.gamma + tq * se)


def theorem1_verdict(
    growth: spectral.GrowthClass,
    letter_growth: spectral.LetterGrowthClass,
    gamma: float,
) -> CaseVerdict:
    """Case analysis: a log-damped density with 0 < gamma < 1 never matches
    the poly-exponential checkpoint counts a morphic sequence must have."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma = {gamma} outside (0, 1)")
    alpha, l = growth.alpha, growth.l
    beta, m = letter_growth.beta, letter_growth.m
    if beta > alpha * (1.0 + CASE_RTOL):
        raise DomainError(f"beta = {beta} exceeds alpha = {alpha}")
    if beta < alpha * (1.0 - CASE_RTOL):
        case = CASE_BETA_LT_ALPHA
        explanation = (
            "beta < alpha: the symbol count is O(N_k^c') for some c' < 1, a "
            "polynomial saving, while the density hypothesis only loses the "
            f"factor (ln N)^{gamma:.6g}; no log-damped profile with gamma in "
            "(0, 1) decays that fast."
        )
    elif alpha <= 1.0 + CASE_RTOL:
        case = CASE_UNIT_ALPHA
        explanation = (
            "alpha = beta = 1: checkpoint lengths grow like (Tk)^l and symbol "
            f"counts like (Tk)^{m}, both pure powers of k, but the density "
            f"hypothesis demands N_k/(ln N_k)^{gamma:.6g}, which carries a "
            "fractional logarithmic factor no power of k can produce."
        )
    else:
        case = CASE_SUPER_UNIT_ALPHA
        explanation = (
            "beta = alpha > 1: the density hypothesis requires the count to "
            f"grow like k^(l-gamma) alpha^(Tk) with l-gamma = {l - gamma:.6g} "
            f"non-integer (0 < gamma < 1), which cannot equal the morphic "
            f"count's k^{m} alpha^(Tk) shape."
        )
    return CaseVerdict(case, True, explanation)


def select_model(
    logdamped: DensityProfile | None,
    polyexp: PolyExpProfile | None,
) -> str | None:
    """Residual-margin winner, with an exactness floor for the morphic null."""
    if logdamped is None or polyexp is None:
        return None
    if polyexp.fit_residual <= EXACT_FIT_FLOOR:
        return "polyexp"
    if logdamped.fit_residual <= RESIDUAL_MARGIN * polyexp.fit_residual:
        return "logdamped"
    if polyexp.fit_residual <= RESIDUAL_MARGIN * logdamped.fit_residual:
        return "polyexp"
    return None


def _dense_end(n0: int, ratio: float) -> int:
    """Check a schedule; up to the value returned its floors hit every integer."""
    if n0 < 1:
        raise DomainError("n0 must be >= 1")
    if not ratio > 1.0:  # also rejects NaN
        raise DomainError("ratio must be > 1")
    # below it a step adds less than 1 to the computed n0 * ratio^j: 2^-49
    # allows 2 ulps of float error in each value, 2^-20 its own rounding
    return math.floor((1 - 2**-20) / (ratio - 1 + 2**-49))


def _schedule_size(n0: int, ratio: float, max_n: int) -> int:
    """At least len(geometric_checkpoints(n0, ratio, max_n)), building nothing: the
    opening run exactly, then the steps past it by logarithms, plus 2 for rounding."""
    top = max(n0, min(max_n, _dense_end(n0, ratio)))
    if top >= max_n:
        return max(0, max_n - n0 + 1)
    return top - n0 + 3 + int((math.log(max_n + 1) - math.log(top + 1)) / math.log(ratio))


def geometric_checkpoints(n0: int, ratio: float, max_n: int) -> list[int]:
    """Deduplicated floor(n0 * ratio^j) while <= max_n (may be empty)."""
    dense = _dense_end(n0, ratio)

    def at(j: int) -> float:  # a value past the float range reads as inf
        try:
            return int(n0 * ratio**j)
        except OverflowError:
            return math.inf

    out: list[int] = []
    j, v = 0, at(0)
    while True:
        if v == math.inf:
            raise DomainError("checkpoint schedule leaves the float range")
        if v > max_n:
            return out
        top = max(v, min(max_n, dense))
        out.extend(range(v, top + 1))
        # the values never fall as j grows: step to the first one past top, w,
        # by doubling past it, then bisecting
        lo, hi = j, j + 1
        while (w := at(hi)) <= top:
            lo, hi = hi, 2 * hi - j
        while hi - lo > 1:
            mid = (lo + hi) // 2
            u = at(mid)
            if u <= top:
                lo = mid
            else:
                hi, w = mid, u
        j, v = hi, w


_NOTES = {
    CONCLUSION_NON_MORPHIC: (
        "The log-damped density profile wins the residual comparison and its "
        "gamma interval sits strictly inside (0, 1); such a profile is "
        "incompatible with the poly-exponential checkpoint growth every "
        "morphic sequence must exhibit. The conclusion is conditional: the "
        "fit supports, but does not prove, the density hypothesis."
    ),
    CONCLUSION_MORPHIC: (
        "The poly-exponential model wins (or fits to machine precision, as "
        "exact morphic counts must); nothing in these checkpoints contradicts "
        "morphicity."
    ),
    CONCLUSION_INCONCLUSIVE: (
        "Neither model meets the selection margin on these checkpoints (or "
        "too few usable checkpoints); no conclusion is drawn."
    ),
}
# inconclusive although log-damped wins the residual comparison
_GAMMA_OUTSIDE_NOTE = (
    "The log-damped density profile wins the residual comparison, but its "
    "gamma interval does not sit strictly inside (0, 1), so it does not show "
    "the damping that rules out morphicity; no conclusion is drawn."
)


# sieve kind -> (key, table function, count function): named, and looked up in
# numtheory per call, so a replaced function is the one that runs
_SIEVES = {"s2": ("s2", "sieve_s2_additive", "count_s2_additive"),
           "s2nz": ("s2_nonzero", "sieve_s2_nonzero", "count_s2_nonzero")}
_SIEVES["s2_nonzero"] = _SIEVES["s2nz"]


class Source(NamedTuple):
    """A resolved source kind: a sieve key, or a parsed morphism file and the
    symbol it counts. `name` is the sieve key, or the morphic source as given."""

    name: str
    system: words.MorphicSystem | None = None
    symbol: str | None = None

    def sieve_table(self, limit: int, mem_budget: int) -> numtheory.SieveTable:
        """The sieve's membership table over 0..limit."""
        return getattr(numtheory, _SIEVES[self.name][1])(limit, mem_budget=mem_budget)

    def sieve_counts(self, limit: int, checkpoints: Sequence[int],
                     mem_budget: int) -> numtheory.CountSeries:
        """The sieve's counts at checkpoints in 0..limit, without the table."""
        return getattr(numtheory, _SIEVES[self.name][2])(limit, checkpoints, mem_budget=mem_budget)


def resolve_source(source: str, symbol: str | None = None) -> Source:
    """The one reading of a source kind: s2, s2nz (also s2_nonzero) or morphic:<file>.

    A morphism file is parsed here, once, and the symbol defaults to the coding
    of its start letter. An unknown kind raises UnknownSource, and a symbol on a
    sieve source DomainError.
    """
    if source.startswith("morphic:"):
        system = words.parse_morphism_file(Path(source[len("morphic:"):]))
        return Source(source, system, symbol if symbol is not None else system.coding[system.start])
    if source not in _SIEVES:
        raise UnknownSource(f"unknown source {source!r}: not s2, s2nz or morphic:<file>")
    if symbol is not None:
        raise DomainError(f"a symbol applies only to morphic sources, not to {source!r}")
    return Source(_SIEVES[source][0])


def _level_charge(d: int, t: int, k: int, take: int, exact: bool) -> int:
    """Bytes _level_counts holds once it forms a block of `take` levels beside k:
    the old and new level matrices, the product and the length column; then the
    level matrix, the lengths past it, its target rows and the two returned
    columns; then, as the certificate fits one point per level, the two columns,
    the level numbers, the cached x and y and at most 9 columns the polyexp fit
    holds at once, lstsq's copies included. A Python int is charged 40 bytes."""
    both = k + take
    forming = d * (k + take + both) + k
    returned = (d + t + 3) * both
    fitting = 14 * both
    return (8 if exact else 48) * max(forming, returned, fitting) + numtheory._OVERHEAD


def _level_counts(rows, start: int, targets: Sequence[int], max_n: int,
                  mem_budget: int = numtheory.DEFAULT_MEM_BYTES):
    """N_k = |phi^k(b)| and the count of the target letters in phi^k(b), as two
    arrays over every level k with N_k <= max_n.

    Levels are built in doubling blocks: if the columns of V are the count
    vectors of levels 0..K-1 and P = M^K, the columns of P V are those of
    levels K..2K-1, with lengths colsum(P) V. int64 is exact modulo 2^64, and
    |phi(w)| <= L |w| for L the longest image, so the first N_k past max_n is
    at most L max_n: while L max_n < 2^63, it and every length before it come
    out exact in int64, and each block forms its lengths and is cut at that
    first one before P V is. Otherwise the counts are Python ints. Each block
    is charged against mem_budget before P V is formed, so a word with a level
    at every N (alpha = 1) raises ResourceError where its columns, or the
    certificate's fits on them, would outgrow the budget.
    """
    exact = max(map(sum, zip(*rows))) * max_n < 2**63  # L max_n, L the longest image
    p = np.array(rows, dtype=np.int64 if exact else object)
    v = np.zeros((len(rows), int(max_n >= 1)), p.dtype)  # level 0 has N_0 = 1
    v[start] = 1
    while k := v.shape[1]:
        if k > 1:
            p = p @ p
        over = p.sum(axis=0) @ v > max_n  # exact up to the first True
        take = int(over.argmax()) if over.any() else k
        if take:
            charge = _level_charge(len(rows), len(targets), k, take, exact)
            numtheory._check_budget(charge, mem_budget, "level counts")
            v = np.concatenate((v, p @ v[:, :take]), axis=1)
        if take < k:
            break
    return v.sum(axis=0), v[list(targets)].sum(axis=0)


class Decision(NamedTuple):
    """What the certifier's rule concludes from a source's checkpoint counts."""

    logdamped: DensityProfile | None
    gamma_ci: tuple[float, float] | None
    polyexp: PolyExpProfile | None
    preferred_model: str | None
    conclusion: str


def decide(ns: np.ndarray, counts: np.ndarray, levels: np.ndarray | None = None) -> Decision:
    """The certifier's rule on (N, count) columns; it does no I/O.

    N rises strictly and the counts never fall, so the usable points, those with
    N >= MIN_FIT_N, count >= 1 and level >= 1, are a suffix. levels is the rising
    polyexp index k of each checkpoint: a morphic source's iteration number. A
    sieve has none, so without levels the usable points are indexed 1, 2, ...:
    on a geometric schedule ln N is affine in that index, as it is in k along
    morphic checkpoints, and the offset is a fixed convention.
    """
    if len(counts) != len(ns) or levels is not None and len(levels) != len(ns):
        raise DomainError("decide needs ns, counts and levels of one length")
    start = max(int(np.searchsorted(ns, MIN_FIT_N)), int(np.searchsorted(counts, 1)),
                0 if levels is None else int(np.searchsorted(levels, 1)))
    ld_points = _FitPoints(ns[start:], counts[start:])  # views of the columns
    ks = np.arange(1, len(ld_points) + 1) if levels is None else levels[start:]
    logdamped = polyexp = gamma_ci = None
    if len(ld_points) >= MIN_FIT_POINTS:
        logdamped = fit_logdamped(ld_points)
        polyexp = fit_polyexp(_FitPoints(ks, ld_points.counts))
        gamma_ci = gamma_confidence(ld_points, logdamped)
    preferred = select_model(logdamped, polyexp)
    if preferred == "logdamped" and 0.0 < gamma_ci[0] and gamma_ci[1] < 1.0:
        conclusion = CONCLUSION_NON_MORPHIC
    elif preferred == "polyexp":
        conclusion = CONCLUSION_MORPHIC
    else:
        conclusion = CONCLUSION_INCONCLUSIVE
    return Decision(logdamped, gamma_ci, polyexp, preferred, conclusion)


def certify_nonmorphic(source: str, config: CertifyConfig | None = None) -> CertificateReport:
    """Full pipeline: checkpoint counts from the source, the rule's decision on
    them, and for a morphic source the case verdict."""
    config = config or CertifyConfig()
    src = resolve_source(source, config.symbol)
    if src.system is None:  # a sieve counts on the grid N0 * RATIO^j
        cps = geometric_checkpoints(N0, RATIO, config.max_n)
        pairs = src.sieve_counts(config.max_n, cps, config.mem_budget).entries
        ns, counts = pairs.first, pairs.counts
        levels = None
    else:  # a morphic word at every N_k, with k as its level
        rows = spectral.incidence_matrix(src.system.morphism).entries
        targets = src.system.letters_for(src.symbol)
        ns, counts = _level_counts(rows, src.system.start, targets, config.max_n, config.mem_budget)
        levels = np.arange(len(ns))
    decision = decide(ns, counts, levels)
    gamma = decision.logdamped.gamma if decision.logdamped is not None else math.nan
    verdict = None
    # bounded away from 0 and 1: a fitted gamma within float noise of the
    # endpoints means the data is effectively undamped (or fully damped) and
    # the case analysis would be vacuous
    if src.system is not None and CASE_RTOL < gamma < 1.0 - CASE_RTOL:
        # the growth classes feed only the verdict, so only it computes them
        verdict = theorem1_verdict(*spectral._verdict_classes(src.system, src.symbol), gamma)
    notes = _NOTES[decision.conclusion]
    if decision.conclusion == CONCLUSION_INCONCLUSIVE and decision.preferred_model == "logdamped":
        notes = _GAMMA_OUTSIDE_NOTE
    return CertificateReport(sequence_id=src.name, checkpoints=_FitPoints(ns, counts),
                             verdict=verdict, notes=notes, config=config,
                             **decision._asdict())
