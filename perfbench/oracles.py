"""Output checks, run outside the timed region, and the corruptions that must fail them.

Every check raises ``Mismatch`` on a wrong output; a check may return a note,
which the run counts and prints, for a correct output worth reporting. The
references come from other code paths than the ones timed: stored
multiplicative-sieve counts for the sieves, ``spectral.matrix_power_count``
for stream and prefix counts at N_k, numpy eigenvalues for growth rates,
closed forms for the Landau-Ramanujan and difference bounds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

# bound at import time, before any tracer replaces the module attribute, so
# oracle work never shows up in a trace
from morphcert.certify import CONCLUSION_MORPHIC, CONCLUSION_NON_MORPHIC
from morphcert.spectral import IncidenceMatrix, matrix_power_count

from inputs import MorphSpec, level_at, level_vectors, max_level, unit

# Landau-Ramanujan constant K (OEIS A064533)
K_LR = 0.76422365358922066299069873125
MIN_FIT_N = 4096
FIT_RTOL = 1e-9


class Mismatch(Exception):
    """An output that disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# --- sums of two squares -----------------------------------------------------

def load_counts(path: Path) -> dict:
    """n -> (B(n), B'(n)) from the stored multiplicative-sieve table."""
    raw = json.loads(path.read_text(encoding="utf-8"))["counts"]
    return {int(n): tuple(v) for n, v in raw.items()}


def plain_square_roots(limit: int) -> list[int]:
    """m in 0..limit whose square is in s2 but not in s2' (m = 0, or no prime = 1 mod 4)."""
    out = [0]
    for m in range(1, limit + 1):
        n, p, hit = m, 2, False
        while p * p <= n:
            if n % p == 0:
                hit = hit or p % 4 == 1
                while n % p == 0:
                    n //= p
            p += 1
        hit = hit or (n > 1 and n % 4 == 1)
        if not hit:
            out.append(m)
    return out


def sieve_checkpoints(max_n: int) -> list[int]:
    return [1024 * 2**j for j in range(40) if 1024 * 2**j <= max_n]


def check_logdamped(points, profile) -> None:
    """The fitted gamma against an independent numpy polyfit of the same points."""
    if len(points) < 8:
        expect(profile is None, "logdamped fit on fewer than 8 points")
        return
    expect(profile is not None, "logdamped fit missing")
    x = [math.log(math.log(n)) for n, _ in points]
    y = [math.log(n / c) for n, c in points]
    gamma = float(np.polyfit(x, y, 1)[0])
    expect(abs(profile.gamma - gamma) <= FIT_RTOL * max(1.0, abs(gamma)),
           f"gamma {profile.gamma} != polyfit {gamma}")


def check_sieve_report(report, source: str, max_n: int, counts: dict) -> None:
    col = 0 if source == "s2" else 1
    want = tuple((n, counts[n][col]) for n in sieve_checkpoints(max_n))
    expect(report.checkpoints == want, f"{source} checkpoint counts differ at N={max_n}")
    check_logdamped([(n, c) for n, c in want if n >= MIN_FIT_N], report.logdamped)
    expect(report.conclusion != CONCLUSION_MORPHIC, f"{source} concluded morphic")
    if max_n >= 2**23:
        expect(report.conclusion == CONCLUSION_NON_MORPHIC,
               f"{source} at N={max_n} concluded {report.conclusion}")


def check_diff_bound(result, N: int) -> None:
    want = (None, len(plain_square_roots(math.isqrt(N))))
    expect(tuple(result) == want, f"diff_bound_check({N}) = {result}, want {want}")


def check_table_count(table, N: int, counts: dict) -> None:
    expect(table.limit == N and int(table.bits.sum()) == counts[N][0],
           f"multiplicative sieve count at {N} differs")


def check_euler(est, P: int) -> None:
    expect(est.parameter == P and est.tail_bound == math.expm1(1.0 / (P - 1)),
           "euler product parameter or tail bound")
    expect(est.value < K_LR <= est.value * (1.0 + est.tail_bound),
           f"euler product {est.value} not within its tail bound of K")


def check_multiplicativity(result) -> None:
    expect(result is None, f"s2 reported non-multiplicative at {result}")


# --- morphic words -----------------------------------------------------------

def incidence(spec: MorphSpec) -> IncidenceMatrix:
    return IncidenceMatrix(spec.d, tuple(tuple(r) for r in spec.matrix()))


def level_counts(spec: MorphSpec, k: int, sources, targets) -> int:
    """|phi^k(w)|_T via spectral.matrix_power_count, summed over w and T."""
    M = incidence(spec)
    return sum(matrix_power_count(M, k, s, t) for s in sources for t in targets)


def level_points(spec: MorphSpec, levels) -> list[tuple[int, int]]:
    """(k, N_k) for the given levels, via spectral.matrix_power_count."""
    return [(k, level_counts(spec, k, [spec.start], range(spec.d))) for k in levels]


def descent_count(spec: MorphSpec, targets, n: int, max_levels: int = 20000):
    """Targets among the first n letters of the fixed point, or None past max_levels.

    Descends through phi^K(start) = phi^(K-1)(phi(start)), adding whole
    blocks phi^(k-1)(c) while they fit, so it never builds the word.
    """
    walks = [level_vectors(spec, unit(spec, b)) for b in range(spec.d)]
    levels = [[next(w) for w in walks]]  # [k][b] = letter counts of phi^k(b)
    while sum(levels[-1][spec.start]) < n:
        if len(levels) > max_levels:
            return None
        levels.append([next(w) for w in walks])
    total = [0] * spec.d
    remaining, a, k = n, spec.start, len(levels) - 1
    while remaining > 0:
        for c in spec.images[a]:
            block = levels[k - 1][c]
            size = sum(block)
            if size > remaining:
                a, k = c, k - 1
                break
            total = [x + y for x, y in zip(total, block)]
            remaining -= size
    return sum(total[t] for t in targets)


def prefix_count(spec: MorphSpec, targets, n: int) -> int:
    """Targets among the first n letters: matrix_power_count at an N_k, else descent."""
    k = max_level(spec, n)
    if sum(level_at(spec, k)) == n:
        return level_counts(spec, k, [spec.start], targets)
    want = descent_count(spec, targets, n)
    expect(want is not None, f"no reference count at n={n}")
    return want


def check_prefix_series(result, cps, spec: MorphSpec, symbol: str) -> None:
    expect([n for n, _ in result] == list(cps), "prefix series positions")
    targets = spec.targets(symbol)
    for n, c in result:
        want = prefix_count(spec, targets, n)
        expect(c == want, f"prefix count at n={n}: {c} != {want}")


def check_count(value, want: int, what: str) -> None:
    expect(value == want, f"{what}: {value} != {want}")


def check_stream(out, n: int, spec: MorphSpec, levels) -> None:
    expect(len(out) == n, f"stream length {len(out)} != {n}")
    points = [(k, nk) for k, nk in level_points(spec, levels) if nk <= n]
    for sym in dict.fromkeys(spec.coding):
        # one bool per letter: the check adds little to the process's peak RSS
        hits = np.fromiter((s == sym for s in out), dtype=bool, count=len(out))
        for k, nk in points:
            want = level_counts(spec, k, [spec.start], spec.targets(sym))
            expect(int(np.count_nonzero(hits[:nk])) == want, f"stream count of {sym} at N_{k}")


def check_iterate(word: bytes, spec: MorphSpec, w: bytes, k: int) -> None:
    got = np.bincount(np.frombuffer(word, dtype=np.uint8), minlength=spec.d)
    for t in range(spec.d):
        expect(int(got[t]) == level_counts(spec, k, w, [t]), f"iterate letter {t} count")


def reachable(spec: MorphSpec) -> list[int]:
    seen, stack = {spec.start}, [spec.start]
    while stack:
        for v in spec.images[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return sorted(seen)


def spectral_radius(spec: MorphSpec) -> float:
    idx = reachable(spec)
    sub = np.array(spec.matrix(), dtype=float)[np.ix_(idx, idx)]
    return float(max(abs(np.linalg.eigvals(sub))))


def check_analysis(rep: dict, spec: MorphSpec) -> None:
    want = [[str(e) for e in row] for row in spec.matrix()]
    expect(rep["incidence_matrix"] == want, "incidence matrix")
    rho = spectral_radius(spec)
    alpha = rep["growth"]["alpha"]
    expect(abs(alpha - rho) <= 1e-6 * rho, f"alpha {alpha} != spectral radius {rho}")
    expect(set(rep["letter_growth"]) == set(spec.coding), "letter growth symbols")
    for sym, g in rep["letter_growth"].items():
        expect(g["beta"] <= alpha * (1 + 1e-9), f"beta of {sym} exceeds alpha")
    letters = sorted(spec.letters.index(a) for c in rep["components"] for a in c["letters"])
    expect(letters == reachable(spec), "components do not partition the reachable letters")


def morphic_checkpoints(spec: MorphSpec, symbol: str, max_n: int, head: int = 4096):
    """The first `head` (N_k, count) pairs by exact recurrence, and the true pair count."""
    targets = spec.targets(symbol)
    out = []
    for c in level_vectors(spec, unit(spec, spec.start)):
        if sum(c) > max_n:
            return out, len(out)
        if len(out) == head:
            return out, max_level(spec, max_n) + 1
        out.append((sum(c), sum(c[t] for t in targets)))


def check_morphic_report(report, spec: MorphSpec, max_n: int, sample: bool) -> str | None:
    """Checkpoints and gamma of a morphic certificate, and its conclusion.

    A sample file must never be certified non-morphic. On a random morphism
    that conclusion is a known false positive of the method, returned as a
    note (see README.md, "False certificates").
    """
    symbol = spec.coding[spec.start]
    head, total = morphic_checkpoints(spec, symbol, max_n)
    got = report.checkpoints
    expect(len(got) == total, f"{len(got)} checkpoints, want {total}")
    expect(tuple(got[:len(head)]) == tuple(head), "morphic checkpoint counts")
    if total > len(head):
        targets = spec.targets(symbol)
        for k in sorted({round(total ** (i / 15)) - 1 for i in range(16)} - {-1}):
            c = level_at(spec, k)
            want = (sum(c), sum(c[t] for t in targets))
            expect(tuple(got[k]) == want, f"morphic checkpoint {k}")
    check_logdamped([(n, c) for k, (n, c) in enumerate(got)
                     if k >= 1 and n >= MIN_FIT_N and c >= 1], report.logdamped)
    if report.conclusion != CONCLUSION_NON_MORPHIC:
        return None
    expect(not sample, f"sample {spec.name} certified non-morphic")
    return "false certificate: a random morphism concluded non_morphic_conditional"


# --- corruptions ---------------------------------------------------------------

def corrupt_report(report):
    rows = list(report.checkpoints)
    n, c = rows[-1]
    rows[-1] = (n, c + 1)
    return dataclasses.replace(report, checkpoints=tuple(rows))


def corrupt_conclusion(report):
    return dataclasses.replace(report, conclusion=CONCLUSION_NON_MORPHIC)


def corrupt_pairs(pairs):
    return [(n, c + 1 if i == len(pairs) - 1 else c) for i, (n, c) in enumerate(pairs)]


def corrupt_stream(out):
    bad = list(out)
    bad[0] = "?"
    return bad


def corrupt_bytes(word: bytes) -> bytes:
    return bytes([(word[0] + 1) % 256]) + word[1:]
