"""Sum-of-two-squares sieves, counting functions, Landau-Ramanujan estimators.

Two permanently independent s2 implementations (additive marking vs the
smallest-prime-factor route) act as mutual oracles; tables are numpy uint8
byte maps over 0..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError

KIND_S2_ADDITIVE = "s2_additive"
KIND_S2_MULTIPLICATIVE = "s2_multiplicative"
KIND_S2_NONZERO = "s2_nonzero"

DEFAULT_MEM_BYTES = 256 * 2**20


def _check_budget(need: int, budget: int, what: str) -> None:
    if need > budget:
        raise ResourceError(f"{what} needs about {need} bytes, budget is {budget}")


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Membership byte map over 0..limit (1 = member)."""

    limit: int
    bits: np.ndarray
    kind: str

    def bit(self, n: int) -> int:
        if not 0 <= n <= self.limit:
            raise DomainError(f"n = {n} outside table range 0..{self.limit}")
        return int(self.bits[n])

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class CountSeries:
    """Exact cumulative counts B at checkpoint values of N."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LrEstimate:
    method: str  # "sieve" | "euler_product"
    value: float
    parameter: int
    tail_bound: float | None = None


def _sieve_s2(N: int, x0: int, kind: str, mem_budget: int) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some x0 <= x <= y, by additive marking."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _check_budget(N + 1 + 16 * math.isqrt(N + 1), mem_budget, f"{kind} sieve")
    bits = np.zeros(N + 1, dtype=np.uint8)
    x = x0
    while 2 * x * x <= N:
        ymax = math.isqrt(N - x * x)
        y = np.arange(x, ymax + 1, dtype=np.int64)
        bits[x * x + y * y] = 1
        x += 1
    return SieveTable(N, bits, kind)


def sieve_s2_additive(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some 0 <= x <= y."""
    return _sieve_s2(N, 0, KIND_S2_ADDITIVE, mem_budget)


def sieve_s2_nonzero(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some 1 <= x <= y."""
    return _sieve_s2(N, 1, KIND_S2_NONZERO, mem_budget)


def spf_sieve(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> np.ndarray:
    """Smallest-prime-factor table for 0..N (spf[0] = 0, spf[1] = 1)."""
    if N < 0:
        raise DomainError("N must be >= 0")
    # int32 table + the worst transient boolean mask of a marking slice
    _check_budget(4 * (N + 1) + (N + 1) // 2 + 16, mem_budget, "spf sieve")
    spf = np.zeros(N + 1, dtype=np.int32)
    if N >= 1:
        spf[1] = 1
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p:: p]
            sl[sl == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest  # untouched entries are primes above sqrt(N) (and index 0)
    return spf


def factorize(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    """Prime factorization of n using a precomputed SPF table."""
    if n < 1 or n >= len(spf):
        raise DomainError(f"n = {n} outside the SPF table range")
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def sieve_s2_multiplicative(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff every prime p = 3 (mod 4) divides n to an even power.

    Valuation parities are accumulated vectorially: for each such prime p and
    exponent e, multiples of p^e gain +1 (e odd) or -1 (e even); the running
    sum is v_p(n) mod 2 summed over primes, so members are exactly the zeros.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    # bits + spf(int32) + parity accumulator + prime index transients
    _check_budget(11 * (N + 1), mem_budget, "multiplicative s2 sieve")
    if N < 3:
        # 0, 1, 2 are all sums of two squares; no prime = 3 (mod 4) yet
        return SieveTable(N, np.ones(N + 1, dtype=np.uint8), KIND_S2_MULTIPLICATIVE)
    spf = spf_sieve(N, mem_budget=mem_budget)
    idx = np.arange(N + 1, dtype=np.int32)
    primes = np.flatnonzero((spf == idx) & (idx >= 2))
    del idx
    p3 = primes[primes % 4 == 3]
    del primes
    acc = np.zeros(N + 1, dtype=np.int8)  # sum of v_p(n) mod 2; < log2(N) so no overflow
    for p in p3.tolist():
        pe = p
        sign = 1
        while pe <= N:
            acc[pe::pe] += sign
            sign = -sign
            pe *= p
    bits = (acc == 0).astype(np.uint8)
    return SieveTable(N, bits, KIND_S2_MULTIPLICATIVE)


def count_series(table: SieveTable, checkpoints: Sequence[int]) -> CountSeries:
    """Exact member counts of [0, N] at each checkpoint N."""
    for N in checkpoints:
        if not 0 <= N <= table.limit:
            raise DomainError(f"checkpoint {N} outside table range 0..{table.limit}")
    if not len(checkpoints):
        return CountSeries(())
    cum = np.cumsum(table.bits, dtype=np.int64)
    return CountSeries(tuple((int(N), int(cum[N])) for N in checkpoints))


def lr_estimate_sieve(series: CountSeries) -> list[LrEstimate]:
    """K-hat(N) = B(N) sqrt(ln N) / N at each checkpoint."""
    out = []
    for N, B in series.entries:
        if N < 3:
            raise DomainError("sieve estimates need N >= 3 (so ln N > 1)")
        out.append(LrEstimate("sieve", B * math.sqrt(math.log(N)) / N, N))
    return out


def _prime_mask(P: int) -> np.ndarray:
    mask = np.ones(P + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(P) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return mask


def lr_euler_product(P: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> LrEstimate:
    """Truncated Euler product K = (1/sqrt 2) prod_{p=3 mod 4} (1 - p^-2)^(-1/2).

    tail_bound = exp(1/(P-1)) - 1 is a sound relative bound for the omitted
    factors: -0.5 ln(1-x) <= x for x <= 1/2 and sum_{p > P} p^-2 <= 1/(P-1).
    """
    if P < 2:
        raise DomainError("P must be >= 2")
    _check_budget(10 * (P + 1), mem_budget, "euler product prime sieve")
    mask = _prime_mask(P)
    primes = np.flatnonzero(mask)
    p3 = primes[primes % 4 == 3].astype(np.float64)
    prod = float(np.prod(1.0 - 1.0 / (p3 * p3))) if p3.size else 1.0
    value = math.sqrt(0.5 / prod)
    tail = math.expm1(1.0 / (P - 1))
    return LrEstimate("euler_product", value, P, tail)


def diff_bound_check(
    N: int, *, mem_budget: int = DEFAULT_MEM_BYTES
) -> tuple[int | None, int]:
    """Verify |B(n) - B'(n)| <= floor(sqrt(n)) + 1 for all n <= N.

    Returns (first violating n or None, max difference observed).
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    table = sieve_s2_additive(N, mem_budget=mem_budget)
    table_nz = sieve_s2_nonzero(N, mem_budget=mem_budget)
    B = np.cumsum(table.bits, dtype=np.int64)
    Bp = np.cumsum(table_nz.bits, dtype=np.int64)
    diff = np.abs(B - Bp)
    n = np.arange(N + 1, dtype=np.int64)
    root = np.sqrt(n.astype(np.float64)).astype(np.int64)
    # repair float sqrt at the edges so root = floor(sqrt(n)) exactly
    root += (root + 1) * (root + 1) <= n
    root -= root * root > n
    bad = diff > root + 1
    first = int(np.flatnonzero(bad)[0]) if bad.any() else None
    return first, int(diff.max())


def multiplicativity_check(table: SieveTable, bound: int) -> tuple[int, int] | None:
    """First coprime pair 1 <= p <= q <= bound with s2(p) s2(q) != s2(pq), if any."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    if bound * bound > table.limit:
        raise DomainError("bound^2 exceeds the table limit")
    bits = table.bits.tobytes()
    gcd = math.gcd
    for p in range(1, bound + 1):
        bp = bits[p]
        for q in range(p, bound + 1):
            if gcd(p, q) != 1:
                continue
            if (bp & bits[q]) != bits[p * q]:
                return (p, q)
    return None
