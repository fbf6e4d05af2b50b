"""Sum-of-two-squares sieves, counting functions, Landau-Ramanujan estimators.

Two permanently independent s2 implementations act as mutual oracles: additive
marking of x^2 + y^2, one cache-sized segment of [0, N] at a time, and
Fermat's criterion, that n is a member iff every prime p = 3 (mod 4) divides
it to an even power. Tables are numpy uint8 byte maps over 0..N. n is in s2
iff its odd part is, and an odd member is 4t + 1, so the criterion is only
applied to this odd quarter map, a segment at a time. Each segment starts
from a tile of the strikes of 3, 7, 9, 11, 19 and 23, a wheel (Pritchard,
Acta Informatica 17, 1982), and the other powers of the primes p = 3 (mod 4)
up to sqrt(N) strike it in strided adds. The multiplicative table is the
quarter map written into its 2-adic classes 2^j (4t + 1). The count_s2_*
functions sum it over the halvings of each checkpoint instead, so they never
hold an N-byte map, nor the x <= y one. B'(N) is B(N) less 0 and the squares
m^2 <= N whose m has no prime factor 1 (mod 4). The x <= y tables are their
oracle. diff_bound_check reads the x <= y segments of both sieves side
by side. The Euler product sieves odd numbers only, half a byte per integer
up to P, striking the mask one cache-sized segment at a time with the primes
up to sqrt(P) (Bays and Hudson, BIT 17, 1977). multiplicativity_check scans
blocks of (p, q) rows and takes gcds only where the bits disagree.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

KIND_S2_ADDITIVE = "s2_additive"
KIND_S2_MULTIPLICATIVE = "s2_multiplicative"
KIND_S2_NONZERO = "s2_nonzero"

DEFAULT_MEM_BYTES = 256 * 2**20

# Blockwise passes walk [0, N] in slices of this length, so their transients
# are O(_BLOCK) whatever N is. A multiple of 8, so packed bit output of whole
# blocks concatenates to the packing of the whole table.
_BLOCK = 1 << 16
# The additive sieve marks [0, N] in segments of this length: long enough that
# the per-row bounds are paid for by many points, short enough to stay in L2.
_SEG = 4 * _BLOCK
# The prime mask is struck in segments of this many odd numbers (a 512 KiB
# byte mask); longer ones leave L2, shorter ones pay more slices per prime.
_PRIME_SEG = 1 << 19
# The odd quarter map starts each segment from a tile of the strikes of the
# prime powers p^e <= _WHEEL, p = 3 (mod 4): 3, 7, 9, 11, 19 and 23, whose
# period is _PERIOD. It is struck in segments of four periods (1.16 MiB):
# each segment pays a Python step per strike, so on a 2-core x86-64 host one
# period took 57 % longer and two 20 % longer, while six saved only 4 %. It is
# counted in slices of _SEG, so that a running count stays at 1 MiB.
_WHEEL = 23
_PERIOD = 9 * 7 * 11 * 19 * 23
_QUARTER_SEG = 4 * _PERIOD
# Streamed counts answer checkpoint queries this many at a time, so their
# transients stay small whatever the schedule.
_QUERIES = 1 << 12
# Charged once per call on top of the arrays: object headers, and the small
# objects a caller holds meanwhile (a checkpoint list, one output block).
_OVERHEAD = 1 << 18


def _check_budget(need: int, budget: int, what: str) -> None:
    if need > budget:
        raise ResourceError(f"{what} needs about {need} bytes, budget is {budget}")


def _pi_bound(x: int) -> int:
    """An upper bound on pi(x), the number of primes <= x.

    Dusart (1998): pi(x) <= x / ln x * (1 + 1.2762 / ln x) for x > 1.
    """
    if x < 2:
        return 0
    L = math.log(x)
    return math.ceil(x / L * (1 + 1.2762 / L))


def _segment_bytes(N: int) -> int:
    # one segment of the x <= y map; per row its int64 r, r^2, first point and
    # next u, kept across segments, and 64 B of u-range arithmetic; per point
    # of a batch, its v (int32 below 2^31, else int64) and int64 n, and
    # numpy's 64 KiB buffer while it adds v to n. A batch holds at most _BLOCK
    # points or a segment's, L / 2 (an eighth of an annulus, pi/8 < 1/2
    # points per byte) plus one per row, and then one row, at most the longest
    L, rows = min(_SEG, N + 1), math.isqrt(N // 2) + 1
    points = min(_BLOCK, L // 2 + rows) + math.isqrt(L) + 1
    return L + 96 * rows + (16 if N >= 2**31 else 12) * points + (1 << 16)


def _s2_charge(N: int) -> int:
    # the byte map, copied from the segments
    return N + 1 + _segment_bytes(N) + _OVERHEAD


def _s2_count_charge(N: int) -> int:
    # the odd quarter map over t <= T = (N - 1) / 4: an int8 segment, struck
    # and zero-tested in place, and the wheel's tile. Per strike p^e <= 4T + 1
    # 160 B over a bound that counts every prime p, not just the half that
    # are 3 (mod 4): pi(sqrt) each for e = 1 and 2, and log2 of them for each
    # prime to the cube root. A strike holds a (q, t0, sign) tuple with its
    # ints and list pointers while listed, then its int64 q and next index,
    # an int8 scalar and, if short, its step and next index as ints: at most
    # about 130 B. Beside the segment, its int32 running count and one batch
    # of queries, 32 B each with numpy's buffers
    T = max(N - 1, 0) >> 2
    L, top = min(_QUARTER_SEG, T + 1), 4 * T + 1
    strikes = 2 * _pi_bound(math.isqrt(top)) + top.bit_length() * _pi_bound(round(top ** (1 / 3)) + 1)
    marking = L + min(_PERIOD, T + 1) + 160 * strikes + 4 * min(_SEG, L) + 32 * _QUERIES
    # then B - B': the odd-only prime mask to sqrt(N), the int64 primes
    # p = 1 (mod 4), the mask of plain roots, their int64 running count, and
    # one batch of roots (floor sqrt's float, int64 and boolean transients)
    R = math.isqrt(N)
    roots = (R + 1) // 2 + 8 * _pi_bound(R) + 9 * (R + 1) + 48 * _QUERIES
    return marking + roots + _OVERHEAD


def _multiplicative_charge(N: int) -> int:
    # the byte map, and the odd quarter map that is written into it
    return N + 1 + _s2_count_charge(N)


def _euler_charge(P: int) -> int:
    # the odd-only prime mask, the int64 indices of primes p = 3 (mod 4) and
    # their float64 factors; to strike it, the base mask to sqrt(P), and per
    # base prime two int64 values and two list entries (a pointer and an int
    # object each)
    R = math.isqrt(P)
    return (P + 1) // 2 + 16 * _pi_bound(P) + (R + 1) // 2 + 96 * _pi_bound(R) + _OVERHEAD


def _diff_charge(N: int) -> int:
    # both sieves' segments, one marking while the other keeps its buffer and
    # rows; then one block of change points, 48 B each if every byte changes
    kept = min(_SEG, N + 1) + 32 * (math.isqrt(N // 2) + 1)
    return kept + max(_segment_bytes(N), kept + 48 * min(_BLOCK, N + 1)) + _OVERHEAD


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


class _Pairs(Sequence):
    """(first, count) pairs held as two numpy columns, int64 or object.

    It compares, hashes, indexes, slices and iterates like the tuple of int
    pairs it stands for, without a Python object per pair.
    """

    def __init__(self, first: np.ndarray, counts: np.ndarray):
        self.first = first
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return zip(_values(self.first), _values(self.counts))

    def __getitem__(self, i):
        first, count = np.asarray(self.first[i]).tolist(), np.asarray(self.counts[i]).tolist()
        return tuple(zip(first, count)) if isinstance(i, slice) else (first, count)

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _Pairs) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _values(column: np.ndarray):
    """A column's entries as Python numbers, one at a time unless it is object."""
    return column.tolist() if column.dtype == object else memoryview(column)


@dataclass(frozen=True)
class CountSeries:
    """Exact cumulative counts B at checkpoint values of N: `entries` holds the
    (N, B) pairs in two int64 columns, in the order the checkpoints were given."""

    entries: Sequence[tuple[int, int]]


@dataclass(frozen=True)
class LrEstimate:
    method: str  # "sieve" | "euler_product"
    value: float
    parameter: int
    tail_bound: float | None = None


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of an int64 array, exactly, for 0 <= v < 2^62."""
    # the float root is off by at most one there, and (r + 1)^2 fits in int64;
    # with a correctly rounded sqrt only the downward repair ever fires
    r = np.sqrt(v, dtype=np.float64).astype(np.int64)
    s = r + 1
    s *= s
    r += s <= v
    np.multiply(r, r, out=s)
    r -= s > v
    return r


def _mark_segments(limit: int, r: np.ndarray, u: np.ndarray):
    """Yield (lo, seg) over [0, limit] in segments of length _SEG, where seg[i] = 1
    iff lo + i = r^2 + v^2 for a row r and some v >= its start u.

    r and u are int64 arrays, one entry per row; the rows' first points
    r^2 + u^2 must not decrease, and u is overwritten. seg is a view of one
    reused buffer, valid until the next segment is asked for.
    """
    # row r marks v from u to the last v with r^2 + v^2 < hi; the next
    # segment starts one past it, so each row carries its next v from
    # segment to segment
    dt = np.int32 if limit < 2**31 else np.int64  # every point and offset fits
    sq = r * r
    first = sq + u * u
    buf = np.empty(min(_SEG, limit + 1), dtype=np.uint8)
    for lo in range(0, limit + 1, _SEG):
        hi = min(lo + _SEG, limit + 1)
        seg = buf[:hi - lo]
        seg.fill(0)
        k = int(np.searchsorted(first, hi - 1, side="right"))  # rows with a point < hi
        top = _isqrt(hi - 1 - sq[:k]) + 1
        cnt = top - u[:k]
        ends = np.cumsum(cnt)
        off = (u[:k] - ends + cnt).astype(dt, copy=False)
        base = sq[:k] - lo
        u[:k] = top
        # the points, rows of about _BLOCK points at a time: v runs over
        # consecutive integers from u within each row, and n - lo is
        # v^2 + r^2 - lo; int64 n, since numpy indexes fastest by intp
        a = start = 0
        while a < k:
            b = max(int(np.searchsorted(ends, start + _BLOCK, side="right")), a + 1)
            end = int(ends[b - 1])
            v = np.arange(start, end, dtype=dt)
            v += np.repeat(off[a:b], cnt[a:b])
            v *= v
            n = np.repeat(base[a:b], cnt[a:b])
            n += v
            del v
            seg[n] = 1
            del n
            a, start = b, end
        del top, cnt, ends, off, base
        yield lo, seg


def _s2_segments(N: int, x0: int):
    """_mark_segments of the x <= y map: seg[i] = 1 iff lo + i = x^2 + y^2 for
    some x0 <= x <= y."""
    x = np.arange(x0, math.isqrt(N // 2) + 1, dtype=np.int64)
    return _mark_segments(N, x, x.copy())


def _quarter_strikes(L: int) -> list[tuple[int, int, int]]:
    """(q, t0, sign) for every prime power q = p^e <= L of a prime p = 3 (mod 4),
    in increasing q: t0 < q is the t with q | 4t + 1 (4 t0 + 1 is q or 3q), and
    sign is +1 for e odd, -1 for e even."""
    strikes = []
    for p in (np.flatnonzero(_prime_mask(math.isqrt(L))[1::2]) * 4 + 3).tolist():
        q, s = p, 1
        while q <= L:
            strikes.append((q, (q * (q & 3) - 1) >> 2, s))
            q, s = q * p, -s
    strikes.sort()
    return strikes


def _quarter_segments(T: int):
    """Yield (lo, seg) over t <= T, struck in segments of length _QUARTER_SEG
    and yielded in slices of _SEG, where seg[i] = 1 iff 4 (lo + i) + 1 is a sum
    of two squares. seg is a view of one reused buffer, valid until the next
    slice is asked for."""
    # n = 4t + 1 is a member iff every prime p = 3 (mod 4) divides it to an
    # even power, and only the p <= sqrt(4T + 1) need striking: a lone such
    # prime above it would leave n = 3 (mod 4). Each power p^e adds +1 (e odd)
    # or -1 (e even) at its multiples, so the sum is zero iff n is a member.
    # At most 12 distinct primes p = 3 (mod 4) divide an n < 2^63, so the
    # sum fits in int8
    strikes = _quarter_strikes(4 * T + 1)
    w = sum(q <= _WHEEL for q, _, _ in strikes)
    tile = np.zeros(min(_PERIOD, T + 1), dtype=np.int8)
    for q, t, s in strikes[:w]:
        tile[t::q] += s
    # the other strikes carry their next index, relative to the segment: the
    # d shorter than a segment are strided adds of int8 scalars (they add
    # fastest), and the rest hit a segment at most once
    strikes = strikes[w:]
    d = sum(q < _QUARTER_SEG for q, _, _ in strikes)
    q = np.array([q for q, _, _ in strikes], dtype=np.int64)
    off = np.array([t for _, t, _ in strikes], dtype=np.int64)
    steps, signs = q[:d].tolist(), [np.int8(s) for _, _, s in strikes]
    del strikes
    acc = np.empty(min(_QUARTER_SEG, T + 1), dtype=np.int8)
    for lo in range(0, T + 1, _QUARTER_SEG):
        seg = acc[:min(_QUARTER_SEG, T + 1 - lo)]
        n = seg.size
        for a in range(0, n, _PERIOD):  # lo is a multiple of the period
            seg[a:a + _PERIOD] = tile[:n - a]
        for o, step, s in zip(off[:d].tolist(), steps, signs):
            strike = seg[o::step]
            np.add(strike, s, out=strike)
        for i in (np.flatnonzero(off[d:] < n) + d).tolist():
            seg[off[i]] += signs[i]
        off -= n
        off %= q
        np.equal(seg, 0, out=seg.view(np.bool_))
        bits = seg.view(np.uint8)
        for a in range(0, n, _SEG):  # slices, so that a running count stays small
            yield lo + a, bits[a:a + _SEG]


def _sieve_s2(N: int, x0: int, kind: str, mem_budget: int) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some x0 <= x <= y, by additive marking."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _check_budget(_s2_charge(N), mem_budget, f"{kind} sieve")
    bits = np.empty(N + 1, dtype=np.uint8)
    for lo, seg in _s2_segments(N, x0):
        bits[lo:lo + seg.size] = seg
    return SieveTable(N, bits, kind)


def sieve_s2_additive(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some 0 <= x <= y."""
    return _sieve_s2(N, 0, KIND_S2_ADDITIVE, mem_budget)


def sieve_s2_nonzero(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff n = x^2 + y^2 for some 1 <= x <= y."""
    return _sieve_s2(N, 1, KIND_S2_NONZERO, mem_budget)


def sieve_s2_multiplicative(N: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> SieveTable:
    """bit(n) = 1 iff every prime p = 3 (mod 4) divides n to an even power.

    Every n > 0 is 2^j (4t + 1) or 2^j (4t + 3), and only the first kind can
    be a member, exactly when 4t + 1 is one: so the table is the odd quarter
    map, which strikes the primes p = 3 (mod 4) by Fermat's criterion, written
    into its 2-adic classes. Level j of a slice at lo starts at
    (4 lo + 1) 2^j and steps by 4 * 2^j; n = 0 is a member, the rest are 0.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    _check_budget(_multiplicative_charge(N), mem_budget, "multiplicative s2 sieve")
    bits = np.zeros(N + 1, dtype=np.uint8)
    bits[0] = 1
    for lo, seg in _quarter_segments((N - 1) >> 2) if N else ():
        j = 0
        while (first := (4 * lo + 1) << j) <= N:
            level = bits[first::4 << j][:seg.size]
            level[:] = seg[:level.size]
            j += 1
    return SieveTable(N, bits, KIND_S2_MULTIPLICATIVE)


def _count_checkpoints(limit: int, checkpoints: Sequence[int], fill) -> CountSeries:
    """Counts at the checkpoints in 0..limit: fill(todo, counts) writes each
    sorted checkpoint's count over the zeros beside it."""
    want = np.array(checkpoints)  # int64 unless a float or a number past int64 is in it
    if want.dtype != np.int64 or want.size and not (0 <= want.min() and want.max() <= limit):
        bad = next((N for N in checkpoints if not 0 <= N <= limit), None)
        if bad is not None:
            raise DomainError(f"checkpoint {bad} outside table range 0..{limit}")
        for N in checkpoints:
            try:
                operator.index(N)
            except TypeError:
                raise DomainError(f"checkpoint {N} is not an integer") from None
        want = np.array(checkpoints, dtype=np.int64)
    order = np.argsort(want, kind="stable")
    todo = want[order]
    counts = np.zeros_like(todo)
    fill(todo, counts)
    todo[order] = counts  # the counts, in the caller's order
    return CountSeries(_Pairs(want, todo))


def _add_counts(seg: np.ndarray, ns: np.ndarray, base: int, shift: int,
                counts: np.ndarray, total: int, run: np.ndarray | None = None) -> np.ndarray | None:
    """counts += total + the members of seg[:i + 1], i = (N - base) >> shift, for
    each N of the sorted ns. Many N read a running count of seg, which costs
    about a gap count per 512 bytes and is returned; few count the gaps."""
    if ns.size > seg.size >> 9:
        if run is None:  # in place: cumsum to int32 would cast a copy first
            run = seg.astype(np.int32)
            np.cumsum(run, out=run)
        for c in range(0, ns.size, _QUERIES):
            i = (ns[c:c + _QUERIES] - base) >> shift
            counts[c:c + i.size] += run[i]
        counts += total
    else:
        start, q = 0, total
        for c, end in enumerate((((ns - base) >> shift) + 1).tolist()):
            q += int(np.count_nonzero(seg[start:end]))
            counts[c] += q
            start = end
    return run


def count_series(table: SieveTable, checkpoints: Sequence[int]) -> CountSeries:
    """Exact member counts of [0, N] at each checkpoint N, in the given order."""
    def fill(todo, counts):
        total = 0
        for lo in range(0, int(todo[-1]) + 1 if todo.size else 0, _SEG):
            seg = table.bits[lo:lo + _SEG]
            i, j = np.searchsorted(todo, [lo, lo + seg.size])
            _add_counts(seg, todo[i:j], lo, 0, counts[i:j], total)
            total += int(np.count_nonzero(seg))

    return _count_checkpoints(table.limit, checkpoints, fill)


def _set_s2_counts(todo: np.ndarray, counts: np.ndarray) -> None:
    """counts = B(N) at the sorted checkpoints N, from the odd quarter map."""
    # B(N) = 1 + sum over j of Q(((N >> j) - 1) >> 2), Q(t) the marked t' <= t:
    # 0 and the members 2^j (4t + 1) <= N. Level j of a segment adds Q(t) to
    # each N whose t it holds
    top = int(todo[-1]) if todo.size else 0
    segments = _quarter_segments((top - 1) >> 2) if top else ()
    total, run = 0, None  # total = Q(lo - 1)
    for lo, seg in segments:
        # level j reads this segment for the N in [(4 lo + 1) << j, (4 hi + 1) << j)
        j = 0
        while (first := (4 * lo + 1) << j) <= top:
            i0, i1 = np.searchsorted(todo, [first, (4 * (lo + seg.size) + 1) << j])
            run = _add_counts(seg, todo[i0:i1], first, j + 2, counts[i0:i1], total, run)
            j += 1
        total += int(np.count_nonzero(seg))
        run = None  # freed before the next segment is marked
    counts += 1


def _subtract_plain_squares(todo: np.ndarray, counts: np.ndarray) -> None:
    """counts -= B(N) - B'(N) at the sorted checkpoints N."""
    # s2 less s2' is 0 and the squares m^2 whose m has no prime factor
    # p = 1 (mod 4): m^2 is x^2 + y^2 with x, y > 0 iff m has one
    R = math.isqrt(int(todo[-1])) if todo.size else 0
    plain = np.ones(R + 1, dtype=bool)
    plain[0] = False
    for p in (np.flatnonzero(_prime_mask(R)[::2]) * 4 + 1).tolist():
        plain[p::p] = False
    plain = np.cumsum(plain, dtype=np.int64)
    plain += 1
    for c in range(0, todo.size, _QUERIES):
        counts[c:c + _QUERIES] -= plain[_isqrt(todo[c:c + _QUERIES])]


def _count_s2(N: int, checkpoints: Sequence[int], nonzero: bool, kind: str,
              mem_budget: int) -> CountSeries:
    if N < 0:
        raise DomainError("N must be >= 0")
    _check_budget(_s2_count_charge(N), mem_budget, f"{kind} counts")

    def fill(todo, counts):
        _set_s2_counts(todo, counts)
        if nonzero:
            _subtract_plain_squares(todo, counts)

    return _count_checkpoints(N, checkpoints, fill)


def count_s2_additive(N: int, checkpoints: Sequence[int], *,
                      mem_budget: int = DEFAULT_MEM_BYTES) -> CountSeries:
    """count_series(sieve_s2_additive(N), checkpoints), from the odd quarter map."""
    return _count_s2(N, checkpoints, False, KIND_S2_ADDITIVE, mem_budget)


def count_s2_nonzero(N: int, checkpoints: Sequence[int], *,
                     mem_budget: int = DEFAULT_MEM_BYTES) -> CountSeries:
    """count_series(sieve_s2_nonzero(N), checkpoints): the s2 counts from the odd
    quarter map, less 0 and the squares that are not x^2 + y^2 with x, y > 0."""
    return _count_s2(N, checkpoints, True, KIND_S2_NONZERO, mem_budget)


def lr_estimate_sieve(series: CountSeries) -> list[LrEstimate]:
    """K-hat(N) = B(N) sqrt(ln N) / N at each checkpoint."""
    out = []
    for N, B in series.entries:
        if N < 3:
            raise DomainError("sieve estimates need N >= 3 (so ln N > 1)")
        out.append(LrEstimate("sieve", B * math.sqrt(math.log(N)) / N, N))
    return out


def _prime_mask(P: int) -> np.ndarray:
    """odd[i] = True iff 2i + 1 <= P is prime; odd[1::2] are the p = 3 (mod 4)."""
    odd = np.ones((P + 1) // 2, dtype=bool)
    odd[:1] = False
    R = math.isqrt(P)
    if odd.size <= _PRIME_SEG:
        for p in range(3, R + 1, 2):
            if odd[p >> 1]:
                odd[p * p >> 1::p] = False
        return odd
    # odd primes p <= R strike one segment at a time, each carrying the index
    # of its next odd multiple. A prime p already striking has that index
    # below lo + p, the rest start at p^2 / 2, in the order of p; so as every
    # p <= seg, the primes that strike a segment are a prefix of the list
    seg = max(_PRIME_SEG, R)
    primes = (np.flatnonzero(_prime_mask(R)) * 2 + 1).tolist()
    nxt = [p * p >> 1 for p in primes]
    for lo in range(0, odd.size, seg):
        hi = lo + seg
        part = odd[lo:hi]
        for k, p in enumerate(primes):
            i = nxt[k]
            if i >= hi:
                break
            part[i - lo::p] = False
            nxt[k] = i + (hi - i + p - 1) // p * p
    return odd


def lr_euler_product(P: int, *, mem_budget: int = DEFAULT_MEM_BYTES) -> LrEstimate:
    """Truncated Euler product K = (1/sqrt 2) prod_{p=3 mod 4} (1 - p^-2)^(-1/2).

    tail_bound = exp(1/(P-1)) - 1 is a sound relative bound for the omitted
    factors: -0.5 ln(1-x) <= x for x <= 1/2 and sum_{p > P} p^-2 <= 1/(P-1).
    """
    if P < 2:
        raise DomainError("P must be >= 2")
    _check_budget(_euler_charge(P), mem_budget, "euler product prime sieve")
    f = np.flatnonzero(_prime_mask(P)[1::2]).astype(np.float64)
    # f = p, then 1 - p^-2 in place, rounding each step as 1.0 - 1.0 / (p * p)
    f *= 4.0
    f += 3.0
    f *= f
    np.divide(1.0, f, out=f)
    np.subtract(1.0, f, out=f)
    prod = float(np.prod(f)) if f.size else 1.0
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
    _check_budget(_diff_charge(N), mem_budget, "difference bound check")
    # B - B' moves only where the two byte maps differ; between those points
    # |B - B'| is constant and floor(sqrt(n)) + 1 never falls, so the first
    # violation and the largest difference both fall on a change point
    first = None
    worst = carry = 0  # carry = B(lo - 1) - B'(lo - 1)
    for (lo, a), (_, b) in zip(_s2_segments(N, 0), _s2_segments(N, 1)):
        for s in range(0, a.size, _BLOCK):
            x, y = a[s:s + _BLOCK], b[s:s + _BLOCK]
            at = np.flatnonzero(x != y)
            if not at.size:
                continue
            diff = np.cumsum(x[at].astype(np.int64) - y[at])
            diff += carry
            carry = int(diff[-1])
            np.abs(diff, out=diff)
            if first is None:
                at += lo + s
                bad = np.flatnonzero(diff > _isqrt(at) + 1)
                if bad.size:
                    first = int(at[bad[0]])
            worst = max(worst, int(diff.max()))
    return first, worst


def multiplicativity_check(table: SieveTable, bound: int) -> tuple[int, int] | None:
    """First coprime pair 1 <= p <= q <= bound with s2(p) s2(q) != s2(pq), if any,
    in (p, q) order: the least p, then the least q.

    The pairs are scanned in blocks of rows p, about _BLOCK pairs each, and
    gcds are taken only on the pairs whose bits disagree.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    if bound * bound > table.limit:
        raise DomainError("bound^2 exceeds the table limit")
    bits = table.bits
    p0 = 1
    while p0 <= bound:
        q = np.arange(p0, bound + 1, dtype=np.int64)
        p = q[:max(1, _BLOCK // q.size), None]  # rows p0.., each read for q >= p0
        bad = (bits[p] & bits[q]) != bits[p * q]
        # row-major, so in (p, q) order; a pair with q < p comes after its
        # mirror (q, p), in the earlier row q of the same block
        i, j = np.nonzero(bad)
        ok = np.flatnonzero(np.gcd(p[i, 0], q[j]) == 1)
        if ok.size:
            return (int(p[i[ok[0]], 0]), int(q[j[ok[0]]]))
        p0 += p.shape[0]
    return None
