import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphcert import numtheory
from morphcert.certify import CertificateReport, CertifyConfig, certify_nonmorphic, geometric_checkpoints
from morphcert.errors import DomainError, ResourceError
from morphcert.numtheory import (
    _BLOCK,
    _PERIOD,
    _QUARTER_SEG,
    _SEG,
    CountSeries,
    SieveTable,
    _isqrt,
    count_s2_additive,
    count_s2_nonzero,
    count_series,
    diff_bound_check,
    lr_estimate_sieve,
    lr_euler_product,
    multiplicativity_check,
    sieve_s2_additive,
    sieve_s2_multiplicative,
    sieve_s2_nonzero,
)

from conftest import MORPHISM_DIR, ref_quarter_segments

# 0.76422365358922066 is the Landau-Ramanujan constant (OEIS A064533)
LR_CONSTANT = 0.76422365358922066


def brute_s2(n: int) -> int:
    return int(
        any(
            round(math.isqrt(n - x * x)) ** 2 == n - x * x
            for x in range(math.isqrt(n) + 1)
        )
    )


def brute_s2_nonzero(n: int) -> int:
    for x in range(1, math.isqrt(n) + 1):
        rest = n - x * x
        y = math.isqrt(rest)
        if y >= 1 and y * y == rest:
            return 1
    return 0


# N = 2^j (4e + 1) + d, e a _SEG slice edge or a _QUARTER_SEG segment edge,
# j = 0 and 1, d = -1, 0 and 1
_SLICE_EDGE_SIZES = [((4 * e + 1) << j) + d for e in (_SEG, _QUARTER_SEG) for j in (0, 1)
                     for d in (-1, 0, 1)]


@pytest.fixture(scope="module")
def additive_to_slice_edges():
    return sieve_s2_additive(max(_SLICE_EDGE_SIZES)).bits


class TestSieves:
    def test_small_membership(self):
        table = sieve_s2_additive(10)
        assert [n for n in range(11) if table.bit(n)] == [0, 1, 2, 4, 5, 8, 9, 10]
        nz = sieve_s2_nonzero(10)
        assert [n for n in range(11) if nz.bit(n)] == [2, 5, 8, 10]

    def test_matches_brute_force(self):
        table = sieve_s2_additive(500)
        nz = sieve_s2_nonzero(500)
        for n in range(501):
            assert table.bit(n) == brute_s2(n), n
            assert nz.bit(n) == brute_s2_nonzero(n), n

    def test_multiplicative_route_agrees(self):
        # dual-route oracle at 1e5 (the acceptance suite runs 1e6)
        a = sieve_s2_additive(10**5)
        m = sieve_s2_multiplicative(10**5)
        assert np.array_equal(a.bits, m.bits)

    def test_multiplicative_tiny(self):
        for N in (0, 1, 2, 3, 9):
            a = sieve_s2_additive(N)
            m = sieve_s2_multiplicative(N)
            assert np.array_equal(a.bits, m.bits), N

    @pytest.mark.parametrize("N", _SLICE_EDGE_SIZES)
    def test_multiplicative_at_quarter_slice_edges(self, N, additive_to_slice_edges):
        # the last t that level j writes sits on either side of a slice or
        # segment edge of the odd quarter map
        assert np.array_equal(sieve_s2_multiplicative(N).bits, additive_to_slice_edges[:N + 1]), N

    def test_multiplicative_at_fixed_up_positions(self):
        ns = [c << j for c in (1, 3, 5, 7) for j in range(12, 23)]
        table = sieve_s2_multiplicative(max(ns))
        for n in ns:
            assert table.bit(n) == brute_s2(n), n

    def test_nonzero_subset_of_s2(self):
        a = sieve_s2_additive(10**4)
        nz = sieve_s2_nonzero(10**4)
        assert not np.any(nz.bits & ~a.bits)

    def test_bit_range(self):
        table = sieve_s2_additive(10)
        assert table.bit(0) == 1
        with pytest.raises(DomainError):
            table.bit(11)
        with pytest.raises(DomainError):
            table.bit(-1)
        for n in (2.0, True):
            with pytest.raises(DomainError, match="is not an integer"):
                table.bit(n)

    def test_rejects_negative_limit(self):
        for build in (sieve_s2_additive, sieve_s2_nonzero, sieve_s2_multiplicative):
            with pytest.raises(DomainError):
                build(-1)

    def test_memory_budget(self):
        for build in (sieve_s2_additive, sieve_s2_nonzero, sieve_s2_multiplicative):
            with pytest.raises(ResourceError):
                build(10**7, mem_budget=1024)


def _reference_rows(N, x0):
    """The row-by-row marking that the segmented sieve replaced: the oracle."""
    bits = np.zeros(N + 1, dtype=np.uint8)
    x = x0
    while 2 * x * x <= N:
        idx = np.arange(x, math.isqrt(N - x * x) + 1, dtype=np.int64)
        idx *= idx
        idx += x * x
        bits[idx] = 1
        x += 1
    return bits


# 0..64; one below, on and one past the first three segment edges; and edges
# that are perfect squares, 4 _SEG = 1024^2 and 9 _SEG = 1536^2
_SEGMENT_SIZES = (
    list(range(65))
    + [k * _SEG + d for k in (1, 2, 3, 4, 9) for d in (-1, 0, 1)]
)


@pytest.mark.parametrize("x0, build", [(0, sieve_s2_additive), (1, sieve_s2_nonzero)])
def test_segments_match_row_reference(x0, build):
    assert _SEG == 512 * 512  # the first edge is a perfect square too
    for N in _SEGMENT_SIZES:
        bits = build(N).bits
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, _reference_rows(N, x0)), N
        if x0 == 0:
            assert np.array_equal(bits, sieve_s2_multiplicative(N).bits), N


def _quarter_map(T: int) -> np.ndarray:
    segments = [(lo, seg.copy()) for lo, seg in numtheory._quarter_segments(T)]
    assert [lo for lo, _ in segments] == [
        lo + a for lo in range(0, T + 1, _QUARTER_SEG)
        for a in range(0, min(_QUARTER_SEG, T + 1 - lo), _SEG)]
    return np.concatenate([seg for _, seg in segments])


@pytest.mark.parametrize("T", list(range(20)) + [
    k * m + d for m, ks in ((2**18, (1, 2)), (_QUARTER_SEG, (1, 2)), (_PERIOD, (1, 2, 3)))
    for k in ks for d in range(-2, 3)])
def test_quarter_segments_match_table(T):
    # the odd quarter map is every fourth byte of the x <= y table, from 1:
    # mid-segment and mid-tile (about 2^18 and 2^19), at the segment edges
    # and where the tile repeats
    assert _QUARTER_SEG % _PERIOD == 0
    assert np.array_equal(_quarter_map(T), sieve_s2_additive(4 * T + 1).bits[1::4]), T


def test_quarter_segments_match_additive_marking():
    # the strikes against the marking of t = a^2 + b(b + 1) they replaced
    T = 3 * _QUARTER_SEG + 7
    want = np.concatenate([seg for _, seg in ref_quarter_segments(T, 10**6)])
    assert np.array_equal(_quarter_map(T), want)


def test_quarter_map_prime_factor_above_the_strikes():
    # 4t + 1 = m p with p = 3 (mod 4) a prime above sqrt(4T + 1), which no
    # strike reaches: m = 3 (mod 4) then has a struck prime to an odd power
    T = _PERIOD + 2
    L = 4 * T + 1
    bits = _quarter_map(T)
    table = sieve_s2_additive(L).bits
    odd = numtheory._prime_mask(L // 3)
    big = [p for p in (np.flatnonzero(odd[1::2]) * 4 + 3).tolist() if p * p > L]
    for m in (3, 7, 11, 15, 27, 31, 3 * 5 * 5):
        n = np.array([m * p for p in big if m * p <= L], dtype=np.int64)
        assert n.size
        assert not bits[n >> 2].any() and not table[n].any(), m
    # and 4t + 1 = m p with p = 1 (mod 4) above it: a member iff m is one
    one = [p for p in (np.flatnonzero(odd[::2]) * 4 + 1).tolist() if p * p > L]
    for m in (1, 5, 9, 13, 21, 49):
        n = np.array([m * p for p in one if m * p <= L], dtype=np.int64)
        assert n.size
        assert np.all(bits[n >> 2] == table[m]) and np.all(table[n] == table[m]), m


def test_quarter_map_prime_power_signs():
    # 4t + 1 divisible by 27 or 81 (3 and 9 are in the tile, 27 and 81 are
    # strikes), 49 * 121 (7 and 11 tiled, their squares struck) or 7^4 * 19
    # (+1 -1 +1 -1 for 7, +1 for 19 from the tile): members and non-members
    # both, across a segment edge
    T = _QUARTER_SEG + _PERIOD + 2
    bits = _quarter_map(T)
    for q in (27, 81, 49 * 121, 7**4 * 19):
        t = np.arange((q * (q & 3) - 1) >> 2, T + 1, q)
        assert np.all((4 * t + 1) % q == 0)
        t = np.unique(np.concatenate([t[:40], t[-40:], t[np.searchsorted(t, _QUARTER_SEG) - 20:][:40]]))
        want = [brute_s2(4 * v + 1) for v in t.tolist()]
        assert bits[t].tolist() == want, q
        assert 0 < sum(want) < len(want), q


@pytest.mark.parametrize("build, count", [
    (sieve_s2_additive, count_s2_additive), (sieve_s2_nonzero, count_s2_nonzero)])
def test_streamed_counts_match_table(build, count):
    rng = np.random.default_rng(11)
    edges = [k * _SEG + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    # (N - 1) >> 2 one below, on and past the quarter map's slice and
    # segment edges
    quarter_edges = [4 * k * m + d for m in (_SEG, _QUARTER_SEG) for k in (1, 2)
                     for d in range(-3, 6)]
    for N in (0, 1, 64, _SEG - 1, _SEG, 3 * _SEG + 1, *quarter_edges):
        table = build(N)
        inside = [n for n in edges + quarter_edges if n <= N]
        for cps in ([], [0], [N], [N // 3, 0],  # some stop well before N
                    inside + [N, 0, N // 3, N, N // 3, 0] + inside,
                    list(range(min(N, 2**12) + 1))):  # every N <= 2^12
            cps = [int(n) for n in rng.permutation(cps)]
            assert count(N, cps) == count_series(table, cps), (N, cps)


@pytest.mark.parametrize("build, count", [
    (sieve_s2_additive, count_s2_additive), (sieve_s2_nonzero, count_s2_nonzero)])
def test_streamed_counts_on_every_schedule_shape(build, count):
    # few checkpoints per segment, many, and more than the t they read, also
    # where a later segment reads the same level (every N < 2^13, then N);
    # then seg.size >> 9 and one more N = 4 t + 1 on level 0 of the second
    # whole segment, the most that count the gaps between them and the
    # fewest that read the segment's running count
    N = 3 * 2**20
    table = build(N)
    for cps in (geometric_checkpoints(1024, 2.0, N), geometric_checkpoints(1000, 1.01, N),
                geometric_checkpoints(1, 1.0001, N), list(range(N - 6000, N + 1)),
                list(range(2**13)) + [N], list(range(0, N + 1, 5)),
                [N] * 5000 + [N // 2] * 5000 + [7] * 3,
                *([4 * (_SEG + 3 * i) + 1 for i in range(k)] + [N]
                  for k in (_SEG >> 9, (_SEG >> 9) + 1))):
        assert count(N, cps) == count_series(table, cps)


def test_entries_are_int64_columns_in_the_given_order():
    cps = [100, 7, 7, 0, 64]
    table = sieve_s2_additive(100)
    for series in (count_s2_additive(100, cps), count_s2_nonzero(100, cps),
                   count_series(table, cps)):
        entries = series.entries
        assert not isinstance(entries, tuple)
        assert entries.first.dtype == entries.counts.dtype == np.int64
        assert entries.first.tolist() == cps
        assert entries.counts.tolist() == [b for _, b in entries]
    want = tuple((n, int(table.bits[:n + 1].sum())) for n in cps)
    assert count_series(table, cps).entries == want
    assert count_s2_additive(100, cps).entries[1:3] == want[1:3]


def test_every_integer_counts_hold_no_pair_objects():
    # the checkpoint and count columns, the sort order and the sorted
    # checkpoints take 32 B a checkpoint; a tuple and two ints per pair took
    # 112 B in all
    cps = list(range(10**6 + 1))
    count_s2_additive(1000, cps[:1001])  # first calls fill caches
    tracemalloc.start()
    try:
        series = count_s2_additive(10**6, cps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.entries) == len(cps)
    assert peak < 64 * len(cps)


def test_streamed_counts_match_multiplicative_sieve():
    # both read the odd quarter map, so the additive table checks its strikes
    N = 5 * _QUARTER_SEG + 3
    cps = (geometric_checkpoints(1, 1.001, N) + [4 * _QUARTER_SEG + d for d in range(-5, 6)]
           + list(range(N - 300, N + 1)))
    want = count_series(sieve_s2_additive(N), cps)
    assert count_s2_additive(N, cps) == want
    assert count_series(sieve_s2_multiplicative(N), cps) == want


def _reference_count_segments(segments, limit, checkpoints):
    """The loop that read one checkpoint at a time, one count_nonzero each: the oracle."""
    for N in checkpoints:
        if not 0 <= N <= limit:
            raise DomainError(f"checkpoint {N} outside table range 0..{limit}")
    todo = sorted({int(N) for N in checkpoints}, reverse=True)
    counts = {}
    total = 0
    for lo, seg in segments:
        if not todo:
            break
        start = 0
        while todo and todo[-1] < lo + seg.size:
            end = todo[-1] + 1 - lo
            total += int(np.count_nonzero(seg[start:end]))
            counts[todo.pop()] = total
            start = end
        total += int(np.count_nonzero(seg[start:]))
    return CountSeries(tuple((int(N), counts[int(N)]) for N in checkpoints))


@pytest.mark.parametrize("x0", [0, 1])
def test_count_segments_match_loop_reference(x0):
    # count_series on the x0 = 0 and x0 = 1 tables; the last two schedules put
    # seg.size >> 9 and one more checkpoint in the second segment, the most
    # that count the gaps between them and the fewest that read its running count
    N = 3 * _SEG + 5
    table = (sieve_s2_additive, sieve_s2_nonzero)[x0](N)
    rng = np.random.default_rng(x0)
    dense = geometric_checkpoints(1, 1.0001, N)  # every N up to 10^4, then 44 k more
    edges = [k * _SEG + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    for cps in (dense, geometric_checkpoints(1024, 2.0, N), [], [N], [0, 0],
                [int(n) for n in rng.permutation(dense[::7] + edges + edges + [N, 0])],
                list(range(_SEG - 300, _SEG + 300)) + [5, 5, N],
                *([_SEG + 3 + 509 * i for i in range(k)] + [N]
                  for k in (_SEG >> 9, (_SEG >> 9) + 1))):
        want = _reference_count_segments(numtheory._s2_segments(N, x0), N, cps)
        assert count_series(table, cps) == want


def test_streamed_counts_reject_like_count_series():
    # the first bad checkpoint is named, also past int64, where converting
    # the checkpoints to an array overflows, and where int64 would truncate:
    # a float in range would be read as the integer below it
    table = sieve_s2_additive(100)
    cases = [(cps, f"checkpoint {bad} outside table range 0..100") for cps, bad in (
        ([101], 101), ([-1], -1), ([5, 101, 7], 101), ([2**63], 2**63),
        ([3, 2**64, -1, 100], 2**64), ([0, 100, -2**63 - 1, 2**65], -2**63 - 1),
        ([3, 100.5], 100.5), ([-0.5, 7], -0.5))]
    cases += [(cps, f"checkpoint {bad} is not an integer") for cps, bad in (
        ([10.5], 10.5), ([3, 10.0, 7], 10.0), ([2, np.float64(0.5)], 0.5))]
    for cps, message in cases:
        with pytest.raises(DomainError) as want:
            count_series(table, cps)
        assert str(want.value) == message
        for count in (count_s2_additive, count_s2_nonzero):
            with pytest.raises(DomainError) as got:
                count(100, cps)
            assert str(got.value) == str(want.value)
    for count in (count_s2_additive, count_s2_nonzero):
        with pytest.raises(DomainError):
            count(-1, [])
        with pytest.raises(ResourceError):
            count(10**7, [10], mem_budget=1024)


def _plain(out):
    """A result as comparable bytes, with the types of its numbers shown."""
    if isinstance(out, SieveTable):
        return repr(out.limit), out.bits.tobytes(), out.kind
    if isinstance(out, CertificateReport):
        return json.dumps(out.to_json_dict())
    return repr(out)


_FIB = f"morphic:{MORPHISM_DIR / 'fibonacci.morph'}"


@pytest.mark.parametrize("name, call, valid", [
    pytest.param("N", sieve_s2_additive, 100, id="sieve_s2_additive"),
    pytest.param("N", sieve_s2_nonzero, 100, id="sieve_s2_nonzero"),
    pytest.param("N", sieve_s2_multiplicative, 100, id="sieve_s2_multiplicative"),
    pytest.param("N", lambda N: count_s2_additive(N, [10, 50]), 100, id="count_s2_additive"),
    pytest.param("N", lambda N: count_s2_nonzero(N, [10, 50]), 100, id="count_s2_nonzero"),
    pytest.param("N", diff_bound_check, 100, id="diff_bound_check"),
    pytest.param("P", lr_euler_product, 1000, id="lr_euler_product"),
    pytest.param("bound", lambda bound: multiplicativity_check(sieve_s2_additive(100), bound),
                 10, id="multiplicativity_check"),
    pytest.param("n", lambda n: sieve_s2_additive(100).bit(n), 50, id="bit"),
    pytest.param("checkpoint", lambda n: count_series(sieve_s2_additive(100), [n]), 50,
                 id="count_series-checkpoint"),
    pytest.param("checkpoint", lambda n: count_s2_additive(100, [n]), 50,
                 id="count_s2_additive-checkpoint"),
    pytest.param("checkpoint", lambda n: count_s2_nonzero(100, [n]), 50,
                 id="count_s2_nonzero-checkpoint"),
    pytest.param("n0", lambda n0: geometric_checkpoints(n0, 2.0, 100), 3, id="geometric_checkpoints"),
    pytest.param("max_n", lambda N: certify_nonmorphic("s2", CertifyConfig(max_n=N)), 2**14,
                 id="certify-s2"),
    pytest.param("max_n", lambda N: certify_nonmorphic("s2nz", CertifyConfig(max_n=N)), 2**14,
                 id="certify-s2nz"),
    pytest.param("max_n", lambda N: certify_nonmorphic(_FIB, CertifyConfig(max_n=N)), 2**14,
                 id="certify-morphic"),
])
def test_sizes_are_integers(name, call, valid):
    # floats, bools and values below the floor are refused by name, out of
    # range first for a table's n and checkpoints; numpy ints read as ints
    for bad in (1e4, 2.5, True, -1):
        with pytest.raises(DomainError) as got:
            call(bad)
        assert str(got.value).startswith(f"{name} "), (bad, str(got.value))
    assert _plain(call(np.int64(valid))) == _plain(call(valid))


class TestIsqrt:
    def test_squares_and_neighbours(self):
        # k^2 - 1, k^2 and k^2 + 1 for every k <= 2^26, and for the top 2^16
        # k below 2^31, where k^2 + 1 nears 2^62
        assert _isqrt(np.array([0, 1, 2, 3])).tolist() == [0, 1, 1, 1]
        top = 2**26 + 1
        blocks = [np.arange(lo, min(lo + 2**20, top)) for lo in range(1, top, 2**20)]
        blocks.append(np.arange(2**31 - 2**16, 2**31))
        for k in blocks:
            v = k * k
            assert np.array_equal(_isqrt(v), k)
            v += 1
            assert np.array_equal(_isqrt(v), k)
            v -= 2
            assert np.array_equal(_isqrt(v), k - 1)
        # the identities above are what math.isqrt says
        for k in (1, 2, 3, 2**26, 2**31 - 1):
            assert [math.isqrt(k * k + d) for d in (-1, 0, 1)] == [k - 1, k, k]

    def test_random_below_2_62(self):
        rng = np.random.default_rng(5)
        uniform = rng.integers(0, 2**62, 10**5)
        scaled = uniform >> rng.integers(0, 62, 10**5)  # every magnitude
        for v in (uniform, scaled):
            assert _isqrt(v).tolist() == [math.isqrt(n) for n in v.tolist()]


def spf_sieve(N):
    """Smallest-prime-factor table for 0..N (spf[0] = 0, spf[1] = 1): the
    factor table of the SPF route below."""
    spf = np.zeros(N + 1, dtype=np.int32)
    if N >= 1:
        spf[1] = 1
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p:: p]
            sl[sl == 0] = p
    # untouched entries are primes above sqrt(N) (and index 0): spf[n] = n
    np.copyto(spf, np.arange(N + 1, dtype=np.int32), where=spf == 0)
    return spf


def factorize(n, spf):
    """Prime factorization of n using a precomputed SPF table."""
    if n < 1 or n >= len(spf):
        raise DomainError(f"n = {n} outside the SPF table range")
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def spf_route_s2(N):
    """The smallest-prime-factor route that the sqrt(N) sieve replaced: the oracle."""
    if N < 3:
        return np.ones(N + 1, dtype=np.uint8)
    spf = spf_sieve(N)
    idx = np.arange(3, N + 1, 4, dtype=np.int32)
    p3 = idx[spf[3::4] == idx]
    acc = np.zeros(N + 1, dtype=np.int8)
    for p in map(int, p3):
        pe = p
        sign = 1
        while pe <= N:
            acc[pe::pe] += sign
            sign = -sign
            pe *= p
    return (acc == 0).view(np.uint8)


# 0..399; p^2 - 1, p^2, p^2 + 1 for the primes p = 3 (mod 4) up to 83, whose
# squares are where a prime first needs its second power; and larger sizes
# across block edges
_P3 = [p for p in range(3, 84, 4) if all(p % d for d in range(2, math.isqrt(p) + 1))]
_ORACLE_SIZES = (
    list(range(400))
    + [p * p + d for p in _P3 for d in (-1, 0, 1)]
    + [10**5, 2**20, 10**6 + 1, 9_975_792]
)


def test_multiplicative_matches_spf_route():
    assert len(_P3) == 13 and len(_ORACLE_SIZES) == 443
    for N in _ORACLE_SIZES:
        bits = sieve_s2_multiplicative(N).bits
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, spf_route_s2(N)), N


class TestSpf:
    def test_table(self):
        spf = spf_sieve(30)
        assert spf[0] == 0 and spf[1] == 1
        assert spf[2] == 2 and spf[17] == 17  # primes map to themselves
        assert spf[12] == 2 and spf[15] == 3 and spf[25] == 5

    def test_factorize(self):
        spf = spf_sieve(1000)
        assert factorize(360, spf) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(1, spf) == []
        assert factorize(997, spf) == [(997, 1)]
        for n in range(1, 200):
            assert math.prod(p**e for p, e in factorize(n, spf)) == n

    def test_factorize_range(self):
        spf = spf_sieve(10)
        with pytest.raises(DomainError):
            factorize(0, spf)
        with pytest.raises(DomainError):
            factorize(11, spf)


class TestCountSeries:
    def test_known_counts(self):
        table = sieve_s2_additive(100)
        series = count_series(table, [0, 10, 100])
        # 44 members of A001481 in [0, 100], 0 included
        assert series.entries == ((0, 1), (10, 8), (100, 44))
        nz = sieve_s2_nonzero(100)
        assert count_series(nz, [10]).entries == ((10, 4),)

    def test_matches_full_cumsum(self):
        # the full int64 cumsum is the reference for the blockwise counts
        rng = np.random.default_rng(7)
        for limit in (0, 1, 2 * _BLOCK + 3):
            bits = rng.integers(0, 2, limit + 1, dtype=np.uint8)
            cum = np.cumsum(bits, dtype=np.int64)
            table = SieveTable(limit, bits, "random")
            for _ in range(5):
                cps = [int(n) for n in rng.integers(0, limit + 1, 6)]
                cps += [0, limit, cps[0], limit]  # ends and repeats, unsorted
                rng.shuffle(cps)
                expect = tuple((n, int(cum[n])) for n in cps)
                assert count_series(table, cps).entries == expect

    def test_empty_and_bounds(self):
        table = sieve_s2_additive(10)
        assert count_series(table, []).entries == ()
        with pytest.raises(DomainError):
            count_series(table, [11])
        with pytest.raises(DomainError):
            count_series(table, [-1])


class TestLrEstimates:
    def test_sieve_formula(self):
        series = CountSeries(((100, 43),))
        (est,) = lr_estimate_sieve(series)
        assert est.method == "sieve"
        assert est.parameter == 100
        assert est.value == pytest.approx(43 * math.sqrt(math.log(100)) / 100)
        assert est.tail_bound is None

    def test_sieve_rejects_small_n(self):
        with pytest.raises(DomainError):
            lr_estimate_sieve(CountSeries(((2, 2),)))

    def test_sieve_estimate_descends_toward_constant(self):
        table = sieve_s2_additive(10**6)
        ests = lr_estimate_sieve(count_series(table, [10**4, 10**5, 10**6]))
        values = [e.value for e in ests]
        assert values[0] > values[1] > values[2] > LR_CONSTANT
        assert 0.76 < values[2] < 0.90

    def test_euler_exact_small_cases(self):
        # only p = 3 contributes below 5: K = sqrt(0.5/(1 - 1/9)) = 3/4
        assert lr_euler_product(3).value == 0.75
        assert lr_euler_product(4).value == 0.75
        # no primes = 3 (mod 4) at or below 2
        assert lr_euler_product(2).value == math.sqrt(0.5)

    def test_euler_converges_to_literature_value(self):
        est = lr_euler_product(10**6)
        assert est.tail_bound is not None and est.tail_bound < 1.1e-6
        # truncation only omits factors > 1, so the value sits just below K
        assert LR_CONSTANT - est.tail_bound < est.value < LR_CONSTANT

    def test_euler_monotone_in_p(self):
        v1 = lr_euler_product(10**3)
        v2 = lr_euler_product(10**4)
        assert v1.value < v2.value < LR_CONSTANT
        assert v1.tail_bound > v2.tail_bound

    def test_euler_rejects(self):
        with pytest.raises(DomainError):
            lr_euler_product(1)
        with pytest.raises(ResourceError):
            lr_euler_product(10**7, mem_budget=1024)

    @pytest.mark.parametrize("P", [2, 3, 4, 1000, 10**6])
    def test_euler_matches_full_mask_product(self, P):
        f = np.nonzero(full_prime_mask(P)[3::4])[0].astype(np.float64)
        f *= 4.0
        f += 3.0
        f *= f
        np.divide(1.0, f, out=f)
        np.subtract(1.0, f, out=f)
        want = math.sqrt(0.5 / (float(np.prod(f)) if f.size else 1.0))
        assert float.hex(lr_euler_product(P).value) == float.hex(want)


def full_prime_mask(P):
    """Eratosthenes over 0..P, one byte per integer: the oracle of the odd-only mask."""
    mask = np.ones(P + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(P) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return mask


def test_odd_prime_mask_matches_full_mask():
    # 2^20 k + d: the edges of segments of 2^19 odd numbers
    edges = [(k << 20) + d for k in (1, 2, 3) for d in range(-3, 4)]
    for P in [*range(301), 10**6 - 1, 10**6, 10**6 + 1, *edges]:
        got = numtheory._prime_mask(P)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, full_prime_mask(P)[1::2], err_msg=f"P = {P}")


def diff_bound_full(bits, bits_nz):
    """diff_bound_check over whole-length int64 arrays: the test oracle."""
    B = np.cumsum(bits, dtype=np.int64)
    Bp = np.cumsum(bits_nz, dtype=np.int64)
    diff = np.abs(B - Bp)
    n = np.arange(len(bits), dtype=np.int64)
    root = np.sqrt(n.astype(np.float64)).astype(np.int64)
    root += (root + 1) * (root + 1) <= n
    root -= root * root > n
    bad = diff > root + 1
    first = int(np.flatnonzero(bad)[0]) if bad.any() else None
    return first, int(diff.max())


class TestDiffBound:
    def test_equality_case_at_ten(self):
        # B(10) = 8, B'(10) = 4: diff 4 == floor(sqrt(10)) + 1
        first, max_diff = diff_bound_check(10)
        assert first is None
        assert max_diff == 4

    def test_n_zero(self):
        assert diff_bound_check(0) == (None, 1)

    def test_holds_to_ten_thousand(self):
        first, max_diff = diff_bound_check(10**4)
        assert first is None
        assert max_diff <= math.isqrt(10**4) + 1

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            diff_bound_check(-1)

    def test_blockwise_matches_full_arrays(self):
        N = 3 * _BLOCK + 5
        got = diff_bound_check(N)
        assert got == diff_bound_full(sieve_s2_additive(N).bits, sieve_s2_nonzero(N).bits)
        assert got[0] is None

    @pytest.mark.parametrize("N", [0, 1, 10, _SEG - 1, _SEG, _SEG + 1, 2 * _SEG + 5])
    def test_segment_edges_match_full_arrays(self, N):
        got = diff_bound_check(N)
        assert got == diff_bound_full(sieve_s2_additive(N).bits, sieve_s2_nonzero(N).bits)

    @pytest.mark.parametrize("start, length", [
        (2 * _BLOCK + 100, 3000),  # inside a later block
        (2 * _BLOCK - 500, 1400),  # crossing into it: seen only through the carry
    ])
    def test_planted_violation_in_later_block(self, monkeypatch, start, length):
        # on real data the bound always holds; extra members of the nonzero
        # table drive |B - B'| past floor(sqrt(n)) + 1 far from 0
        N = 3 * _BLOCK + 5
        nz = sieve_s2_nonzero(N).bits.copy()
        nz[start:start + length] = 1
        real = numtheory._s2_segments

        def planted(n, x0):
            for lo, seg in real(n, x0):
                if x0 == 1:
                    seg[max(start - lo, 0):max(start + length - lo, 0)] = 1
                yield lo, seg

        monkeypatch.setattr(numtheory, "_s2_segments", planted)
        got = diff_bound_check(N)
        assert got == diff_bound_full(sieve_s2_additive(N).bits, nz)
        assert got[0] is not None and got[0] >= 2 * _BLOCK

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plants_match_full_arrays(self, monkeypatch, seed):
        # extra members in either table: B - B' goes negative as well as past
        # the bound, from sparse and from dense runs of changes
        rng = np.random.default_rng(seed)
        N = int(rng.choice([5, 300, _BLOCK + 3, _SEG - 1, 2 * _SEG + 5]))
        tables = {0: sieve_s2_additive(N).bits.copy(), 1: sieve_s2_nonzero(N).bits.copy()}
        for _ in range(int(rng.integers(1, 6))):
            bits = tables[int(rng.integers(2))]
            lo = int(rng.integers(N + 1))
            hi = lo + int(rng.integers(1, 4 * math.isqrt(N) + 3))
            bits[lo:hi] |= rng.random(bits[lo:hi].size) < rng.choice([0.1, 1.0])

        def served(n, x0):
            for lo in range(0, n + 1, _SEG):
                yield lo, tables[x0][lo:lo + _SEG]

        monkeypatch.setattr(numtheory, "_s2_segments", served)
        assert diff_bound_check(N) == diff_bound_full(tables[0], tables[1])


def double_loop_check(table, bound):
    """The pair-by-pair loop that the blocked vector check replaced: the oracle."""
    bits = table.bits[:bound * bound + 1].tobytes()
    for p in range(1, bound + 1):
        for q in range(p, bound + 1):
            if math.gcd(p, q) == 1 and (bits[p] & bits[q]) != bits[p * q]:
                return (p, q)
    return None


class TestMultiplicativity:
    def test_clean_table_has_no_counterexample(self):
        table = sieve_s2_additive(10**4)
        assert multiplicativity_check(table, 100) is None

    def test_corrupted_table_is_caught(self):
        table = sieve_s2_additive(10**4)
        bad = SieveTable(table.limit, table.bits.copy(), table.kind)
        bad.bits[25] ^= 1  # 25 = 3^2 + 4^2, now wrongly marked non-member
        hit = multiplicativity_check(bad, 100)
        assert hit == (2, 25)
        p, q = hit
        assert math.gcd(p, q) == 1
        assert bad.bit(p) & bad.bit(q) != bad.bit(p * q)

    def test_matches_double_loop_on_corrupted_tables(self):
        rng = np.random.default_rng(9)
        clean = sieve_s2_additive(60 * 60)
        for trial in range(300):
            bound = int(rng.integers(1, 61))
            bits = clean.bits.copy()
            if trial % 3 == 0:
                # the only bad entry sits at some p q, so no smaller pair sees it
                p, q = (int(v) for v in rng.integers(1, bound + 1, 2))
                bits[p * q] ^= 1
            else:
                flips = rng.integers(0, bound * bound + 1, int(rng.integers(1, 4)))
                bits[flips] ^= 1
            table = SieveTable(clean.limit, bits, "corrupted")
            assert multiplicativity_check(table, bound) == double_loop_check(table, bound), trial

    @pytest.mark.parametrize("block", [64, 4096, _BLOCK])
    def test_matches_double_loop_across_row_blocks(self, monkeypatch, block):
        # rows p go in blocks of about `block` pairs, so these bounds end
        # blocks of one and of several rows, on and off a block edge
        clean = sieve_s2_additive(200 * 200)
        monkeypatch.setattr(numtheory, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for bound in (63, 64, 65, 129, 200):
            for trial in range(12):
                bits = clean.bits.copy()
                if trial % 3 == 0:
                    p, q = (int(v) for v in rng.integers(1, bound + 1, 2))
                    bits[p * q] ^= 1
                elif trial % 3 == 1:
                    flips = rng.integers(0, bound * bound + 1, int(rng.integers(1, 4)))
                    bits[flips] ^= 1
                table = SieveTable(clean.limit, bits, "corrupted")
                want = double_loop_check(table, bound)
                assert multiplicativity_check(table, bound) == want, (bound, trial)

    def test_skips_a_first_mismatch_that_is_not_coprime(self):
        # with p, q <= 10, 81 is only 9 * 9 and 90 only 9 * 10: flipping both
        # makes (9, 9) the first mismatch and (9, 10) the first coprime one
        table = sieve_s2_additive(100)
        bits = table.bits.copy()
        bits[[81, 90]] ^= 1
        bad = SieveTable(table.limit, bits, "corrupted")
        assert multiplicativity_check(bad, 10) == double_loop_check(bad, 10) == (9, 10)

    def test_transients_stay_within_a_block(self):
        table = sieve_s2_multiplicative(9 * 10**6)
        multiplicativity_check(table, 10)  # fills interpreter caches
        tracemalloc.start()
        try:
            got = multiplicativity_check(table, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is None
        # the 4.5 * 10^6 pairs at once would take tens of MiB
        assert peak <= 16 * _BLOCK

    def test_rejects(self):
        table = sieve_s2_additive(100)
        with pytest.raises(DomainError):
            multiplicativity_check(table, 0)
        with pytest.raises(DomainError):
            multiplicativity_check(table, 11)  # 121 > 100


# --- properties -------------------------------------------------------------

_TABLE = sieve_s2_additive(10**6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 1000))
def test_multiplicativity_random_pairs(p, q):
    if math.gcd(p, q) == 1:
        assert _TABLE.bit(p) & _TABLE.bit(q) == _TABLE.bit(p * q)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_membership_random_vs_brute(n):
    assert _TABLE.bit(n) == brute_s2(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 998))
def test_count_series_is_cumulative(n):
    series = count_series(_TABLE, [n, n + 1])
    (a_n, b_n), (_, b_next) = series.entries
    assert b_next - b_n == _TABLE.bit(n + 1)
