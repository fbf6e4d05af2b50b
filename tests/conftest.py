"""Shared morphism suite, count-vector, N_k, Perron value and odd quarter map
oracles and repo paths for the test modules."""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest

from morphcert.errors import DomainError, NonConvergence
from morphcert.words import Alphabet, Morphism, MorphicSystem

REPO_ROOT = Path(__file__).resolve().parent.parent
MORPHISM_DIR = REPO_ROOT / "morphisms"

GOLDEN = (1 + 5**0.5) / 2


def make_system(letters, rules, start, coding=None) -> MorphicSystem:
    m = Morphism.from_rules(Alphabet(tuple(letters)), rules)
    return MorphicSystem.build(m, start, coding)


def make_morphism(letters, rules) -> Morphism:
    return Morphism.from_rules(Alphabet(tuple(letters)), rules)


def ref_count_matrix(m: Morphism) -> tuple[tuple[int, ...], ...]:
    """rows[t][s] = img.count(t) for the image of letter s: one scan per entry,
    the oracle of Morphism.count_matrix."""
    return tuple(tuple(img.count(t) for img in m.images) for t in range(m.d))


def count_vectors(rows: Sequence[Sequence[int]], w: bytes) -> Iterator[list[int]]:
    """Exact letter counts of w, phi(w), phi^2(w), ... by the dense recurrence
    c <- M c, where rows is m.count_matrix of phi: the oracle of the per-letter
    level rows, the level counts and the growth fits. The stream is endless."""
    d = len(rows)
    c = [w.count(t) for t in range(d)]
    while True:
        yield c
        c = [sum(rows[t][s] * c[s] for s in range(d)) for t in range(d)]


def ref_perron_value(sub, tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Power iteration on sub + I with numpy's ndarray.min, max and sum: the
    oracle of spectral.perron_value, float for float, NonConvergence included."""
    a = np.asarray(sub, dtype=float)
    n = a.shape[0]
    b = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = b @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi) - 1.0
        x = y / y.sum()
    raise NonConvergence(f"power iteration missed tolerance {tol} after {max_iter} iterations")


def ref_quarter_segments(T: int, length: int = 2**22) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, seg) over t <= T in segments of the given length: seg[i] = 1 iff
    lo + i = a^2 + b(b + 1) for some a, b >= 0, that is iff 4 (lo + i) + 1 is
    the odd sum of two squares (2a)^2 + (2b + 1)^2. Additive marking, row a
    by row: the oracle of numtheory._quarter_segments' strikes."""
    for lo in range(0, T + 1, length):
        hi = min(lo + length, T + 1)
        seg = np.zeros(hi - lo, dtype=np.uint8)
        a = 0
        while a * a < hi:
            # row a marks the b with lo <= a^2 + b(b + 1) < hi, and
            # b(b + 1) <= x iff b <= (isqrt(4x + 1) - 1) / 2
            below = lo - 1 - a * a
            b = np.arange(0 if below < 0 else (math.isqrt(4 * below + 1) + 1) // 2,
                          (math.isqrt(4 * (hi - 1 - a * a) + 1) + 1) // 2, dtype=np.int64)
            b *= b + 1
            b += a * a - lo
            seg[b] = 1
            a += 1
        yield lo, seg


def ref_s2_counts(checkpoints: Sequence[int]) -> list[int]:
    """B(N) at each checkpoint N from ref_quarter_segments: 1 for n = 0, and
    Q(((N >> j) - 1) >> 2) for the members 2^j (4t + 1) <= N, where Q(t)
    counts the marked t' <= t."""
    ts = sorted({((N >> j) - 1) >> 2 for N in checkpoints for j in range(N.bit_length())})
    Q, total, i = {}, 0, 0
    for lo, seg in ref_quarter_segments(ts[-1] if ts else 0):
        start = 0
        while i < len(ts) and ts[i] < lo + seg.size:
            end = ts[i] + 1 - lo
            total += int(np.count_nonzero(seg[start:end]))
            Q[ts[i]], start, i = total, end, i + 1
        total += int(np.count_nonzero(seg[start:]))
    return [1 + sum(Q[((N >> j) - 1) >> 2] for j in range(N.bit_length())) for N in checkpoints]


@dataclass(frozen=True)
class CheckpointSeries:
    """Exact lengths N_k = |phi^k(b)| as (k, N_k) pairs."""

    entries: tuple[tuple[int, int], ...]

    def lengths(self) -> list[int]:
        return [n for _, n in self.entries]


def checkpoints(sys: MorphicSystem, kmax: int) -> CheckpointSeries:
    """Exact N_k = |phi^k(start)| for k = 0..kmax via big-integer count vectors:
    the N_k oracle of the word and level-count tests."""
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    vectors = count_vectors(sys.morphism.count_matrix, bytes([sys.start]))
    return CheckpointSeries(tuple(
        (k, sum(counts)) for k, counts in enumerate(islice(vectors, kmax + 1))
    ))


def thue_morse() -> MorphicSystem:
    return make_system("01", {"0": ["0", "1"], "1": ["1", "0"]}, "0")


def fibonacci() -> MorphicSystem:
    return make_system(
        "ab", {"a": ["a", "b"], "b": ["a"]}, "a", coding={"a": "0", "b": "1"}
    )


def column() -> MorphicSystem:
    # |phi^k(a)| = k + 1
    return make_system("ab", {"a": ["a", "b"], "b": ["b"]}, "a")


def chain() -> MorphicSystem:
    # |phi^k(a)| = 1 + k + k(k-1)/2
    return make_system(
        "abc", {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]}, "a"
    )


def doubling() -> MorphicSystem:
    return make_system("ab", {"a": ["a", "a", "b"], "b": ["b", "b"]}, "a")


def swap() -> Morphism:
    # not prolongable: only usable at the Morphism level
    return make_morphism("ab", {"a": ["b"], "b": ["a"]})


def counting_suite() -> list[tuple[str, Morphism]]:
    """The six-morphism suite used by the exact-counting and growth checks."""
    return [
        ("thue_morse", thue_morse().morphism),
        ("fibonacci", fibonacci().morphism),
        ("column", column().morphism),
        ("chain", chain().morphism),
        ("doubling", doubling().morphism),
        ("swap", swap()),
    ]


@pytest.fixture
def matrix_builds(monkeypatch):
    """One entry per count matrix built, naming the morphism it was built for."""
    builds, build = [], Morphism.count_matrix.func

    def counted(m):
        builds.append(m)
        return build(m)

    spy = cached_property(counted)
    spy.__set_name__(Morphism, "count_matrix")
    monkeypatch.setattr(Morphism, "count_matrix", spy)
    return builds


@pytest.fixture
def tm() -> MorphicSystem:
    return thue_morse()


@pytest.fixture
def fib() -> MorphicSystem:
    return fibonacci()
