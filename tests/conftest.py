"""Shared morphism suite, count-vector and N_k oracles and repo paths for the test modules."""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from morphcert.errors import DomainError
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
