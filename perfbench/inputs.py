"""Seeded inputs: random prolongable morphisms and the size draws.

Everything here is computed with the benchmark's own exact integer code, never
with morphcert, so the program under test receives only these generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

SAMPLES = ("thue_morse", "fibonacci", "doubling", "chain", "column")


@dataclass(frozen=True)
class MorphSpec:
    """A morphism as written to a file: letter names, images, start, coding."""

    name: str
    letters: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]
    start: int
    coding: tuple[str, ...]

    @property
    def d(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        lines = [f"# {self.name}", "letters: " + " ".join(self.letters),
                 f"start: {self.letters[self.start]}",
                 "coding: " + " ".join(f"{a}={s}" for a, s in zip(self.letters, self.coding))]
        for a, img in zip(self.letters, self.images):
            lines.append(f"{a} -> " + " ".join(self.letters[i] for i in img))
        return "\n".join(lines) + "\n"

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.morph"
        path.write_text(self.text(), encoding="utf-8")
        return path

    def matrix(self) -> list[list[int]]:
        """Incidence matrix, entry [t][s] = occurrences of t in the image of s."""
        return [[img.count(t) for img in self.images] for t in range(self.d)]

    def targets(self, symbol: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.coding) if s == symbol)


def read_sample(path: Path) -> MorphSpec:
    """Parse one of the repository's sample files (a small subset of the format)."""
    letters: list[str] = []
    start = ""
    coding: dict = {}
    rules: dict = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("letters:"):
            letters = line[len("letters:"):].split()
        elif line.startswith("start:"):
            start = line[len("start:"):].strip()
        elif line.startswith("coding:"):
            coding = dict(tok.split("=", 1) for tok in line[len("coding:"):].split())
        else:
            left, _, right = line.partition("->")
            rules[left.strip()] = right.split()
    index = {a: i for i, a in enumerate(letters)}
    images = tuple(tuple(index[b] for b in rules[a]) for a in letters)
    return MorphSpec(path.stem, tuple(letters), images, index[start],
                     tuple(coding.get(a, a) for a in letters))


def random_morphism(rng: random.Random, name: str, d: int, image_lengths: tuple,
                    symbols: int) -> MorphSpec:
    """A primitive prolongable morphism on d letters, coded evenly onto `symbols` symbols.

    A random cyclic order of the letters puts each letter's successor in its
    image, so every letter reaches every other; the start image begins with
    the start letter and has length >= 2, so the incidence matrix is primitive
    and alpha > 1. The image lengths are `image_lengths` repeated to d and
    shuffled, so their total, and with it alpha and the number of checkpoints
    below a size, varies little from seed to seed; the other image letters
    are random. The coding gives each symbol the same number of letters (up
    to one), since counting costs grow with the letters behind a symbol.
    alpha = 1 and multi-component structure come from the sample files.
    """
    letters = tuple(f"x{i}" for i in range(d))
    order = [0] + rng.sample(range(1, d), d - 1)
    succ = {order[i]: order[(i + 1) % d] for i in range(d)}
    lengths = [image_lengths[i % len(image_lengths)] for i in range(d)]
    rng.shuffle(lengths)
    long = next(i for i, n in enumerate(lengths) if n >= 2)
    lengths[0], lengths[long] = lengths[long], lengths[0]
    images = []
    for i, n in enumerate(lengths):
        img = [rng.randrange(d) for _ in range(n)]
        img[rng.randrange(1, n) if i == 0 else rng.randrange(n)] = succ[i]
        if i == 0:
            img[0] = 0
        images.append(tuple(img))
    coding = [str(i % symbols) for i in range(d)]
    rng.shuffle(coding)
    return MorphSpec(name, letters, tuple(images), 0, tuple(coding))


def level_vectors(spec: MorphSpec, counts):
    """counts, M counts, M^2 counts, ...: the letter counts of phi^k(w), k = 0, 1, ...

    `counts` are the letter counts of w. Every walk over levels steps this
    recurrence; `level_at` jumps to one level instead.
    """
    M = spec.matrix()
    c = list(counts)
    while True:
        yield c
        c = [sum(row[s] * c[s] for s in range(spec.d)) for row in M]


def unit(spec: MorphSpec, letter: int) -> list[int]:
    """The letter counts of the one-letter word `letter`."""
    return [int(t == letter) for t in range(spec.d)]


def level_at(spec: MorphSpec, k: int) -> list[int]:
    """The letter counts of phi^k(start), by repeated squaring of the incidence matrix.

    alpha = 1 words have up to 2^21 levels below the benchmark's sizes, too
    many to walk one by one.
    """
    d = len(spec.letters)
    result = [[int(i == j) for j in range(d)] for i in range(d)]
    base = spec.matrix()
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        k >>= 1
    return [result[t][spec.start] for t in range(d)]


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def max_level(spec: MorphSpec, n: int) -> int:
    """Largest k with N_k <= n (N_k strictly increases for a prolongable start)."""
    lo, hi = 0, 1
    while sum(level_at(spec, hi)) <= n:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(level_at(spec, mid)) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def spread_levels(kmax: int, count: int) -> list[int]:
    """About `count` levels 1..kmax, all of them when few, else geometric."""
    if kmax <= count:
        return list(range(1, kmax + 1))
    return sorted({max(1, round(kmax ** (i / (count - 1)))) for i in range(count)})


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def strata(rng: random.Random, lo: float, hi: float, count: int, offset: int) -> list[float]:
    """`count` log-uniform draws, one near the middle of each equal log-width stratum.

    Draw i comes from stratum (i + offset) mod count, so input i gets the same
    size class in every round and with every seed: rounds then have the same
    spread of sizes and the same pairing of inputs to sizes.
    """
    width = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + width * ((i + offset) % count + 0.4 + 0.2 * rng.random()))
            for i in range(count)]
