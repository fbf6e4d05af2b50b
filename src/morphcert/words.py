"""Morphisms over finite alphabets: parsing, iteration, fixed-point streaming.

Words are stored as ``bytes`` with one letter index per byte, which caps
alphabets at 256 letters; public entry points accept letter identifiers
(strings) and translate at the boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ParseError,
    ResourceError,
    UnknownSymbol,
    ValidationError,
    _length,
)

Word = bytes

MAX_LETTERS = 256
DEFAULT_ITERATE_CAP = 10**8
_TABLE_LETTERS = 2**20  # iterate's image tables, all powers together
_STEP_WIDTH = 8  # longest image _block_step translates; past it, the join

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct letter identifiers; index i is the wire format."""

    letters: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("alphabet must be nonempty")
        if len(self.letters) > MAX_LETTERS:
            raise ValidationError(
                f"alphabet has {len(self.letters)} letters; at most {MAX_LETTERS} supported"
            )
        index: dict = {}
        for i, lid in enumerate(self.letters):
            if not isinstance(lid, str) or not _ID_RE.match(lid):
                raise ValidationError(f"bad letter identifier {lid!r}")
            if lid in index:
                raise ValidationError(f"duplicate letter {lid!r}")
            index[lid] = i
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._index

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ValidationError(f"unknown letter {letter!r}") from None

    def encode(self, letters: Iterable[str]) -> Word:
        return bytes(self.index(lid) for lid in letters)

    def decode(self, word: Word) -> list[str]:
        return [self.letters[b] for b in word]


@dataclass(frozen=True)
class Morphism:
    """Non-erasing morphism: one image word per letter, same alphabet."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        d = self.alphabet.size
        if len(self.images) != d:
            raise ValidationError("need exactly one image per letter")
        for lid, img in zip(self.alphabet.letters, self.images):
            if not isinstance(img, bytes):
                raise ValidationError(f"image of {lid!r} must be a byte word")
            if len(img) == 0:
                raise ValidationError(f"erasing rule: image of {lid!r} is empty")
            if max(img) >= d:
                raise ValidationError(f"image of {lid!r} uses an out-of-range letter index")

    @classmethod
    def from_rules(cls, alphabet: Alphabet, rules: Mapping[str, Sequence[str]]) -> "Morphism":
        for lid in rules:
            if lid not in alphabet:
                raise ValidationError(f"rule for unknown letter {lid!r}")
        missing = [lid for lid in alphabet.letters if lid not in rules]
        if missing:
            raise ValidationError(f"missing rule for letter {missing[0]!r}")
        images = tuple(alphabet.encode(rules[lid]) for lid in alphabet.letters)
        return cls(alphabet, images)

    @property
    def d(self) -> int:
        return self.alphabet.size

    def image(self, letter) -> Word:
        return self.images[_letter_index(self, letter)]

    @cached_property
    def count_matrix(self) -> tuple[tuple[int, ...], ...]:
        """rows[t][s] = occurrences of letter t in the image of letter s."""
        rows = [[0] * self.d for _ in range(self.d)]
        for s, img in enumerate(self.images):
            for t in img:
                rows[t][s] += 1
        return tuple(map(tuple, rows))


def _letter_index(m: Morphism, a) -> int:
    """Accept a letter identifier or a raw index; return the index."""
    if isinstance(a, bool):  # an int to isinstance, but no letter
        raise ValidationError(f"letter {a!r} is neither an identifier nor an index")
    if isinstance(a, int):
        if not 0 <= a < m.d:
            raise ValidationError(f"letter index {a} outside alphabet of size {m.d}")
        return a
    return m.alphabet.index(a)


def is_prolongable(m: Morphism, a) -> bool:
    """True iff phi(a) begins with a and has length >= 2 (nonempty tail)."""
    i = _letter_index(m, a)
    img = m.images[i]
    return len(img) >= 2 and img[0] == i


@dataclass(frozen=True)
class MorphicSystem:
    """Prolongable morphism plus a start letter and a total coding."""

    morphism: Morphism
    start: int
    coding: tuple[str, ...]
    _reached: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.morphism
        if not isinstance(self.start, int) or not 0 <= self.start < m.d:
            raise ValidationError("start letter outside alphabet")
        if not is_prolongable(m, self.start):
            raise ValidationError(
                f"start letter {m.alphabet.letters[self.start]!r} is not prolongable: "
                "its image must begin with it and have length >= 2"
            )
        if len(self.coding) != m.d:
            raise ValidationError("coding must assign a symbol to every letter")
        for sym in self.coding:
            if not isinstance(sym, str) or not sym or any(ch.isspace() for ch in sym):
                raise ValidationError(f"bad output symbol {sym!r}")
        object.__setattr__(self, "_reached", _reached_images(m.images, [self.start]))

    @classmethod
    def build(
        cls,
        morphism: Morphism,
        start,
        coding: Mapping[str, str] | None = None,
    ) -> "MorphicSystem":
        idx = _letter_index(morphism, start)
        if coding is None:
            symbols = morphism.alphabet.letters
        else:
            for lid in coding:
                morphism.alphabet.index(lid)
            # letters without an explicit entry keep their own identifier
            symbols = tuple(coding.get(lid, lid) for lid in morphism.alphabet.letters)
        return cls(morphism, idx, tuple(symbols))

    @property
    def start_id(self) -> str:
        return self.morphism.alphabet.letters[self.start]

    def symbols(self) -> tuple[str, ...]:
        """Distinct output symbols, ordered by first occurrence over letter indices."""
        return tuple(dict.fromkeys(self.coding))

    def letters_for(self, symbol: str) -> tuple[int, ...]:
        hits = tuple(i for i, s in enumerate(self.coding) if s == symbol)
        if not hits:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the coding range")
        return hits


def _reached_images(images: Sequence[Word], letters: Iterable[int]) -> tuple[Word, ...]:
    """images, with b"" for every letter no phi^k(letters) holds: a level walk
    over them keeps those at 0 from level 1 on. Images are non-erasing, so
    the reached letters are exactly those with a nonempty image here."""
    reach = frontier = set(letters)
    while frontier:
        frontier = set().union(*map(images.__getitem__, frontier)) - reach
        reach |= frontier
    return tuple(img if a in reach else b"" for a, img in enumerate(images))


def _level_rows(images: Sequence[Word], row: list[int]) -> Iterator[list[int]]:
    """row, then one row per level k = 1, 2, ...: entry a of level k is the sum
    of row over the letters of phi^k(a).

    From all ones it gives |phi^k(a)|; from the indicator of some letters, how
    many of them phi^k(a) holds. A step costs sum |phi(a)| additions. The
    stream is endless, so callers bound it; each row is a fresh list.
    """
    while True:
        yield row
        get = row.__getitem__
        row = [sum(map(get, img)) for img in images]


def _apply(images: Sequence[Word], w: Word) -> Word:
    """phi(w), joined 4096 letters at a time.

    bytes.join first turns a generator into one list entry per letter; joining
    slices keeps that transient at one slice, so the peak is about 2|phi(w)|.
    """
    return b"".join([
        b"".join([images[ch] for ch in w[i:i + 4096]]) for i in range(0, len(w), 4096)
    ])


def _block_step(images: Sequence[Word]) -> Callable[[Word], Word]:
    """w -> phi(w) in a few bytes passes, for words of the letters with a
    nonempty image here.

    With L the longest image, table p sends a letter to byte p of its image,
    or to a filler byte that no image holds if the image is shorter. phi(w)
    is out[p::L] = w.translate(table p) for p < L in one bytearray(L |w|),
    then out.translate(None, filler); images all of length L need no filler
    and no delete. At most two buffers of up to L |w| bytes live at once
    (the bytearray and the delete's result, then that result and its bytes
    copy), so it peaks at about |w| + 2 L |w| bytes, as _apply does. It
    falls back to _apply when no byte is free for the filler (256 letters
    with uneven images) or when L passes _STEP_WIDTH: on uneven images the
    step took 0.5 to 0.9 of the join's time at L = 8, and up to 1.25 of it
    at L = 10 and 1.5 at L = 12.
    """
    width = max(map(len, images))
    free = set(range(MAX_LETTERS)).difference(*images)
    uniform = all(len(img) in (0, width) for img in images)
    if width > _STEP_WIDTH or not (uniform or free):
        return partial(_apply, images)
    filler = bytes([min(free, default=0)])
    tables = [
        b"".join(img[p:p + 1] or filler for img in images).ljust(MAX_LETTERS, filler)
        for p in range(width)
    ]

    def step(w: Word) -> Word:
        out = bytearray(width * len(w))
        for p, table in enumerate(tables):
            out[p::width] = w.translate(table)
        if not uniform:
            out = out.translate(None, filler)
        return bytes(out)

    return step


def iterate(m: Morphism, w: Word, k: int, *, max_len: int = DEFAULT_ITERATE_CAP) -> Word:
    """Return phi^k(w), refusing to materialize more than max_len letters.

    The length of every level up to k, sum over letters a of
    |w|_a |phi^j(a)|, is predicted from the per-letter lengths before
    anything is built. Then image tables T_s = (phi^s(a) for each letter a)
    are squared, T_2s(a) = T_s(T_s(a)), for s = 1, 2, 4, ... while 2s <= k
    and the tables stay small: all of them together hold at most
    min(|phi^k(w)|, 2^20) letters, and T_s holds exactly sum |phi^s(a)|,
    read off the lengths before it is built. T_s is applied once for each
    set bit s of k below the largest table, lowest first, and the largest
    table for the bits left above. Powers of phi commute, so the word is
    phi^k(w); each step reads a level phi^j(w), j < k, and writes a later one.
    The lengths and the squared tables walk _reached_images from w, so the
    letters w never reaches have lengths 0 and empty entries.
    """
    k, max_len = _length(k, "k"), _length(max_len, "max_len")
    if len(w) and max(w) >= m.d:
        raise ValidationError("word uses an out-of-range letter index")
    if k == 0 or not w:
        return w
    used = [(a, w.count(a)) for a in set(w)]
    images = _reached_images(m.images, w)
    sizes = []  # |T_s| for s = 1, 2, 4, ... <= k
    for j, lengths in enumerate(islice(_level_rows(images, [1] * m.d), 1, k + 1), 1):
        total = sum(lengths[a] * n for a, n in used)
        if total > max_len:
            raise ResourceError(
                f"iterate would produce {total} letters (cap {max_len})"
            )
        if j & (j - 1) == 0:
            sizes.append(sum(lengths))
    cap = min(total, _TABLE_LETTERS)
    table, smaller = m.images, []
    for held in islice(accumulate(sizes), 1, None):
        if held > cap:
            break
        smaller.append(table)
        # T_2s(a) = T_s(T_s(a)); images is T_s with the unreached letters empty
        table = images = tuple(_apply(table, img) for img in images)
    cur = w
    for e, t in enumerate(smaller):
        if k >> e & 1:
            cur = _apply(t, cur)
    for _ in range(k >> len(smaller)):
        cur = _apply(table, cur)
    return cur


def _prefix_blocks(sys: MorphicSystem, n: int) -> Iterator[Word]:
    """The first n letters of the fixed point lim phi^i(b), as byte blocks.

    The fixed point is b . w . phi(w) . phi^2(w) ... with phi(b) = b w, so each
    block is the image of the one before. phi is non-erasing, so the image of
    the letters still needed covers them: a block is cut to those before phi
    is applied. phi is _block_step over the images b reaches (sys._reached),
    built once per call: L + 2 bytes passes for images of at most
    _STEP_WIDTH letters, L = max |phi(a)| (Thue-Morse streams at about 5 ns
    a letter, against 22 ns for the join), and _apply's join past that
    width or when 256 reached letters with uneven images leave no filler
    byte. Block lengths never fall, and the blocks since the length last
    grew are kept; they are letters already yielded, so memory stays at
    about (1 + max |phi(a)|) n bytes (the step's bytearray holds L |w|
    bytes for a block w of at most n/2 letters) plus 100 B per kept block
    (the 6-letter blocks of the T = 30030 cycle morphism trace 1.64 MiB at
    n = 10^5, not 0.76 MiB). Once a new block equals one of them, p levels
    back, the blocks cycle with period p, so the rest of the prefix repeats
    the last p blocks; it is yielded in pieces of about 64 KiB. (If phi saw
    a cut block, fewer letters than its image remain, and the one piece
    yielded is a prefix of the image all the same.)
    """
    if n <= 0:
        return
    images = sys.morphism.images
    step = _block_step(sys._reached)
    yield bytes([sys.start])
    need = n - 1
    block = images[sys.start][1:]
    seen: dict[Word, int] = {}  # the blocks of the current length -> their order
    while need > 0:
        block = block[:need]
        yield block
        need -= len(block)
        image = step(block[:need])
        if len(image) != len(block):
            seen.clear()
        seen[block] = len(seen)
        if image in seen:
            cycle = b"".join(list(seen)[seen[image]:])
            piece = cycle * (1 + 65536 // len(cycle))
            while need > 0:
                yield piece[:need]
                need -= len(piece)
            return
        block = image


def fixed_point_stream(sys: MorphicSystem, n: int) -> list[str]:
    """First n output symbols of psi(lim phi^i(b)). Prefix-stable in n."""
    data = b"".join(_prefix_blocks(sys, _length(n, "n")))
    table = _symbol_table(sys.coding)
    if table is None:
        coding = sys.coding
        return [coding[ch] for ch in data]
    return list(data.translate(table).decode("latin-1"))


def _symbol_table(coding: Sequence[str], zero: int = 0) -> bytes | None:
    """The bytes.translate table sending letter a to ord(coding[a]) - zero,
    or None if some symbol is not one character below U+0100."""
    if all(len(s) == 1 and ord(s) < 256 for s in coding):
        return bytes(ord(s) - zero for s in coding).ljust(MAX_LETTERS, b"\0")
    return None


def count_in_prefix(sys: MorphicSystem, symbol: str, n: int) -> int:
    """Occurrences of symbol among the first n output symbols."""
    n = _length(n, "n")
    return _prefix_counts(sys, sys.letters_for(symbol), [n])[0]


def prefix_count_series(
    sys: MorphicSystem, symbol: str, checkpoints: Sequence[int]
) -> list[tuple[int, int]]:
    """(n, count) at several prefix lengths, in the order given."""
    targets = sys.letters_for(symbol)
    ns = [_length(n, "prefix length") for n in checkpoints]
    return list(zip(ns, _prefix_counts(sys, targets, ns)))


# The level tables of _prefix_counts stop at 20 MiB. A level of d letters is
# charged 2 (56 + 48 d) bytes: per table a list header, and per entry a slot,
# a spare slot and a 32 B int (any int below 2^60). chain reaches 10^9 letters
# within it: 44 722 levels, which trace 12.3 MiB.
_TABLE_BYTES = 20 * 2**20


def _prefix_counts(sys: MorphicSystem, targets: Sequence[int], ns: Sequence[int]) -> list[int]:
    """Target letters among the first n letters of the fixed point, for each n.

    Two tables hold |phi^k(a)| and the target letters in phi^k(a) per letter a
    for k < K, the least level with |phi^K(b)| >= max(ns). The first n letters
    of phi^K(b) are phi^{K-1}(p_{K-1}) ... phi(p_1) p_0 (Dumont and Thomas
    1989): a count adds the whole blocks phi^{k-1}(c) of phi(a) that fit and
    enters the next one a level down, at most K max|phi(a)| additions.

    The length rows come first. The counts stream from _prefix_blocks
    instead, with no count row built, once those rows show either of:
    - Linear growth. The increments |phi^k(b)| - |phi^{k-1}(b)| = |phi^{k-1}(w)|,
      phi(b) = b w, never fall. Once d + 1 of them are equal, every letter of
      w's blocks lies on a cycle of one-letter images, so the blocks cycle
      and stream at about 1 ns a letter. This is checked from level 16 on,
      so that short prefixes of every word descend the table.
    - A table dearer than the stream. A level takes d + sum |phi(a)|
      additions in each of the two tables, charged 4 streamed letters each,
      so 8 for both, and a level of descent for one n is charged 1: such a
      stream holds its longest block, the table only its levels. The
      charges were set against the per-letter join. Since _block_step, a
      streamed letter of a word whose blocks do not cycle takes 5 to 16 ns
      on the samples, an addition 210 to 320 ns and a level of descent about
      100 ns, so the table is charged 3 to 6 times too little; no count of
      perfbench's morphic-stream would pick otherwise at 3 times the charge,
      so it stays. The first 32768 letters' worth are free. Nor
      may the tables pass _TABLE_BYTES, 20 MiB whatever n is. Ints past
      2^60 widen it, but only in short tables: alpha > 1 words need
      O(log n) levels, and the tables walk the images b reaches
      (sys._reached), so the letters b never reaches stay 0.
    A word of polynomial degree l >= 2 needs about n^(1/l) levels, one with
    alpha > 1 about log n.
    """
    images = sys.morphism.images
    b, d, top = sys.start, len(images), max(ns, default=0)
    work = 8 * (d + sum(map(len, images))) + len(ns)  # a level's cost in streamed letters
    last = min((top + 32768) // work, _TABLE_BYTES // (2 * (56 + 48 * d)) - 1)
    first_linear = max(16, d + 1)
    len_rows = []
    for k, lengths in enumerate(_level_rows(sys._reached, [1] * d)):
        len_rows.append(lengths)
        if lengths[b] >= top:
            break
        if k > last or k >= first_linear and (
                lengths[b] - len_rows[k - 1][b] == len_rows[k - d][b] - len_rows[k - d - 1][b]):
            return _streamed_counts(sys, targets, ns)
    hits = [int(a in targets) for a in range(d)]
    del len_rows[-1]  # levels 0..K-1: level K only decided K
    count_rows = list(islice(_level_rows(sys._reached, hits), len(len_rows)))
    out = []
    for n in ns:
        a, total = b, 0
        for lengths, counts in zip(reversed(len_rows), reversed(count_rows)):
            for c in images[a]:
                if n <= lengths[c]:
                    a = c
                    break
                n -= lengths[c]
                total += counts[c]
        out.append(total + hits[a] if n else total)  # n is 0 or 1 here
    return out


def _streamed_counts(sys: MorphicSystem, targets: Sequence[int], ns: Sequence[int]) -> list[int]:
    """As _prefix_counts, in one pass over the prefix from _prefix_blocks.

    Each checkpoint counts from the one before it in the same block, so the
    pass reads every letter once, however many checkpoints a block holds.
    """
    order = sorted(range(len(ns)), key=ns.__getitem__)
    out = [0] * len(ns)
    pos = total = i = 0  # letters before the block, targets among them
    for block in _prefix_blocks(sys, max(ns)):
        cut, end = 0, pos + len(block)
        while i < len(order) and ns[order[i]] <= end:
            n = ns[order[i]] - pos
            total += sum(block.count(t, cut, n) for t in targets)
            cut, out[order[i]] = n, total
            i += 1
        total += sum(block.count(t, cut) for t in targets)
        pos = end
    return out


def parse_morphism_spec(text: str) -> MorphicSystem:
    """Parse the line-oriented morphism file format into a validated system."""
    letters: list[str] | None = None
    start: str | None = None
    coding_pairs: dict[str, str] | None = None
    rules: dict[str, list[str]] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if letters is None and not line.startswith("letters:"):
            raise ParseError(f"line {lineno}: first directive must be 'letters:'")
        if line.startswith("letters:"):
            if letters is not None:
                raise ParseError(f"line {lineno}: duplicate 'letters:' directive")
            letters = line[len("letters:"):].split()
            if not letters:
                raise ParseError(f"line {lineno}: 'letters:' lists no letters")
        elif line.startswith("start:"):
            if start is not None:
                raise ParseError(f"line {lineno}: duplicate 'start:' directive")
            toks = line[len("start:"):].split()
            if len(toks) != 1:
                raise ParseError(f"line {lineno}: 'start:' needs exactly one letter")
            start = toks[0]
        elif line.startswith("coding:"):
            if coding_pairs is not None:
                raise ParseError(f"line {lineno}: duplicate 'coding:' directive")
            coding_pairs = {}
            for tok in line[len("coding:"):].split():
                lid, sep, sym = tok.partition("=")
                if not sep or not lid or not sym:
                    raise ParseError(f"line {lineno}: bad coding entry {tok!r}")
                if lid in coding_pairs:
                    raise ParseError(f"line {lineno}: duplicate coding for {lid!r}")
                coding_pairs[lid] = sym
        elif "->" in line:
            left, _, right = line.partition("->")
            lhs = left.split()
            if len(lhs) != 1:
                raise ParseError(f"line {lineno}: rule needs exactly one letter before '->'")
            lid = lhs[0]
            if lid in rules:
                raise ParseError(f"line {lineno}: duplicate rule for {lid!r}")
            rules[lid] = right.split()
        else:
            head = line.split()[0]
            raise ParseError(f"line {lineno}: unknown directive {head!r}")

    if letters is None:
        raise ParseError("missing 'letters:' directive")
    if start is None:
        raise ParseError("missing 'start:' directive")
    alphabet = Alphabet(tuple(letters))
    known = set(letters)
    for lid in rules:
        if lid not in known:
            raise ParseError(f"rule for unknown letter {lid!r}")
    for lid in letters:
        if lid not in rules:
            raise ParseError(f"missing rule for letter {lid!r}")
    for lid, image in rules.items():
        for tok in image:
            if tok not in known:
                raise ParseError(f"rule for {lid!r} uses unknown letter {tok!r}")
    if start not in known:
        raise ParseError(f"start letter {start!r} is not in the alphabet")
    if coding_pairs:
        for lid in coding_pairs:
            if lid not in known:
                raise ParseError(f"coding entry for unknown letter {lid!r}")
    morphism = Morphism.from_rules(alphabet, rules)
    return MorphicSystem.build(morphism, start, coding_pairs)


def parse_morphism_file(path) -> MorphicSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_morphism_spec(text)
