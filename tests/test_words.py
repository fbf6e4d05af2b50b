import dataclasses
import math
import random
import tracemalloc
from itertools import accumulate, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morphcert import words
from morphcert.errors import (
    DomainError,
    ParseError,
    ResourceError,
    UnknownSymbol,
    ValidationError,
)
from morphcert.words import (
    Alphabet,
    Morphism,
    MorphicSystem,
    count_in_prefix,
    fixed_point_stream,
    is_prolongable,
    iterate,
    parse_morphism_spec,
    prefix_count_series,
    _prefix_blocks,
)

from conftest import (
    chain,
    checkpoints,
    column,
    count_vectors,
    counting_suite,
    doubling,
    fibonacci,
    make_morphism,
    make_system,
    swap,
    thue_morse,
)

TM_TEXT = """\
# Thue-Morse
letters: 0 1
start: 0
0 -> 0 1
1 -> 1 0
"""

FIB_TEXT = """\
letters: a b
start: a
coding: a=0 b=1
a -> a b
b -> a
"""


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(("x", "y"))
        assert a.size == 2
        assert "x" in a and "z" not in a
        assert a.index("y") == 1
        assert a.encode(["y", "x"]) == b"\x01\x00"
        assert a.decode(b"\x01\x00") == ["y", "x"]

    def test_rejects(self):
        with pytest.raises(ValidationError):
            Alphabet(())
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))
        with pytest.raises(ValidationError):
            Alphabet(("a", "b c"))  # whitespace in identifier
        with pytest.raises(ValidationError):
            Alphabet(tuple(f"L{i}" for i in range(257)))
        with pytest.raises(ValidationError):
            Alphabet(("a",)).index("b")


class TestMorphism:
    def test_images(self):
        m = thue_morse().morphism
        assert m.image("0") == b"\x00\x01"
        assert m.image(1) == b"\x01\x00"

    def test_rejects_erasing(self):
        with pytest.raises(ValidationError):
            make_morphism("ab", {"a": ["a", "b"], "b": []})

    def test_rejects_missing_or_unknown_rule(self):
        with pytest.raises(ValidationError):
            make_morphism("ab", {"a": ["a"]})
        with pytest.raises(ValidationError):
            make_morphism("ab", {"a": ["a"], "b": ["b"], "c": ["c"]})
        with pytest.raises(ValidationError):
            make_morphism("ab", {"a": ["a", "z"], "b": ["b"]})

    def test_is_prolongable(self):
        tm = thue_morse().morphism
        assert is_prolongable(tm, "0") and is_prolongable(tm, "1")
        fib = fibonacci().morphism
        assert is_prolongable(fib, "a")
        assert not is_prolongable(fib, "b")  # image "a" does not start with b
        sw = swap()
        assert not is_prolongable(sw, "a") and not is_prolongable(sw, "b")

    def test_rejects_bool_letters(self):
        m = fibonacci().morphism
        for letter in (True, False):
            with pytest.raises(ValidationError):
                m.image(letter)
            with pytest.raises(ValidationError):
                MorphicSystem.build(m, letter)


class TestMorphicSystem:
    def test_build_defaults_identity_coding(self):
        sys = thue_morse()
        assert sys.start_id == "0"
        assert sys.coding == ("0", "1")
        assert sys.symbols() == ("0", "1")

    def test_partial_coding_keeps_identifiers(self):
        sys = MorphicSystem.build(
            column().morphism, "a", coding={"b": "x"}
        )
        assert sys.coding == ("a", "x")

    def test_letters_for(self):
        sys = fibonacci()
        assert sys.letters_for("0") == (0,)
        with pytest.raises(UnknownSymbol):
            sys.letters_for("2")

    def test_noninjective_coding(self):
        sys = MorphicSystem.build(
            thue_morse().morphism, "0", coding={"0": "x", "1": "x"}
        )
        assert sys.symbols() == ("x",)
        assert sys.letters_for("x") == (0, 1)

    def test_rejects_nonprolongable_start(self):
        with pytest.raises(ValidationError):
            MorphicSystem.build(fibonacci().morphism, "b")
        with pytest.raises(ValidationError):
            MorphicSystem.build(swap(), "a")

    def test_reached_images_are_derived(self):
        # the images the start reaches are kept with the system but are not
        # part of its value: equality, hash and repr ignore them, and
        # dataclasses.replace computes them again for the new start
        sys = _chain_beside_z()
        other = _chain_beside_z()
        assert sys._reached == sys.morphism.images[:3] + (b"",)
        object.__setattr__(other, "_reached", ())
        assert sys == other and hash(sys) == hash(other)
        assert "_reached" not in repr(sys) and repr(sys) == repr(other)
        from_z = dataclasses.replace(sys, start=3)
        assert from_z._reached == (b"", b"", b"", b"\x03\x03")
        assert from_z != sys
        assert dataclasses.replace(other, coding=("a", "b", "b", "z"))._reached == sys._reached


def _reference_iterate(m: Morphism, w: bytes, k: int) -> bytes:
    """phi applied k times, one level at a time: the oracle of iterate's tables."""
    for _ in range(k):
        w = b"".join(m.images[ch] for ch in w)
    return w


def _lengths(m: Morphism, w: bytes, cap: int, kmax: int = 499) -> list[int]:
    """|phi^k(w)| for k = 0, 1, ..., kmax while it stays within cap."""
    per_letter, out = [1] * m.d, [len(w)]
    while len(out) <= kmax:
        per_letter = [sum(per_letter[c] for c in img) for img in m.images]
        n = sum(per_letter[c] for c in w)
        if n > cap:
            break
        out.append(n)
    return out


def _random_images(rng, d):
    # mostly short images, so a few hundred levels stay small
    return {f"x{i}": [f"x{rng.randrange(d)}" for _ in range(rng.choice((1, 1, 1, 2, 2, 3)))]
            for i in range(d)}


def _long_image():
    # a -> a (b c)^999 b: 2000 letters, though T_s holds only about 500 s^2
    return make_morphism("abc", {"a": ["a"] + ["b", "c"] * 999 + ["b"],
                                 "b": ["b", "c"], "c": ["c"]})


def _unreachable_letter():
    # a -> a b, b -> b, c -> c c: phi^k(a) = a b^k; c, which a and b never
    # reach, doubles each level
    return make_morphism("abc", {"a": ["a", "b"], "b": ["b"], "c": ["c", "c"]})


_SAMPLES = (thue_morse, fibonacci, column, chain, doubling)


def _iterate_tables(m, w, k, monkeypatch):
    """phi^k(w) and the image tables iterate built (the images themselves aside)."""
    tables = {}
    real = words._apply

    def spy(table, word):
        tables[id(table)] = table
        return real(table, word)

    monkeypatch.setattr(words, "_apply", spy)
    word = iterate(m, w, k)
    monkeypatch.undo()
    return word, [t for t in tables.values() if t is not m.images]


def _bit_edges(m, w, cap):
    """k in {0, 1, 2^e - 1, 2^e, 2^e + 1} while |phi^k(w)| stays within cap."""
    deepest = len(_lengths(m, w, cap)) - 1
    ks = {0, 1} | {k for e in range(1, 9) for k in (2**e - 1, 2**e, 2**e + 1)}
    return sorted(k for k in ks if k <= deepest)


class TestIterate:
    def test_thue_morse(self, tm):
        m = tm.morphism
        assert iterate(m, b"\x00", 0) == b"\x00"
        assert iterate(m, b"\x00", 1) == b"\x00\x01"
        assert iterate(m, b"\x00", 2) == b"\x00\x01\x01\x00"
        assert iterate(m, b"\x00", 3) == b"\x00\x01\x01\x00\x01\x00\x00\x01"

    def test_fibonacci(self, fib):
        m = fib.morphism
        # a, ab, aba, abaab, abaababa
        assert iterate(m, b"\x00", 3) == b"\x00\x01\x00\x00\x01"
        assert iterate(m, b"\x00", 4) == b"\x00\x01\x00\x00\x01\x00\x01\x00"

    def test_arbitrary_seed_word(self, tm):
        m = tm.morphism
        assert iterate(m, b"\x01\x00", 1) == b"\x01\x00\x00\x01"
        assert iterate(m, b"", 5) == b""

    def test_rejects(self, tm):
        m = tm.morphism
        with pytest.raises(DomainError):
            iterate(m, b"\x00", -1)
        with pytest.raises(ValidationError):
            iterate(m, b"\x05", 1)

    def test_levels_are_integers(self, tm):
        m = tm.morphism
        for k in (2.0, 2.5, "2", True):
            with pytest.raises(DomainError, match="is not an integer"):
                iterate(m, b"\x00", k)
        assert iterate(m, b"\x00", np.int64(2)) == iterate(m, b"\x00", 2)
        with pytest.raises(DomainError, match="max_len 10.5 is not an integer"):
            iterate(m, b"\x00", 2, max_len=10.5)

    @pytest.mark.parametrize("m, k", [
        (thue_morse().morphism, 20),
        (column().morphism, 10**4),
        (_long_image(), 33),
    ], ids=["thue_morse", "column", "long_image"])
    def test_traced_peak_near_output_size(self, m, k):
        # at most the input level, the pieces of the output, the output itself
        # and tables no larger than the output; joining one generator over all
        # letters of Thue-Morse k = 20 peaks near 46 MiB
        iterate(m, b"\x00", 2)  # warm
        tracemalloc.start()
        try:
            word = iterate(m, b"\x00", k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == _lengths(m, b"\x00", 2**24, k)[k]
        assert peak <= 3 * len(word) + 2**20

    def test_length_cap_without_materializing(self, tm):
        # 2^40 letters predicted exactly, refused before any allocation
        with pytest.raises(ResourceError):
            iterate(tm.morphism, b"\x00", 40, max_len=10**6)
        assert len(iterate(tm.morphism, b"\x00", 20, max_len=2**20)) == 2**20

    @pytest.mark.parametrize("make", _SAMPLES, ids=lambda f: f.__name__)
    def test_samples_match_reference(self, make):
        m = make().morphism
        for n in range(4):
            w = bytes(i % m.d for i in range(n))
            for k in _bit_edges(m, w, 2**16):
                assert iterate(m, w, k) == _reference_iterate(m, w, k), (n, k)

    def test_random_morphisms_match_reference(self):
        rng = random.Random(18)
        for d in (2, 3, 4, 8, 16, 48, 128, 256):
            for _ in range(4):
                m = make_morphism([f"x{i}" for i in range(d)], _random_images(rng, d))
                w = bytes(rng.randrange(d) for _ in range(rng.randint(0, 3)))
                k = len(_lengths(m, w, 2**15)) - 1
                for j in (k, rng.randint(0, k)):
                    assert iterate(m, w, j) == _reference_iterate(m, w, j), (d, j)

    def test_long_image_matches_reference(self):
        m = _long_image()
        for n in range(4):
            w = bytes(i % m.d for i in range(n))
            for k in _bit_edges(m, w, 2**17):
                assert iterate(m, w, k) == _reference_iterate(m, w, k), (n, k)

    @pytest.mark.parametrize("m, w, k, squared", [
        (thue_morse().morphism, b"\x00", 20, True),
        (column().morphism, b"\x00", 10**4, True),
        # b -> b: the tables of a would outgrow the one-letter result
        (column().morphism, b"\x01", 10**4, False),
        (chain().morphism, b"\x00", 2000, True),  # 2^20 binds before the result
        (_long_image(), b"\x00", 33, True),  # T_2 .. T_16, 215 k letters in all
        (_unreachable_letter(), b"\x00", 10**4, True),
    ], ids=["thue_morse", "column", "column_fixed_letter", "chain", "long_image",
            "unreachable_letter"])
    def test_tables_within_result_and_cap(self, m, w, k, squared, monkeypatch):
        word, built = _iterate_tables(m, w, k, monkeypatch)
        assert sum(len(img) for t in built for img in t) <= min(len(word), 2**20)
        assert bool(built) == squared

    def test_tables_sized_exactly(self, monkeypatch):
        # column's T_s holds s + 2 letters, so at k = 10^5 exact sizes square
        # well past T_512 within the cap
        m = column().morphism
        word, built = _iterate_tables(m, b"\x00", 10**5, monkeypatch)
        assert len(word) == 10**5 + 1
        assert max(len(t[0]) for t in built) - 1 > 512
        assert sum(len(img) for t in built for img in t) <= min(len(word), 2**20)

    def test_unreachable_letter_has_no_tables(self, monkeypatch):
        # c's doubling images would fill every squared table past the cap
        m = _unreachable_letter()
        word, built = _iterate_tables(m, b"\x00", 10**5, monkeypatch)
        assert word == b"\x00" + b"\x01" * 10**5
        assert built and all(t[2] == b"" for t in built)

    def test_unreachable_letter_matches_reference(self):
        m = _unreachable_letter()
        for w in (b"\x00", b"\x01", b"\x02", b"\x00\x02", b"\x01\x00"):
            for k in _bit_edges(m, w, 2**16):
                assert iterate(m, w, k) == _reference_iterate(m, w, k), (w, k)
        assert iterate(m, b"\x01", 10**5) == b"\x01"

    def test_long_fixed_run_matches_reference(self):
        # a -> a b^1000, b -> b: phi^k(a) = a b^(1000 k). The reference is
        # checked at the bit edges up to k = 65; at k = 2000 (a minute for
        # the reference) against the closed form and one reference step
        m = make_morphism("ab", {"a": ["a"] + ["b"] * 1000, "b": ["b"]})
        for k in _bit_edges(m, b"\x00", 2**17):
            assert iterate(m, b"\x00", k) == _reference_iterate(m, b"\x00", k), k
        word = iterate(m, b"\x00", 2000)
        assert word == b"\x00" + b"\x01" * 2_000_000
        assert word == _reference_iterate(m, iterate(m, b"\x00", 1999), 1)


class TestCheckpoints:
    def test_thue_morse_powers_of_two(self, tm):
        series = checkpoints(tm, 6)
        assert series.entries == tuple((k, 2**k) for k in range(7))
        assert series.lengths() == [2**k for k in range(7)]

    def test_fibonacci_numbers(self, fib):
        assert checkpoints(fib, 5).lengths() == [1, 2, 3, 5, 8, 13]

    def test_matches_iterate(self):
        sys = column()
        lens = checkpoints(sys, 10).lengths()
        assert lens == [len(iterate(sys.morphism, b"\x00", k)) for k in range(11)]

    def test_rejects_negative(self, tm):
        with pytest.raises(DomainError):
            checkpoints(tm, -1)


class TestFixedPointStream:
    def test_thue_morse_prefix(self, tm):
        assert "".join(fixed_point_stream(tm, 8)) == "01101001"
        assert "".join(fixed_point_stream(tm, 16)) == "0110100110010110"

    def test_fibonacci_coded_prefix(self, fib):
        assert "".join(fixed_point_stream(fib, 5)) == "01001"
        assert "".join(fixed_point_stream(fib, 13)) == "0100101001001"

    def test_column_fixed_letter_shortcut(self):
        assert "".join(fixed_point_stream(column(), 6)) == "abbbbb"

    def test_edge_cases(self, tm):
        assert fixed_point_stream(tm, 0) == []
        with pytest.raises(DomainError):
            fixed_point_stream(tm, -1)

    def test_lengths_are_integers(self, tm):
        for n in (3.5, 3.0, "3", True):
            with pytest.raises(DomainError, match="is not an integer"):
                fixed_point_stream(tm, n)
        assert fixed_point_stream(tm, np.int64(3)) == fixed_point_stream(tm, 3)

    def test_agrees_with_iterate(self, fib):
        # the stream is the limit of the iterates, so any phi^k(b) is a prefix
        word = iterate(fib.morphism, b"\x00", 7)
        coded = [fib.coding[ch] for ch in word]
        assert fixed_point_stream(fib, len(word)) == coded


class TestCounting:
    def test_count_in_prefix(self, tm, fib):
        assert count_in_prefix(tm, "1", 8) == 4
        assert count_in_prefix(tm, "0", 8) == 4
        assert count_in_prefix(fib, "0", 5) == 3
        assert count_in_prefix(fib, "1", 5) == 2
        assert count_in_prefix(tm, "1", 0) == 0

    def test_count_rejects(self, tm):
        with pytest.raises(UnknownSymbol):
            count_in_prefix(tm, "z", 4)
        with pytest.raises(DomainError):
            count_in_prefix(tm, "1", -1)

    def test_count_lengths_are_integers(self, tm):
        # column's count descends from a table past 10^5 letters
        for sys, symbol, n in ((tm, "1", 10.5), (tm, "1", 10.0), (column(), "b", 10**5 + 0.5)):
            with pytest.raises(DomainError, match="is not an integer"):
                count_in_prefix(sys, symbol, n)
        assert count_in_prefix(tm, "1", np.int64(10)) == count_in_prefix(tm, "1", 10) == 5

    def test_series_lengths_are_integers(self, tm):
        for cps in ([10.5, 3], [3, 10.0], [4, "8"]):
            with pytest.raises(DomainError, match="is not an integer"):
                prefix_count_series(tm, "1", cps)
        with pytest.raises(DomainError, match="prefix length True is not an integer"):
            prefix_count_series(tm, "0", [True])
        assert prefix_count_series(tm, "1", [np.int64(10), 3]) == [(10, 5), (3, 2)]

    def test_prefix_count_series(self, tm):
        got = prefix_count_series(tm, "1", [0, 1, 4, 8, 16])
        assert got == [(0, 0), (1, 0), (4, 2), (8, 4), (16, 8)]

    def test_series_preserves_request_order(self, tm):
        got = prefix_count_series(tm, "1", [8, 1, 8])
        assert got == [(8, 4), (1, 0), (8, 4)]

    def test_series_matches_single_counts(self, fib):
        ns = [0, 3, 7, 10, 40, 100]
        got = prefix_count_series(fib, "1", ns)
        assert got == [(n, count_in_prefix(fib, "1", n)) for n in ns]

    def test_noninjective_counts_aggregate(self):
        sys = MorphicSystem.build(
            thue_morse().morphism, "0", coding={"0": "x", "1": "x"}
        )
        assert count_in_prefix(sys, "x", 9) == 9


class TestParser:
    def test_thue_morse_document(self):
        sys = parse_morphism_spec(TM_TEXT)
        assert sys.morphism.alphabet.letters == ("0", "1")
        assert sys.start_id == "0"
        assert sys.coding == ("0", "1")
        assert "".join(fixed_point_stream(sys, 8)) == "01101001"

    def test_fibonacci_document_with_coding(self):
        sys = parse_morphism_spec(FIB_TEXT)
        assert sys.coding == ("0", "1")
        assert "".join(fixed_point_stream(sys, 5)) == "01001"

    def test_directive_order_and_duplicates(self):
        with pytest.raises(ParseError):
            parse_morphism_spec("start: a\nletters: a\na -> a a\n")
        with pytest.raises(ParseError):
            parse_morphism_spec("letters: a\nletters: a\nstart: a\na -> a a\n")
        with pytest.raises(ParseError):
            parse_morphism_spec("letters: a\nstart: a\na -> a a\na -> a\n")
        with pytest.raises(ParseError):
            parse_morphism_spec("letters: a\nstart: a\nstart: a\na -> a a\n")

    def test_reference_errors(self):
        base = "letters: a b\nstart: a\na -> a b\n"
        with pytest.raises(ParseError):  # missing rule for b
            parse_morphism_spec(base)
        with pytest.raises(ParseError):  # image uses unknown letter
            parse_morphism_spec(base + "b -> z\n")
        with pytest.raises(ParseError):  # rule for unknown letter
            parse_morphism_spec(base + "b -> b\nz -> z\n")
        with pytest.raises(ParseError):  # start outside alphabet
            parse_morphism_spec("letters: a b\nstart: z\na -> a b\nb -> b\n")
        with pytest.raises(ParseError):  # coding names unknown letter
            parse_morphism_spec(base + "b -> b\ncoding: z=0\n")
        with pytest.raises(ParseError):  # malformed coding entry
            parse_morphism_spec(base + "b -> b\ncoding: a\n")
        with pytest.raises(ParseError):  # unknown directive
            parse_morphism_spec("letters: a\nstart: a\na -> a a\nwhat: ever\n")
        with pytest.raises(ParseError):
            parse_morphism_spec("")

    def test_semantic_errors_are_validation(self):
        # grammar is fine, the morphism itself is not
        with pytest.raises(ValidationError):  # erasing rule
            parse_morphism_spec("letters: a b\nstart: a\na -> a b\nb ->\n")
        with pytest.raises(ValidationError):  # start not prolongable
            parse_morphism_spec("letters: a b\nstart: b\na -> a b\nb -> a\n")

    def test_comments_and_blank_lines(self):
        text = "# top\n\nletters: a\n  # indented comment\nstart: a\na -> a a\n"
        sys = parse_morphism_spec(text)
        assert sys.start_id == "a"


# --- reference streamer -----------------------------------------------------


def _reference_chunks(sys):
    """The fixed point as an endless stream of chunks, one letter at a time.

    Uses the decomposition b . w . phi(w) . phi^2(w) ... with phi(b) = b w,
    expanding each phi^j(w) depth-first so memory stays O(depth * image size).
    """
    images = sys.morphism.images
    b = sys.start
    yield bytes([b])
    tail = images[b][1:]
    depth = 0
    while True:
        # frames: [word, next position, remaining expansion depth]
        stack = [[tail, 0, depth]]
        while stack:
            top = stack[-1]
            word, pos, rem = top
            if pos == len(word):
                stack.pop()
            elif rem == 0:
                top[1] = len(word)
                yield word[pos:]
            else:
                letter = word[pos]
                top[1] = pos + 1
                img = images[letter]
                if len(img) == 1 and img[0] == letter:
                    yield img  # phi fixes this letter; no need to descend
                else:
                    stack.append([img, 0, rem - 1])
        depth += 1


def _reference_prefix(sys, n):
    out = b""
    for chunk in _reference_chunks(sys):
        if len(out) >= n:
            break
        out += chunk[:n - len(out)]
    return out


def _assert_matches_reference(sys, n):
    word = _reference_prefix(sys, n)
    assert fixed_point_stream(sys, n) == [sys.coding[ch] for ch in word]
    for symbol in sys.symbols():
        targets = sys.letters_for(symbol)
        expect = sum(word.count(t) for t in targets)
        assert count_in_prefix(sys, symbol, n) == expect
        cuts = sorted({0, n // 3, n // 2, max(n - 1, 0), n})
        assert prefix_count_series(sys, symbol, cuts) == [
            (c, sum(word[:c].count(t) for t in targets)) for c in cuts
        ]


def _cycle():
    # b and c swap forever: the blocks after w = b cycle with period 2
    return make_system("abc", {"a": ["a", "b"], "b": ["c"], "c": ["b"]}, "a")


def _two_cycles():
    # w = be: b -> c -> d -> b and e -> f -> e, so the blocks cycle with period 6
    return make_system("abcdef", {
        "a": ["a", "b", "e"], "b": ["c"], "c": ["d"], "d": ["b"], "e": ["f"], "f": ["e"],
    }, "a")


def _fixed_tail():
    # w = bc is fixed by phi, so every block after b is bc
    return make_system("abc", {"a": ["a", "b", "c"], "b": ["b"], "c": ["c"]}, "a")


def _cycle_after_transient():
    # blocks b, c c, c c, ...: they cycle from the second level on
    return make_system("abc", {"a": ["a", "b"], "b": ["c", "c"], "c": ["c"]}, "a")


def _column_beside_z():
    # column, and z -> z z, which a never reaches
    return make_system("abz", {"a": ["a", "b"], "b": ["b"], "z": ["z", "z"]}, "a")


def _grows_into_block():
    # w = xy and phi(x) = xy: a block cut to x has an image equal to the block
    return make_system("axy", {"a": ["a", "x", "y"], "x": ["x", "y"], "y": ["y"]}, "a")


class TestPrefixBlocks:
    @pytest.mark.parametrize(
        "make", [column, chain, _cycle, _two_cycles, _fixed_tail, _grows_into_block,
                 _cycle_after_transient]
    )
    def test_around_checkpoints(self, make):
        sys = make()
        for n_k in checkpoints(sys, 12).lengths():
            for n in (n_k - 1, n_k, n_k + 1):
                _assert_matches_reference(sys, n)

    def test_last_block_cut_while_fixed(self):
        sys = _fixed_tail()
        # a | bc | bc ...: n = 2 and n = 4 end inside a fixed block
        for n in (2, 3, 4, 5, 70001):
            _assert_matches_reference(sys, n)
        assert "".join(fixed_point_stream(sys, 4)) == "abcb"
        assert "".join(fixed_point_stream(_grows_into_block(), 4)) == "axyx"

    def test_blocks_tile_the_prefix(self, tm, fib):
        # 2^15 + 5 letters come from blocks built over several join slices
        for sys in (tm, fib):
            for n in (0, 1, 2, 3, 1000, 2**15 + 5):
                assert b"".join(_prefix_blocks(sys, n)) == _reference_prefix(sys, n)

    def test_one_block_per_level(self, tm):
        # b, w, phi(w), ..., phi^19(w): 21 blocks make 2^20 letters
        assert len(list(_prefix_blocks(tm, 2**20))) <= 22
        # column repeats its fixed block b in 64 KiB pieces
        assert count_in_prefix(column(), "b", 10**8) == 10**8 - 1

    @pytest.mark.parametrize("make,period", [(_cycle, "bc"), (_two_cycles, "becfdebfcedf")])
    def test_cycling_blocks_repeat_in_pieces(self, make, period):
        # once a block comes back, the period's blocks repeat in 64 KiB pieces
        # instead of one level (here one or two letters) at a time
        sys = make()
        n = 10**6
        assert len(list(_prefix_blocks(sys, n))) <= math.log2(n) + 16
        word = "a" + period * (n // len(period) + 1)
        for cut in (n - 1, n, 65536 * 3 + 7):
            assert "".join(fixed_point_stream(sys, cut)) == word[:cut]
        assert count_in_prefix(sys, "b", n) == word[:n].count("b")


# --- the translate block step -----------------------------------------------


@st.composite
def step_images(draw):
    """Images as _block_step gets them: b"" for the letters never reached,
    all of one length or uneven, some longer than _STEP_WIDTH."""
    d = draw(st.integers(1, 12))
    reached = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    width = draw(st.integers(1, words._STEP_WIDTH + 3))
    uniform = draw(st.booleans())
    ids = st.sampled_from(reached)
    images = [b""] * d
    for a in reached:
        size = width if uniform else draw(st.integers(1, width))
        images[a] = bytes(draw(st.lists(ids, min_size=size, max_size=size)))
    return images, bytes(draw(st.lists(ids, max_size=300)))


@st.composite
def wide_systems(draw):
    """Prolongable systems with images up to _STEP_WIDTH + 3 letters long and
    an unreached letter z, coded onto 0 and 1."""
    letters = "abcdz"
    ids = st.sampled_from("abcd")
    width = draw(st.integers(2, words._STEP_WIDTH + 3))
    sizes = st.just(width) if draw(st.booleans()) else st.integers(1, width)
    rules = {"a": ["a"] + draw(st.lists(ids, min_size=width - 1, max_size=width - 1))}
    for lid in "bcd":
        size = draw(sizes)
        rules[lid] = draw(st.lists(ids, min_size=size, max_size=size))
    rules["z"] = ["z", "a"]
    coding = {lid: draw(st.sampled_from("01")) for lid in letters}
    return make_system(letters, rules, "a", coding)


def _apply_calls(monkeypatch):
    calls = []
    real = words._apply
    monkeypatch.setattr(words, "_apply", lambda images, w: calls.append(len(w)) or real(images, w))
    return calls


def _every_letter_reached(uniform):
    # x0 -> x0 x1 and x_i -> x_{5i+1} x_{5i+2} (indices mod 256), one letter
    # shorter on odd i unless uniform: all 256 byte values are letters that
    # b reaches, and every one of them is among the first 2000 letters
    ids = [f"x{i}" for i in range(256)]
    rules = {ids[0]: [ids[0], ids[1]]}
    for i in range(1, 256):
        image = [ids[(5 * i + 1) % 256], ids[(5 * i + 2) % 256]]
        rules[ids[i]] = image if uniform or i % 2 == 0 else image[:1]
    return make_system(ids, rules, "x0")


class TestBlockStep:
    @settings(max_examples=200, deadline=None)
    @given(step_images())
    def test_step_is_the_join(self, drawn):
        images, w = drawn
        want = b"".join(images[ch] for ch in w)
        assert words._block_step(images)(w) == words._apply(images, w) == want

    @settings(max_examples=60, deadline=None)
    @given(wide_systems(), st.integers(0, 3000))
    def test_blocks_match_reference(self, sys, n):
        # every n cuts the last block; the stream and the counts read the blocks
        word = _reference_prefix(sys, n)
        assert b"".join(_prefix_blocks(sys, n)) == word
        assert fixed_point_stream(sys, n) == [sys.coding[ch] for ch in word]
        for symbol in sys.symbols():
            want = sum(sys.coding[ch] == symbol for ch in word)
            assert count_in_prefix(sys, symbol, n) == want

    def test_no_free_byte_joins(self, monkeypatch):
        # 256 reached letters and uneven images leave no byte for the filler
        sys = _every_letter_reached(uniform=False)
        calls = _apply_calls(monkeypatch)
        for n in (1, 2, 3, 300, 5000):
            assert b"".join(_prefix_blocks(sys, n)) == _reference_prefix(sys, n)
        assert calls and len(set(_reference_prefix(sys, 2000))) == 256

    def test_uniform_wide_alphabet_translates(self, monkeypatch):
        # every image has two letters, so no filler is needed
        sys = _every_letter_reached(uniform=True)
        calls = _apply_calls(monkeypatch)
        for n in (1, 2, 3, 300, 5000):
            assert b"".join(_prefix_blocks(sys, n)) == _reference_prefix(sys, n)
        assert calls == [] and len(set(_reference_prefix(sys, 2000))) == 256

    def test_long_images_join(self, monkeypatch):
        sys = MorphicSystem.build(_long_image(), "a")
        assert len(sys.morphism.images[0]) > words._STEP_WIDTH
        calls = _apply_calls(monkeypatch)
        assert b"".join(_prefix_blocks(sys, 5000)) == _reference_prefix(sys, 5000)
        assert calls

    def test_samples_never_join(self, tm, fib, monkeypatch):
        calls = _apply_calls(monkeypatch)
        for sys in (tm, fib):
            word = _reference_prefix(sys, 10**5)
            assert fixed_point_stream(sys, 10**5) == [sys.coding[ch] for ch in word]
        assert calls == []

    @pytest.mark.parametrize("coding", [
        {"a": "0", "b": "1"},      # one character: one translate
        {"a": "\xe9", "b": "b"},   # Latin-1 past ASCII, still one translate
        {"a": "ab", "b": "c"},     # several characters
        {"a": "α", "b": "1"}, # past U+00FF
    ])
    def test_stream_codings(self, coding):
        sys = make_system("ab", {"a": ["a", "b"], "b": ["a"]}, "a", coding)
        word = _reference_prefix(sys, 5000)
        got = fixed_point_stream(sys, 5000)
        assert got == [sys.coding[ch] for ch in word]
        assert all(type(s) is str for s in got)

    @pytest.mark.parametrize("make", [
        thue_morse, fibonacci, doubling,
        # uneven images of up to _STEP_WIDTH letters: the filler and its delete
        lambda: make_system("abc", {"a": list("abcbcbcb"), "b": ["c"], "c": ["b", "a"]}, "a"),
    ])
    def test_traced_peak_within_the_bound(self, make):
        # at most two buffers of max|phi(a)| |w| bytes live in a step, for a
        # block w of at most n/2 letters
        sys = make()
        bound = 1 + max(map(len, sys.morphism.images))
        for n in (3 * 10**5, 2**20 + 3):
            tracemalloc.start()
            try:
                for block in _prefix_blocks(sys, n):
                    pass
                del block
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * n, (n, peak / n)


# --- properties -------------------------------------------------------------

_LETTERS = ("a", "b", "c")


@st.composite
def prolongable_systems(draw):
    size = draw(st.integers(2, 3))
    letters = _LETTERS[:size]
    ids = st.sampled_from(letters)
    rules = {}
    # start letter: image begins with itself, length >= 2
    rules[letters[0]] = [letters[0]] + draw(st.lists(ids, min_size=1, max_size=2))
    for lid in letters[1:]:
        # fixed letters and one-letter images (cycles) besides growing images
        rules[lid] = draw(st.one_of(
            st.just([lid]),
            st.lists(ids, min_size=1, max_size=1),
            st.lists(ids, min_size=1, max_size=3),
        ))
    m = Morphism.from_rules(Alphabet(letters), rules)
    return MorphicSystem.build(m, letters[0])


@settings(max_examples=60, deadline=None)
@given(prolongable_systems(), st.integers(0, 3), st.integers(0, 3))
def test_iterate_composes(sys, j, k):
    m = sys.morphism
    w = bytes([sys.start])
    cap = 10**6
    whole = iterate(m, w, j + k, max_len=cap)
    assert whole == iterate(m, iterate(m, w, k, max_len=cap), j, max_len=cap)


@settings(max_examples=40, deadline=None)
@given(prolongable_systems(), st.integers(0, 200), st.integers(0, 50))
def test_stream_prefix_stable(sys, n, extra):
    long = fixed_point_stream(sys, n + extra)
    assert fixed_point_stream(sys, n) == long[:n]


@settings(max_examples=40, deadline=None)
@given(prolongable_systems(), st.integers(0, 300))
def test_symbol_counts_partition_prefix(sys, n):
    assert sum(count_in_prefix(sys, s, n) for s in sys.symbols()) == n


@settings(max_examples=30, deadline=None)
@given(prolongable_systems(), st.integers(0, 6))
def test_checkpoint_lengths_match_iterate(sys, k):
    n_k = checkpoints(sys, k).lengths()[-1]
    assert n_k == len(iterate(sys.morphism, bytes([sys.start]), k, max_len=10**6))


@settings(max_examples=80, deadline=None)
@given(prolongable_systems(), st.integers(0, 400))
@example(column(), 5000)
@example(_cycle_after_transient(), 5000)
def test_stream_and_counts_match_reference(sys, n):
    _assert_matches_reference(sys, n)


@pytest.mark.parametrize("make", [column, _cycle_after_transient, _column_beside_z, chain])
def test_dense_streamed_counts_match_reference(make, monkeypatch):
    # every n <= 5000 twice, shuffled: words whose blocks cycle stream, and
    # many checkpoints fall in one block; chain streams too, since its table
    # would descend 100 levels for each of the 10 002 checkpoints
    sys = make()
    word = _reference_prefix(sys, 5000)
    ns = list(range(5001)) * 2
    random.Random(5).shuffle(ns)
    streamed = []
    real = words._prefix_blocks
    monkeypatch.setattr(words, "_prefix_blocks", lambda s, n: streamed.append(n) or real(s, n))
    for symbol in sys.symbols():
        targets = sys.letters_for(symbol)
        before = list(accumulate((ch in targets for ch in word), initial=0))
        assert prefix_count_series(sys, symbol, ns) == [(n, before[n]) for n in ns]
    assert streamed == [5000] * len(sys.symbols())


# --- per-letter level rows against the count-vector oracle -----------------

def _assert_level_rows_match_oracle(m, kmax):
    """Row k from all ones is |phi^k(a)|, from an indicator the indicated
    letters in phi^k(a): the sums of the dense count vectors of phi^k(a)."""
    vectors = [list(islice(count_vectors(m.count_matrix, bytes([a])), kmax + 1))
               for a in range(m.d)]
    target_sets = [tuple(range(m.d))] + [(t,) for t in range(m.d)] + [tuple(range(0, m.d, 2))]
    for targets in target_sets:
        row = [int(a in targets) for a in range(m.d)]
        got = list(islice(words._level_rows(m.images, row), kmax + 1))
        want = [[sum(vectors[a][k][t] for t in targets) for a in range(m.d)]
                for k in range(kmax + 1)]
        assert got == want, targets


def test_level_rows_match_count_vectors():
    for _, m in counting_suite():
        _assert_level_rows_match_oracle(m, 40)


@settings(max_examples=80, deadline=None)
@given(prolongable_systems(), st.integers(0, 12))
def test_level_rows_match_count_vectors_on_small_morphisms(sys, kmax):
    _assert_level_rows_match_oracle(sys.morphism, kmax)


# --- Dumont-Thomas descent against the streamed prefix ----------------------


def _no_stream(sys, n):
    raise AssertionError("streamed the prefix")


@settings(max_examples=80, deadline=None)
@given(prolongable_systems(), st.integers(0, 6), st.data())
def test_descent_matches_prefix_blocks(sys, k, data):
    # around N_k, repeated and in any order; k <= 6 needs at most 7 levels,
    # below the 16 from which a linear word streams and far below the work
    # or bytes at which any word does, so every count here descends the table
    n_k = checkpoints(sys, k).lengths()[-1]
    ns = data.draw(st.lists(st.sampled_from([0, 1, n_k - 1, n_k, n_k + 1]), min_size=1, max_size=8))
    word = b"".join(_prefix_blocks(sys, max(ns)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_prefix_blocks", _no_stream)
        for symbol in sys.symbols():
            targets = sys.letters_for(symbol)
            want = [(n, sum(word[:n].count(t) for t in targets)) for n in ns]
            assert prefix_count_series(sys, symbol, ns) == want
            assert [count_in_prefix(sys, symbol, n) for n, _ in want] == [c for _, c in want]


def _chain_bs(n):
    # b among the first n letters of chain, a | b | b c | b c c | ...: one b
    # for each j >= 0 with j(j + 1)/2 <= n - 2
    if n < 2:
        return 0
    return (math.isqrt(8 * (n - 2) + 1) - 1) // 2 + 1


def _chain_beside_z():
    # chain, and z -> z z, which a never reaches
    return make_system("abcz", {
        "a": ["a", "b"], "b": ["b", "c"], "c": ["c"], "z": ["z", "z"],
    }, "a")


def _fib_zeros(n):
    # a (coded 0) among the first n letters of the Fibonacci word
    m = n + 1
    return (math.isqrt(5 * m * m) - m) // 2


class TestDescent:
    def test_closed_forms(self, tm, fib):
        ns = list(range(2000))
        assert prefix_count_series(fib, "0", ns) == [(n, _fib_zeros(n)) for n in ns]
        N = 10**30
        for n in (N, N + 2, 2**101):
            assert count_in_prefix(tm, "1", n) == n // 2 == count_in_prefix(tm, "0", n)
        for n in (N - 1, N, N + 1):
            assert count_in_prefix(fib, "0", n) == _fib_zeros(n)
            assert count_in_prefix(fib, "1", n) == n - _fib_zeros(n)
        cps = [N, 3, N, 10**29]
        assert prefix_count_series(fib, "0", cps) == [(n, _fib_zeros(n)) for n in cps]

    def test_growing_words_never_stream(self, tm, fib, monkeypatch):
        # alpha > 1, including a 48-letter word drawn like the benchmark's
        # random morphisms, counts from the level table alone
        systems = [tm, fib, doubling(), _random_primitive(random.Random(1), 48)]
        ns = [10**5, 10**5 // 7]
        want = []
        for sys in systems:
            word = b"".join(_prefix_blocks(sys, ns[0]))
            targets = sys.letters_for(sys.coding[0])
            want.append([(n, sum(word[:n].count(t) for t in targets)) for n in ns])
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        for sys, pairs in zip(systems, want):
            assert prefix_count_series(sys, sys.coding[0], ns) == pairs
            assert count_in_prefix(sys, sys.coding[0], ns[0]) == pairs[0][1]

    def test_linear_words_stream(self, monkeypatch):
        # column has |phi^k(a)| = k + 1: its increments never grow, so from
        # level 16 on it streams, after 17 length rows and no count row
        rows = []
        level_rows = words._level_rows

        def counted(images, row):
            for r in level_rows(images, row):
                rows.append(r)
                yield r

        monkeypatch.setattr(words, "_level_rows", counted)
        assert count_in_prefix(column(), "b", 10**6) == 10**6 - 1
        assert len(rows) == 17
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        # |phi^16(a)| = 17: the table still reaches that far
        assert count_in_prefix(column(), "b", 17) == 16
        for n in (18, 10**6):
            with pytest.raises(AssertionError, match="streamed"):
                count_in_prefix(column(), "b", n)
        # chain has |phi^k(a)| = 1 + k(k + 1)/2: its increments grow at every
        # level, so 10^6 letters descend 1414 levels
        ns = [5, 10**6, 10**6 - 1, 0, 1, 2, 3]
        want = [(n, _chain_bs(n)) for n in ns]
        assert prefix_count_series(chain(), "b", ns) == want
        assert count_in_prefix(chain(), "b", 10**6) == _chain_bs(10**6)

    def test_growth_after_a_long_transient_descends(self, monkeypatch):
        # a -> a x1, x1 -> x2, ..., x19 -> a: w's blocks are x1, ..., x19, a,
        # so 20 increments equal 1 before they grow; d + 1 = 21 are needed to
        # stream, and 10^30 letters (607 levels) descend the table
        ids = [f"x{i}" for i in range(1, 20)]
        rules = {"a": ["a", "x1"], ids[-1]: ["a"]}
        rules.update({u: [v] for u, v in zip(ids, ids[1:])})
        sys = make_system(["a", *ids], rules, "a")
        word = _reference_prefix(sys, 10**4)
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        for n in (10**4, 10**30):
            counts = [count_in_prefix(sys, symbol, n) for symbol in sys.symbols()]
            assert sum(counts) == n
        assert count_in_prefix(sys, "a", 10**4) == word.count(0)

    def test_chain_to_1e9_within_the_ceiling(self, monkeypatch):
        # 10^9 letters take 44 722 levels; with the tables' transients they
        # stay within the bytes the ceiling states
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        ns = [10**9, 10**9 - 1, 1024]
        tracemalloc.start()
        try:
            got = prefix_count_series(chain(), "b", ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [(n, _chain_bs(n)) for n in ns]
        assert peak <= words._TABLE_BYTES

    def test_words_past_the_ceiling_stream(self, monkeypatch):
        # a 1 MiB ceiling holds 2621 of the 2828 levels chain needs for
        # 4 * 10^6 letters: it streams them, and its peak, the length rows
        # built so far with it, stays under the ceiling
        monkeypatch.setattr(words, "_TABLE_BYTES", 2**20)
        n = 4 * 10**6
        with pytest.raises(AssertionError, match="streamed"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(words, "_prefix_blocks", _no_stream)
                count_in_prefix(chain(), "b", n)
        ns = [n, 5000, n - 1]
        tracemalloc.start()
        try:
            got = prefix_count_series(chain(), "b", ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [(n, _chain_bs(n)) for n in ns]
        assert peak <= 2**20

    def test_unreached_letters_count_with_empty_images(self, monkeypatch):
        # |phi^k(a)| = 1 + k(k + 1)/2: the tables for these n end below, at
        # and above level 64, and every row past level 0 of both tables has
        # z at 0, where z -> z z alone would give it 2^k
        sys = _chain_beside_z()
        ns = [1 + 30 * 31 // 2, 1 + 64 * 65 // 2, 1 + 64 * 65 // 2 + 1, 1 + 100 * 101 // 2]
        word = _reference_prefix(sys, max(ns))
        rows, level_rows = [], words._level_rows

        def counted(images, row):
            for k, r in enumerate(level_rows(images, row)):
                rows.append((k, r))
                yield r

        monkeypatch.setattr(words, "_level_rows", counted)
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        for symbol in sys.symbols():
            want = [(n, word[:n].count(sys.letters_for(symbol)[0])) for n in ns]
            assert prefix_count_series(sys, symbol, ns) == want
            assert [count_in_prefix(sys, symbol, n) for n in ns] == [c for _, c in want]
        assert max(k for k, _ in rows) == 100
        assert all(r[3] == 0 for k, r in rows if k)

    def test_unreached_letters_stay_narrow(self, monkeypatch):
        # chain beside z -> z z, which a never reaches: the 14 142 levels of
        # 10^8 letters would give z ints of up to 14 142 bits
        sys = make_system("abcz", {
            "a": ["a", "b"], "b": ["b", "c"], "c": ["c"], "z": ["z", "z"],
        }, "a")
        monkeypatch.setattr(words, "_prefix_blocks", _no_stream)
        tracemalloc.start()
        try:
            got = count_in_prefix(sys, "b", 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _chain_bs(10**8)
        assert peak < 8 * 2**20

    def test_errors_come_first(self, tm):
        with pytest.raises(DomainError):
            count_in_prefix(tm, "z", -1)
        with pytest.raises(UnknownSymbol):
            prefix_count_series(tm, "z", [-1])
        with pytest.raises(DomainError):
            prefix_count_series(tm, "1", [4, -1, 10**40])
        assert prefix_count_series(tm, "1", []) == []


def _random_primitive(rng, d):
    """A primitive prolongable morphism on d letters with images of 1-3 letters:
    a random cycle through the letters makes every letter reach every other."""
    letters = tuple(f"x{i}" for i in range(d))
    order = [0] + rng.sample(range(1, d), d - 1)
    succ = {order[i]: order[(i + 1) % d] for i in range(d)}
    lengths = [(1, 2, 3)[i % 3] for i in range(d)]
    rng.shuffle(lengths)
    lengths[0] = 3
    rules = {}
    for i, n in enumerate(lengths):
        img = [rng.randrange(d) for _ in range(n)]
        img[rng.randrange(1, n) if i == 0 else rng.randrange(n)] = succ[i]
        if i == 0:
            img[0] = 0
        rules[letters[i]] = [letters[j] for j in img]
    coding = {lid: "01"[i % 2] for i, lid in enumerate(letters)}
    return make_system(letters, rules, "x0", coding=coding)
