import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from morphcert import certify, cli, words
from morphcert.cli import main
from morphcert.numtheory import sieve_s2_additive, sieve_s2_nonzero

from conftest import MORPHISM_DIR, REPO_ROOT

TM = str(MORPHISM_DIR / "thue_morse.morph")
FIB = str(MORPHISM_DIR / "fibonacci.morph")
COLUMN = str(MORPHISM_DIR / "column.morph")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeqGen:
    def test_s2_ascii(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--kind", "s2", "-N", "10")
        assert code == 0
        assert out == "11101100111\n"

    def test_s2_nonzero_ascii(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--kind", "s2nz", "-N", "5")
        assert code == 0
        assert out == "001001\n"

    def test_morphic_ascii(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--kind", f"morphic:{TM}", "-N", "8")
        assert code == 0
        assert out == "01101001\n"

    def test_morphic_coded_ascii(self, capsys):
        code, out, _ = run(capsys, "seq", "gen", "--kind", f"morphic:{FIB}", "-N", "13")
        assert code == 0
        assert out == "0100101001001\n"

    def test_s2_bits_packed_little(self, capsysbinary):
        code = main(["seq", "gen", "--kind", "s2", "-N", "10", "--format", "bits"])
        out = capsysbinary.readouterr().out
        assert code == 0
        # 11101100111 packed LSB-first: 00110111, 00000111 -> 0x37, 0x07
        assert out == bytes([55, 7])

    def test_ascii_matches_bits_over_many_blocks(self, capsysbinary):
        N = 5 * 2**16 + 13  # output is written block by block
        for kind, sieve in (("s2", sieve_s2_additive), ("s2nz", sieve_s2_nonzero)):
            argv = ["seq", "gen", "--kind", kind, "-N", str(N)]
            assert main(argv + ["--format", "bits"]) == 0
            packed = np.frombuffer(capsysbinary.readouterr().out, dtype=np.uint8)
            assert packed.size == (N + 8) // 8
            bits = np.unpackbits(packed, count=N + 1, bitorder="little")
            assert np.array_equal(bits, sieve(N).bits)
            assert main(argv + ["--format", "ascii"]) == 0
            ascii_out = capsysbinary.readouterr().out
            assert ascii_out == (bits + ord("0")).tobytes() + b"\n"

    def test_morphic_bits(self, capsysbinary):
        code = main(
            ["seq", "gen", "--kind", f"morphic:{TM}", "-N", "8", "--format", "bits"]
        )
        out = capsysbinary.readouterr().out
        assert code == 0
        expect = np.packbits(
            np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8), bitorder="little"
        ).tobytes()
        assert out == expect == bytes([150])

    def test_bits_needs_binary_coding(self, capsys):
        # column.morph codes onto {a, b}: no bit packing possible
        code, _, err = run(
            capsys, "seq", "gen", "--kind", f"morphic:{COLUMN}", "-N", "8",
            "--format", "bits",
        )
        assert code == 2
        assert "0 and 1" in err

    def test_bits_coding_checked_before_streaming(self, capsys, monkeypatch):
        streamed = []
        for name in ("fixed_point_stream", "_prefix_blocks"):
            monkeypatch.setattr(words, name, lambda *a: streamed.append(a))
        code, _, err = run(
            capsys, "seq", "gen", "--kind", f"morphic:{COLUMN}", "-N", "20000000",
            "--format", "bits",
        )
        assert (code, streamed) == (2, [])
        assert "0 and 1" in err

    @pytest.mark.parametrize("name", sorted(p.stem for p in MORPHISM_DIR.glob("*.morph")))
    def test_morphic_gen_matches_stream(self, name, capsysbinary):
        # the CLI codes the prefix bytes itself, one translate where it can
        path = MORPHISM_DIR / f"{name}.morph"
        system = words.parse_morphism_file(path)
        for n in (1, 7, 8, 4097, 3 * 2**16 + 5):
            symbols = words.fixed_point_stream(system, n)
            assert main(["seq", "gen", "--kind", f"morphic:{path}", "-N", str(n)]) == 0
            assert capsysbinary.readouterr().out == ("".join(symbols) + "\n").encode()
            if set(symbols) <= {"0", "1"}:
                argv = ["seq", "gen", "--kind", f"morphic:{path}", "-N", str(n), "--format", "bits"]
                assert main(argv) == 0
                bits = np.array(symbols, dtype=np.uint8)
                want = np.packbits(bits, bitorder="little").tobytes()
                assert capsysbinary.readouterr().out == want

    def test_multi_character_coding_ascii(self, capsysbinary, tmp_path):
        path = tmp_path / "coded.morph"
        path.write_text("letters: a b\nstart: a\na -> a b\nb -> a\ncoding: a=xy b=\u03b1\n",
                        encoding="utf-8")
        assert main(["seq", "gen", "--kind", f"morphic:{path}", "-N", "5"]) == 0
        assert capsysbinary.readouterr().out == "xy\u03b1xyxy\u03b1\n".encode()

    def test_threads_flag_is_inert(self, capsys):
        base = run(capsys, "seq", "gen", "--kind", "s2", "-N", "50")
        threaded = run(capsys, "seq", "gen", "--kind", "s2", "-N", "50", "--threads", "4")
        assert base == threaded


class TestMorphism:
    def test_analyze_json(self, capsys):
        code, out, _ = run(capsys, "morphism", "analyze", TM)
        assert code == 0
        doc = json.loads(out)
        assert doc["alphabet"] == ["0", "1"]
        assert doc["incidence_matrix"] == [["1", "1"], ["1", "1"]]
        assert doc["growth"]["alpha"] == 2.0
        assert doc["growth"]["l"] == 0
        assert doc["growth"]["T"] == 1
        assert doc["components"] == [
            {"letters": ["0", "1"], "rho": 2.0, "cyclicity": 1}
        ]
        assert doc["letter_growth"]["1"]["beta"] == 2.0
        assert doc["letter_growth"]["1"]["eventually_zero"] is False

    def test_iterate_default_start(self, capsys):
        code, out, _ = run(capsys, "morphism", "iterate", FIB, "--k", "3")
        assert code == 0
        assert out == "a b a a b\n"

    def test_iterate_explicit_letter(self, capsys):
        code, out, _ = run(capsys, "morphism", "iterate", FIB, "--k", "2", "--letter", "b")
        assert code == 0
        assert out == "a b\n"

    def test_iterate_cap(self, capsys):
        code, _, err = run(
            capsys, "morphism", "iterate", TM, "--k", "50", "--max-letters", "1000000"
        )
        assert code == 3
        assert "cap" in err


class TestSeqCount:
    def test_sieve_csv(self, capsys):
        code, out, _ = run(
            capsys, "seq", "count", "--kind", "s2", "--checkpoints", "geo:10:10:1000"
        )
        assert code == 0
        assert out == "N,B\n10,8\n100,44\n1000,331\n"

    def test_morphic_csv_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "seq", "count", "--kind", f"morphic:{FIB}",
            "--checkpoints", "geo:1:2:64",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,B"
        from morphcert.words import count_in_prefix, parse_morphism_file

        sys_ = parse_morphism_file(FIB)
        for line in lines[1:]:
            n, b = map(int, line.split(","))
            assert b == count_in_prefix(sys_, "0", n)

    def test_symbol_flag(self, capsys):
        _, out_default, _ = run(
            capsys, "seq", "count", "--kind", f"morphic:{TM}",
            "--checkpoints", "geo:4:2:64",
        )
        _, out_other, _ = run(
            capsys, "seq", "count", "--kind", f"morphic:{TM}",
            "--checkpoints", "geo:4:2:64", "--symbol", "1",
        )
        # Thue-Morse prefixes at powers of two split evenly between 0s and 1s
        assert out_other == out_default

    def test_morphic_far_checkpoints(self, capsys):
        # 1024 * 2^j up to 2^100: counted from the level table, not streamed
        code, out, _ = run(
            capsys, "seq", "count", "--kind", f"morphic:{TM}",
            "--checkpoints", f"geo:1024:2:{2**100}",
        )
        assert code == 0
        lines = out.split()
        assert lines[0] == "N,B" and len(lines) == 92
        for line in lines[1:]:
            n, b = map(int, line.split(","))
            assert 2 * b == n

    def test_bad_schedule(self, capsys):
        cases = [
            ("lin:1:2:3", 1),
            ("geo:1:x:3", 1),
            ("geo:4:nan:64", 1),
            ("geo:4:inf:64", 1),
            (f"geo:1:2:{10**400}", 2),  # 2.0**1024 leaves the float range
        ]
        for schedule, code in cases:
            got = run(capsys, "seq", "count", "--kind", "s2", "--checkpoints", schedule)[0]
            assert got == code, schedule


class TestFit:
    def test_round_trip_logdamped(self, capsys, tmp_path):
        _, csv, _ = run(
            capsys, "seq", "count", "--kind", "s2", "--checkpoints",
            "geo:4096:2:1000000",
        )
        path = tmp_path / "counts.csv"
        path.write_text(csv)
        code, out, _ = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "logdamped"
        assert 0.0 < doc["gamma"] < 1.0
        assert doc["gamma_ci"][0] < doc["gamma"] < doc["gamma_ci"][1]
        assert doc["n_points"] == 8

    def test_round_trip_polyexp(self, capsys, tmp_path):
        _, csv, _ = run(
            capsys, "seq", "count", "--kind", f"morphic:{TM}",
            "--checkpoints", "geo:2:2:4096",
        )
        path = tmp_path / "tm.csv"
        path.write_text(csv)
        code, out, _ = run(capsys, "fit", "--model", "polyexp", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        # counts at N = 2^j (j >= 1) are 2^(j-1): pure exponential in row index
        assert doc["log_beta"] == pytest.approx(math.log(2), abs=1e-6)
        assert doc["residual"] < 1e-9

    def test_headerless_csv(self, capsys, tmp_path):
        rows = [(2**j, round(0.8 * 2**j / math.log(2**j) ** 0.5)) for j in range(10, 20)]
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(f"{n},{c}" for n, c in rows) + "\n")
        code, out, _ = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
        assert code == 0
        assert json.loads(out)["n_points"] == 10

    def test_malformed_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("N,B\n10,8\nwhoops\n")
        code, _, err = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
        assert code == 2
        assert "expected" in err

    def test_numeric_first_line_is_data(self, capsys, tmp_path):
        # a header is a first line whose first field is not a number; any
        # other first line is data, and "1e3" is not a count the fit reads
        rows = "".join(f"{2**j},{2**j // 3}\n" for j in range(12, 22))
        path = tmp_path / "counts.csv"
        for head in ("1e3,5", "1024,B", "-1.5,2"):
            path.write_text(f"{head}\n{rows}")
            code, out, err = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
            assert (code, out) == (2, ""), head
            assert err == f"error: {path}:1: expected 'N,count', got {head!r}\n"
        for head in ("N,B", "n, count", "N", ",B"):
            path.write_text(f"{head}\n{rows}")
            code, out, _ = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
            assert code == 0, head
            assert json.loads(out)["n_points"] == 10

    def test_counts_past_the_float_range(self, capsys, tmp_path):
        # N/count past the largest double: one error line and exit code 2;
        # polyexp indexes the rows by k = 1, 2, ..., so it still fits
        path = tmp_path / "huge.csv"
        path.write_text("N,count\n" + "".join(f"{10**400 * j},{j}\n" for j in range(1, 13)))
        code, out, err = run(capsys, "fit", "--model", "logdamped", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: logdamped fit needs N/count within the float range\n"
        code, out, _ = run(capsys, "fit", "--model", "polyexp", "--input", str(path))
        assert code == 0
        assert json.loads(out)["n_points"] == 12

    def test_missing_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "fit", "--model", "logdamped", "--input", str(tmp_path / "nope.csv")
        )
        assert code == 2


class TestCertify:
    def test_stdout_report(self, capsys):
        code, out, _ = run(capsys, "certify", "--source", f"morphic:{TM}")
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"] == "morphic_compatible"
        assert doc["preferred_model"] == "polyexp"

    def test_fibonacci_example(self, capsys):
        code, out, _ = run(capsys, "certify", "--source", f"morphic:{FIB}")
        assert code == 0
        assert json.loads(out)["conclusion"] == "morphic_compatible"

    def test_small_n_is_inconclusive_but_ok(self, capsys):
        code, out, _ = run(capsys, "certify", "--source", "s2", "-N", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"] == "inconclusive"
        assert doc["checkpoints"] == []

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "certify", "--source", "s2", "-N", "1048576", "-o", str(path)
        )
        assert code == 0
        assert out == ""
        assert "non_morphic_conditional" in err
        doc = json.loads(path.read_text())
        assert doc["conclusion"] == "non_morphic_conditional"
        assert doc["config"]["min_N"] == 4096

    def test_byte_identical_reruns(self, capsys):
        a = run(capsys, "certify", "--source", "s2", "-N", "1048576")
        b = run(capsys, "certify", "--source", "s2", "-N", "1048576")
        assert a == b

    def test_unknown_source(self, capsys):
        code, _, err = run(capsys, "certify", "--source", "collatz")
        assert code == 1
        assert "usage error" in err


class TestReportChunks:
    """The certify report's text is json.dumps of to_json_dict, byte for byte."""

    @staticmethod
    def assert_dumps_alike(report):
        if len(report.checkpoints) <= 2**16:
            want = json.dumps(report.to_json_dict(), indent=2) + "\n"
            assert "".join(cli._report_chunks(report)) == want
            return
        # json.dumps joins the encoder's pieces: hashing them as they come
        # keeps column's 2^20 rows at about 450 MiB, not 1 GiB
        want, got = hashlib.sha256(), hashlib.sha256()
        for piece in json.JSONEncoder(indent=2).iterencode(report.to_json_dict()):
            want.update(piece.encode())
        want.update(b"\n")
        for piece in cli._report_chunks(report):
            got.update(piece.encode())
        assert got.hexdigest() == want.hexdigest()

    @pytest.mark.parametrize("source", [
        "s2", "s2nz", *(f"morphic:morphisms/{stem}.morph" for stem in
                        ("chain", "column", "doubling", "fibonacci", "thue_morse"))])
    def test_golden_commands(self, source, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        self.assert_dumps_alike(certify.certify_nonmorphic(source))

    @pytest.mark.parametrize("symbol", ["a", "b"])
    def test_column_counts(self, symbol):
        config = certify.CertifyConfig(max_n=2**14, symbol=symbol)
        report = certify.certify_nonmorphic(f"morphic:{COLUMN}", config)
        assert len(report.checkpoints) == 2**14
        self.assert_dumps_alike(report)

    def test_object_columns_past_int64(self, tmp_path):
        path = tmp_path / "triple.morph"
        path.write_text("letters: a b\nstart: a\na -> a b\nb -> b b b\n")
        config = certify.CertifyConfig(max_n=10**30, symbol="b")
        report = certify.certify_nonmorphic(f"morphic:{path}", config)
        assert report.checkpoints.first.dtype == object
        assert report.checkpoints[-1][0] > 2**63
        self.assert_dumps_alike(report)

    def test_no_checkpoints(self):
        report = certify.certify_nonmorphic("s2", certify.CertifyConfig(max_n=100))
        assert not report.checkpoints
        self.assert_dumps_alike(report)
        self.assert_dumps_alike(dataclasses.replace(
            certify.certify_nonmorphic(f"morphic:{FIB}"), checkpoints=()))

    def test_path_with_quotes_and_non_ascii(self, capsys, tmp_path):
        # the sequence id holds the path: escaped quotes, backslash and \u
        # escapes sit before the checkpoints in the dump
        path = tmp_path / 'say "ab\\c" \u00e9\u2713 "checkpoints": [],.morph'
        path.write_text((MORPHISM_DIR / "fibonacci.morph").read_text())
        report = certify.certify_nonmorphic(f"morphic:{path}")
        assert str(path) == report.sequence_id.partition(":")[2]
        self.assert_dumps_alike(report)
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "certify", "--source", f"morphic:{path}", "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()


def _loads_scipy(*commands):
    """Run cli.main on each argv in one new interpreter; did scipy get imported?"""
    script = (
        "import json, sys\n"
        "from morphcert import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "sys.stderr.write(f\"scipy loaded: {'scipy' in sys.modules}\\n\")\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, check=True)
    return done.stderr.splitlines()[-1] == "scipy loaded: True"


class TestColdPaths:
    def test_common_commands_do_not_load_scipy(self, tmp_path):
        rows = [(2**j, round(0.8 * 2**j / math.log(2**j) ** 0.5)) for j in range(10, 22)]
        csv = tmp_path / "counts.csv"
        csv.write_text("".join(f"{n},{c}\n" for n, c in rows))
        assert not _loads_scipy(
            ["certify", "--source", "s2", "-N", "1048576"],
            ["certify", "--source", "morphic:morphisms/thue_morse.morph"],
            ["fit", "--model", "logdamped", "--input", str(csv)],
        )

    def test_more_degrees_of_freedom_than_the_table_load_scipy(self):
        # chain's report fits 1358 points: dof 1356
        assert _loads_scipy(["certify", "--source", "morphic:morphisms/chain.morph"])


class TestLrConstant:
    def test_euler_p3_is_three_quarters(self, capsys):
        code, out, _ = run(capsys, "lr-constant", "--method", "euler", "--bound", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0.75
        assert doc["method"] == "euler_product"
        assert doc["parameter"] == 3
        assert doc["tail_bound"] == pytest.approx(math.expm1(0.5))

    def test_euler_p2_no_odd_primes(self, capsys):
        _, out, _ = run(capsys, "lr-constant", "--method", "euler", "--bound", "2")
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sieve_estimate_band(self, capsys):
        code, out, _ = run(
            capsys, "lr-constant", "--method", "sieve", "--bound", "1000000"
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.76 < doc["value"] < 0.90
        assert "tail_bound" not in doc

    def test_float_emission_round_trips(self, capsys):
        _, out, _ = run(capsys, "lr-constant", "--method", "sieve", "--bound", "1000000")
        value = json.loads(out)["value"]
        assert repr(value) in out  # shortest round-trip decimal, byte-stable


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        assert run(capsys, "seq", "gen", "--wat", "1")[0] == 1
        assert run(capsys, "seq", "gen", "--kind", "s2", "-N", "0")[0] == 1
        assert run(capsys, "seq", "gen", "--kind", "wat", "-N", "4")[0] == 1
        assert run(capsys, "seq", "gen", "--kind", "s2", "-N", "4", "--threads", "0")[0] == 1

    def test_parse_errors_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.morph"
        bad.write_text("letters: a b\nstart: a\na -> a b\n")  # no rule for b
        assert run(capsys, "morphism", "analyze", str(bad))[0] == 2
        erasing = tmp_path / "erasing.morph"
        erasing.write_text("letters: a b\nstart: a\na -> a b\nb ->\n")
        assert run(capsys, "morphism", "analyze", str(erasing))[0] == 2
        assert run(capsys, "morphism", "analyze", str(tmp_path / "nope.morph"))[0] == 2

    def test_malformed_files_exit_2(self, capsys, tmp_path):
        # bytes that are not UTF-8, and CSV fields that str.isdigit passes
        # but int() does not read, the last one past its digit limit
        latin = tmp_path / "latin1.morph"
        latin.write_bytes(b"letters: a b\nstart: a\na -> a b\nb -> a\n# caf\xe9\n")
        latin_csv = tmp_path / "latin1.csv"
        latin_csv.write_bytes(b"N,B\n1024,caf\xe9\n")
        cases = [
            ["morphism", "analyze", str(latin)],
            ["certify", "--source", f"morphic:{latin}"],
            ["seq", "gen", "--kind", f"morphic:{latin}", "-N", "8"],
            ["fit", "--model", "logdamped", "--input", str(latin_csv)],
        ]
        for i, field in enumerate(("--5", "\u00b2", "1\u00b2", "7" * 5000)):
            path = tmp_path / f"field{i}.csv"
            path.write_text(f"N,B\n1024,800\n{field},3\n", encoding="utf-8")
            cases.append(["fit", "--model", "polyexp", "--input", str(path)])
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "Traceback" not in err

    def test_unknown_symbol_exit_2(self, capsys):
        # a sieve source has no symbols, so any --symbol is unknown there
        for argv in (
            ["seq", "count", "--kind", f"morphic:{TM}", "--checkpoints", "geo:4:2:64",
             "--symbol", "z"],
            ["seq", "count", "--kind", "s2nz", "--checkpoints", "geo:4:2:64",
             "--symbol", "1"],
            ["certify", "--source", "s2", "--symbol", "zz"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "symbol" in err

    def test_resource_errors_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("MORPH_MEM_MB", "1")
        assert run(capsys, "seq", "gen", "--kind", "s2", "-N", "10000000")[0] == 3
        # column has a level at every N: 10^9 of them are refused, not allocated
        assert run(capsys, "certify", "--source", f"morphic:{COLUMN}", "-N", "1000000000")[0] == 3

    @pytest.mark.parametrize("argv", [
        ["certify", "--source", f"morphic:{TM}"],
        ["certify", "--source", "s2nz", "-N", "100000"],
        ["seq", "count", "--kind", f"morphic:{TM}", "--checkpoints", "geo:4:2:64"],
        ["seq", "count", "--kind", "s2", "--checkpoints", "geo:4:2:64"],
        ["seq", "gen", "--kind", f"morphic:{TM}", "-N", "8"],
    ])
    def test_each_command_resolves_its_source_once(self, argv, capsys, monkeypatch):
        calls = []
        for module, name in ((certify, "resolve_source"), (words, "parse_morphism_file")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        assert run(capsys, *argv)[0] == 0
        parses = ["parse_morphism_file"] if "morphic:" in " ".join(argv) else []
        assert calls == ["resolve_source"] + parses

    def test_bad_mem_env_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("MORPH_MEM_MB", "many")
        assert run(capsys, "seq", "gen", "--kind", "s2", "-N", "10")[0] == 1

    def test_mem_env_allows_small_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("MORPH_MEM_MB", "64")
        code, out, _ = run(capsys, "seq", "gen", "--kind", "s2", "-N", "10")
        assert (code, out) == (0, "11101100111\n")
