"""morphcert command-line frontend: reproducible batch runs over all modules.

Exit codes: 0 success, 1 usage error, 2 input parse/validation error,
3 resource or convergence failure. stdout carries data, stderr diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import certify, numtheory, spectral, words
from .errors import (
    DomainError,
    NonConvergence,
    ParseError,
    ResourceError,
    UnknownSource,
    UnknownSymbol,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# a report's checkpoint rows as _dumps lays them out; their fields are digit
# strings, so plain formatting writes what the JSON encoder would
_CHECKPOINT_ROW = ',\n    {\n      "N": "%s",\n      "count": "%s"\n    }'
_NO_CHECKPOINTS = '\n  "checkpoints": [],\n'
_ROWS_PER_CHUNK = 1 << 14


def _report_chunks(report: certify.CertificateReport) -> Iterator[str]:
    """_dumps(report.to_json_dict()) in pieces, without a dict per checkpoint.

    The rest of the report is dumped with no checkpoints, and the rows are
    formatted into its empty list a chunk at a time: at 2^20 checkpoints the
    JSON encoder's indented (pure-Python) pass costs seconds and the dicts a
    few hundred MiB."""
    rest = _dumps(dataclasses.replace(report, checkpoints=()).to_json_dict())
    if not report.checkpoints:
        yield rest
        return
    head, tail = rest.split(_NO_CHECKPOINTS, 1)
    rows = map(_CHECKPOINT_ROW.__mod__, report.checkpoints)
    yield head + '\n  "checkpoints": [' + next(rows)[1:]
    while chunk := "".join(islice(rows, _ROWS_PER_CHUNK)):
        yield chunk
    yield "\n  ],\n" + tail


# per seq count checkpoint: the schedule's int 32 B, list slot 8 and 8 for
# lists' spare room; then a sieve kind's four int64 columns (checkpoints, sort
# order, sorted, counts) 32, or a morphic kind's count int 32, pair 56, slots 16
_SIEVE_ROW_BYTES = 80
_MORPHIC_ROW_BYTES = 152


def _mem_budget() -> int:
    raw = os.environ.get("MORPH_MEM_MB")
    if raw is None:
        return numtheory.DEFAULT_MEM_BYTES
    try:
        mb = int(raw)
        if mb < 1:
            raise ValueError
    except ValueError:
        raise _UsageError(f"MORPH_MEM_MB must be a positive integer, got {raw!r}") from None
    return mb * 2**20


def _positive(kind: str):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{kind} must be an integer") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{kind} must be >= 1")
        return value

    return convert


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive("--threads"),
        default=1,
        help="accepted for compatibility; runs are sequential and output is "
        "byte-identical for any value",
    )


def cmd_morphism_analyze(args) -> int:
    system = words.parse_morphism_file(Path(args.file))
    sys.stdout.write(_dumps(spectral.analysis_report(system)))
    return EXIT_OK


def cmd_morphism_iterate(args) -> int:
    system = words.parse_morphism_file(Path(args.file))
    m = system.morphism
    letter = args.letter if args.letter is not None else system.start_id
    start = m.alphabet.index(letter)
    word = words.iterate(m, bytes([start]), args.k, max_len=args.max_letters)
    sys.stdout.write(" ".join(m.alphabet.decode(word)) + "\n")
    return EXIT_OK


def cmd_seq_gen(args) -> int:
    budget = _mem_budget()
    source = certify.resolve_source(args.kind)
    system = source.system
    if system is None:
        bits = source.sieve_table(args.N, budget).bits
    else:
        if args.format == "bits" and any(s not in ("0", "1") for s in system.symbols()):
            raise ValidationError("--format bits needs a coding onto symbols 0 and 1")
        # the letters as bytes, coded by one translate where the symbols allow
        data = b"".join(words._prefix_blocks(system, args.N))
        if args.format == "ascii":
            table = words._symbol_table(system.coding)
            if table is None:
                sys.stdout.write("".join([system.coding[ch] for ch in data]))
            else:
                sys.stdout.write(data.translate(table).decode("latin-1"))
            sys.stdout.write("\n")
            return EXIT_OK
        bits = np.frombuffer(data.translate(words._symbol_table(system.coding, ord("0"))), np.uint8)
        del data
    # block by block, so the output costs O(block) beside the table
    blocks = (bits[lo:lo + numtheory._BLOCK] for lo in range(0, bits.size, numtheory._BLOCK))
    if args.format == "ascii":
        for block in blocks:
            sys.stdout.write((block + ord("0")).tobytes().decode("ascii"))
        sys.stdout.write("\n")
    else:
        for block in blocks:
            sys.stdout.buffer.write(np.packbits(block, bitorder="little").tobytes())
        sys.stdout.buffer.flush()
    return EXIT_OK


def _parse_schedule(text: str) -> tuple[int, float, int]:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "geo":
        raise _UsageError("--checkpoints must look like geo:<N0>:<ratio>:<max>")
    try:
        n0 = int(parts[1])
        ratio = float(parts[2])
        max_n = int(parts[3])
    except ValueError:
        raise _UsageError("--checkpoints must look like geo:<N0>:<ratio>:<max>") from None
    if not math.isfinite(ratio):
        raise _UsageError("--checkpoints ratio must be finite")
    return n0, ratio, max_n


def cmd_seq_count(args) -> int:
    budget = _mem_budget()
    n0, ratio, max_n = _parse_schedule(args.checkpoints)
    size = certify._schedule_size(n0, ratio, max_n)  # charged before the schedule is built
    source = certify.resolve_source(args.kind, args.symbol)
    row_bytes = _SIEVE_ROW_BYTES if source.system is None else _MORPHIC_ROW_BYTES
    # a morphic kind also holds its level tables, up to their ceiling
    held = row_bytes * size + (0 if source.system is None else words._TABLE_BYTES)
    if held > budget:
        raise ResourceError(f"{size} checkpoints need about {held} bytes, budget is {budget}")
    cps = certify.geometric_checkpoints(n0, ratio, max_n)
    if source.system is None:
        entries = source.sieve_counts(max_n, cps, budget - row_bytes * len(cps)).entries
    else:
        entries = words.prefix_count_series(source.system, source.symbol, cps)
    sys.stdout.write("N,B\n")
    for i in range(0, len(entries), 4096):  # rows joined per write
        sys.stdout.write("".join(f"{n},{b}\n" for n, b in entries[i:i + 4096]))
    return EXIT_OK


def _read_counts_csv(path: Path) -> list[tuple[int, int]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    rows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1:
            try:
                float(fields[0])
            except ValueError:
                continue  # header row; a numeric first field, even "1e3", is data
        if len(fields) != 2 or not all(f.lstrip("-").isdigit() for f in fields):
            raise ParseError(f"{path}:{lineno}: expected 'N,count', got {line!r}")
        try:
            rows.append((int(fields[0]), int(fields[1])))
        except ValueError as exc:  # "--5" and "²" pass isdigit; int() also caps digits
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return rows


def cmd_fit(args) -> int:
    rows = _read_counts_csv(Path(args.input))
    if args.model == "logdamped":
        profile = certify.fit_logdamped(rows)
        ci = certify.gamma_confidence(rows, profile)
        payload = {
            "model": "logdamped",
            "C": profile.C,
            "gamma": profile.gamma,
            "gamma_ci": list(ci),
            "residual": profile.fit_residual,
            "n_points": profile.n_points,
        }
    else:
        # the poly-exponential model is indexed by iteration number, not N:
        # rows are taken in file order with k = 1, 2, ...
        points = [(k, count) for k, (_, count) in enumerate(rows, 1)]
        profile = certify.fit_polyexp(points)
        payload = {
            "model": "polyexp",
            "logGp": profile.logGp,
            "m": profile.m_fit,
            "log_beta": profile.log_beta_fit,
            "residual": profile.fit_residual,
            "n_points": len(points),
        }
    sys.stdout.write(_dumps(payload))
    return EXIT_OK


def cmd_certify(args) -> int:
    config = certify.CertifyConfig(
        max_n=args.N,
        symbol=args.symbol,
        mem_budget=_mem_budget(),
    )
    report = certify.certify_nonmorphic(args.source, config)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(_report_chunks(report))
        print(f"wrote {args.output} ({report.conclusion})", file=sys.stderr)
    else:
        sys.stdout.writelines(_report_chunks(report))
    return EXIT_OK


def cmd_lr_constant(args) -> int:
    budget = _mem_budget()
    if args.method == "euler":
        est = numtheory.lr_euler_product(args.bound, mem_budget=budget)
        payload = {
            "method": est.method,
            "parameter": est.parameter,
            "value": est.value,
            "tail_bound": est.tail_bound,
        }
    else:
        series = numtheory.count_s2_additive(args.bound, [args.bound], mem_budget=budget)
        est = numtheory.lr_estimate_sieve(series)[0]
        payload = {
            "method": est.method,
            "parameter": est.parameter,
            "value": est.value,
        }
    sys.stdout.write(_dumps(payload))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="morphcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    morphism = sub.add_parser("morphism", help="morphism file operations")
    msub = morphism.add_subparsers(dest="subcommand", required=True)

    analyze = msub.add_parser("analyze", help="growth analysis as JSON")
    analyze.add_argument("file")
    analyze.set_defaults(func=cmd_morphism_analyze)

    iterate = msub.add_parser("iterate", help="print phi^k(letter)")
    iterate.add_argument("file")
    iterate.add_argument("--k", type=int, required=True)
    iterate.add_argument("--letter", default=None, help="defaults to the start letter")
    iterate.add_argument(
        "--max-letters",
        type=_positive("--max-letters"),
        default=words.DEFAULT_ITERATE_CAP,
        help="output length cap",
    )
    iterate.set_defaults(func=cmd_morphism_iterate)

    seq = sub.add_parser("seq", help="sequence generation and counting")
    ssub = seq.add_subparsers(dest="subcommand", required=True)

    gen = ssub.add_parser("gen", help="emit a 0/1 (or coded) sequence")
    gen.add_argument("--kind", required=True, help="s2 | s2nz | morphic:<file>")
    gen.add_argument("-N", type=_positive("-N"), required=True,
                     help="sieve kinds emit N+1 symbols (n = 0..N); morphic kinds emit N")
    gen.add_argument("--format", choices=("ascii", "bits"), default="ascii")
    _add_threads(gen)
    gen.set_defaults(func=cmd_seq_gen)

    count = ssub.add_parser("count", help="emit CSV counts at checkpoints")
    count.add_argument("--kind", required=True, help="s2 | s2nz | morphic:<file>")
    count.add_argument("--checkpoints", required=True, help="geo:<N0>:<ratio>:<max>")
    count.add_argument("--symbol", default=None,
                       help="morphic kinds: symbol to count (default: coding of start)")
    _add_threads(count)
    count.set_defaults(func=cmd_seq_count)

    fit = sub.add_parser("fit", help="fit a density model to a counts CSV")
    fit.add_argument("--model", choices=("logdamped", "polyexp"), required=True)
    fit.add_argument("--input", required=True, help="CSV of N,count rows")
    fit.set_defaults(func=cmd_fit)

    cert = sub.add_parser("certify", help="run the non-morphicity certifier")
    cert.add_argument("--source", required=True, help="s2 | s2nz | morphic:<file>")
    cert.add_argument("-N", type=_positive("-N"), default=certify.CertifyConfig.max_n,
                      help="largest checkpoint (default %(default)s)")
    cert.add_argument("-o", "--output", default=None,
                      help="write the report here instead of stdout")
    cert.add_argument("--symbol", default=None,
                      help="morphic sources: symbol to certify (default: coding of start)")
    _add_threads(cert)
    cert.set_defaults(func=cmd_certify)

    lr = sub.add_parser("lr-constant", help="Landau-Ramanujan constant estimates")
    lr.add_argument("--method", choices=("euler", "sieve"), required=True)
    lr.add_argument("--bound", type=_positive("--bound"), required=True,
                    help="prime bound (euler) or sieve limit (sieve)")
    _add_threads(lr)
    lr.set_defaults(func=cmd_lr_constant)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, UnknownSource) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, UnknownSymbol, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceError, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
