"""The four workloads, each a generator of rounds of checked operations.

A round has a fixed composition of slots: the seed draws the sizes (inside
each slot's size class), the random morphisms and the order, never the mix.
Every round of a workload therefore costs about the same whatever the seed,
and a run repeats rounds until its time is up.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles as orc
from inputs import (SAMPLES, MorphSpec, level_vectors, log_uniform, max_level,
                    random_morphism, read_sample, spread_levels, strata)

HERE = Path(__file__).resolve().parent
MIB = 2**20


@dataclass
class Op:
    """One timed call, the check of its output and a corruption that must fail it."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    corrupt: Callable[[Any], Any]
    slot: Any = None  # the op's place in the round's fixed composition


@dataclass
class Context:
    root: Path
    tmp: Path
    mods: SimpleNamespace        # numtheory, words, spectral, certify
    counts: dict                 # stored s2 / s2' oracle counts
    tiny: bool = False           # self-check sizes
    seen: dict = field(default_factory=dict)    # CLI argv -> first stdout
    cli_ops: list = field(default_factory=list)  # the CLI runs, drawn once per run
    trace_dir: Path | None = None               # set: CLI children are traced
    n_files: int = 0
    cli_peak_mib: float = 0.0                   # largest peak RSS of a CLI child

    def sample(self, name: str) -> tuple[MorphSpec, Path]:
        path = self.root / "morphisms" / f"{name}.morph"
        return read_sample(path), path

    def write(self, spec: MorphSpec) -> Path:
        self.n_files += 1
        spec = MorphSpec(f"{spec.name}_{self.n_files}", spec.letters, spec.images,
                         spec.start, spec.coding)
        return spec.write(self.tmp)

    def child_env(self) -> dict:
        if self.trace_dir is None:
            return child_env(self.root)
        self.n_files += 1
        return child_env(self.root, self.trace_dir / f"child-{self.n_files}.json")


def child_env(root: Path, trace_out: Path | None = None) -> dict:
    """Environment of a child process: the checkout's sources, traced if trace_out is set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PERFBENCH_TRACE_OUT", None)
    if trace_out is not None:
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
    return env


def run_child(argv: list, root: Path, env: dict, tmp: Path, timeout: float = 150):
    """Run a child process to its end.

    Returns its exit code, its stdout and stderr, and the CPU seconds and peak
    RSS of the child alone, from ``wait4``. A child still running at
    `timeout`, or when the run is interrupted, is killed and waited for.
    """
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        try:
            deadline = time.monotonic() + timeout
            while proc.returncode is None:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                elif time.monotonic() > deadline:
                    raise TimeoutError(f"{argv[1:]} still running after {timeout} s")
                else:
                    time.sleep(0.005)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
            raise
        out.seek(0)
        err.seek(0)
        return SimpleNamespace(code=proc.returncode, stdout=out.read(), stderr=err.read(),
                               cpu_s=usage.ru_utime + usage.ru_stime,
                               rss_mib=usage.ru_maxrss * 1024 / MIB)


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random, Context], list]
    min_rounds: int
    in_process: bool = True

    @property
    def tail_beyond(self) -> int:
        """Slots of the typical round above its op_tail_s slot.

        Each slot's time is the median of at least `min_rounds` op times, so
        the slots beyond the tail slot hold at least ten op times.
        """
        return math.ceil(10 / self.min_rounds)


def _shuffled(rng: random.Random, ops: list) -> list:
    """The round in random order; an op without a slot keeps its place in the composition."""
    for i, op in enumerate(ops):
        if op.slot is None:
            op.slot = i
    rng.shuffle(ops)
    return ops


# --- sieve-certify -------------------------------------------------------------

CERTIFY_SIZES = (1e6, 1e6, 3e6, 3e6, 1e7, 1e7, 3e7, 3e7, 1e8)  # s2, s2nz, s2, ...; 1e8 is s2


def sieve_certify(rng: random.Random, ctx: Context) -> list[Op]:
    nt, cert = ctx.mods.numtheory, ctx.mods.certify
    scale = 1e-2 if ctx.tiny else 1.0
    ops = []
    for i, size in enumerate(CERTIFY_SIZES):
        source = ("s2", "s2nz")[i % 2]
        N = int(size * scale * rng.uniform(0.95, 1.0))
        ops.append(Op(
            f"certify {source} ~{size:.0e}",
            lambda s=source, N=N: cert.certify_nonmorphic(s, cert.CertifyConfig(max_n=N)),
            lambda r, s=source, N=N: orc.check_sieve_report(r, s, N, ctx.counts),
            orc.corrupt_report))
    if ctx.tiny:
        Nv, P, bound = 2**17, 10**5, 100
    else:
        # the stored oracle point nearest 1e7; the draws stay narrow so that
        # rounds cost the same whatever the seed
        Nv = min(ctx.counts, key=lambda n: abs(n - 10**7))
        P, bound = int(1e7 * rng.uniform(0.95, 1.0)), rng.randint(950, 1050)
    ops += [
        Op("diff_bound_check", lambda: nt.diff_bound_check(Nv),
           lambda r: orc.check_diff_bound(r, Nv), lambda r: (r[0], r[1] + 1)),
        Op("sieve_s2_multiplicative", lambda: nt.sieve_s2_multiplicative(Nv),
           lambda t: orc.check_table_count(t, Nv, ctx.counts), _flip_bit),
        Op("lr_euler_product", lambda: nt.lr_euler_product(P),
           lambda e: orc.check_euler(e, P),
           lambda e: nt.LrEstimate(e.method, e.value * 1.01, e.parameter, e.tail_bound)),
        Op("multiplicativity_check",
           lambda: nt.multiplicativity_check(nt.sieve_s2_additive(Nv), bound),
           orc.check_multiplicativity, lambda r: (2, 3)),
    ]
    return _shuffled(rng, ops)


def _flip_bit(table):
    bits = table.bits.copy()
    bits[-1] ^= 1
    return SimpleNamespace(limit=table.limit, bits=bits)


# --- morphic-stream ------------------------------------------------------------

def _stream_systems(rng: random.Random, ctx: Context) -> list[tuple[MorphSpec, Any]]:
    specs = [ctx.sample(name)[0] for name in SAMPLES]
    # four letters with two-letter images: the stream's cost per letter grows
    # with image lengths and with the letters behind a symbol, and fixing both
    # keeps it steady from seed to seed
    specs += [random_morphism(rng, "rand", 4, (2,), 2) for _ in range(2)]
    words = ctx.mods.words
    return [(spec, words.parse_morphism_file(ctx.write(spec))) for spec in specs]


def morphic_stream(rng: random.Random, ctx: Context) -> list[Op]:
    words = ctx.mods.words
    systems = _stream_systems(rng, ctx)
    n = len(systems)
    top = 2**15 if ctx.tiny else 2**21
    # each op kind pairs the inputs with the size classes differently
    pcs_n = strata(rng, top / 128, top, n, 0)
    cip_n = strata(rng, top / 128, top / 2, n, 1)
    fps_n = strata(rng, top / 512, top / 4, n, 2)
    work = strata(rng, top / 128, top, n, 3)
    ops = []
    for i, (spec, system) in enumerate(systems):
        symbol = rng.choice(sorted(set(spec.coding)))
        targets = spec.targets(symbol)

        n_max = int(pcs_n[i])
        levels = spread_levels(max_level(spec, n_max), 12)
        cps = sorted(set(orc.sieve_checkpoints(n_max))
                     | {n for _, n in orc.level_points(spec, levels)})
        ops.append(Op(
            "prefix_count_series",
            lambda s=system, y=symbol, c=cps: words.prefix_count_series(s, y, c),
            lambda r, c=cps, sp=spec, y=symbol: orc.check_prefix_series(r, c, sp, y),
            orc.corrupt_pairs, ("prefix_count_series", i)))

        # any prefix length, not only an N_k: snapping to the level below would
        # change the op's size by up to alpha from seed to seed
        n_cip = int(cip_n[i])
        want = orc.prefix_count(spec, targets, n_cip)
        ops.append(Op(
            "count_in_prefix",
            lambda s=system, y=symbol, n=n_cip: words.count_in_prefix(s, y, n),
            lambda r, w=want: orc.check_count(r, w, "count_in_prefix"),
            lambda r: r + 1, ("count_in_prefix", i)))

        m = int(fps_n[i])
        levels = spread_levels(max_level(spec, m), 12)
        ops.append(Op(
            "fixed_point_stream",
            lambda s=system, m=m: words.fixed_point_stream(s, m),
            lambda r, m=m, sp=spec, lv=levels: orc.check_stream(r, m, sp, lv),
            orc.corrupt_stream, ("fixed_point_stream", i)))

        w = bytes([spec.start] + [rng.randrange(spec.d) for _ in range(rng.randint(0, 2))])
        k = _iterate_depth(spec, w, int(work[i]))
        ops.append(Op(
            "iterate",
            lambda s=system, w=w, k=k: words.iterate(s.morphism, w, k),
            lambda r, sp=spec, w=w, k=k: orc.check_iterate(r, sp, w, k),
            orc.corrupt_bytes, ("iterate", i)))
    return _shuffled(rng, ops)


def _iterate_depth(spec: MorphSpec, w: bytes, work: int) -> int:
    """Largest k whose passes phi(w), ..., phi^k(w) write at most `work` letters in all."""
    total = 0
    levels = level_vectors(spec, [w.count(t) for t in range(spec.d)])
    next(levels)
    for k, c in enumerate(levels):
        total += sum(c)
        if total > work:
            return max(k, 1)


# --- morphic-analyze -----------------------------------------------------------

ANALYZE_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48)


def morphic_analyze(rng: random.Random, ctx: Context) -> list[Op]:
    spectral, cert, words = ctx.mods.spectral, ctx.mods.certify, ctx.mods.words
    sizes = ANALYZE_SIZES[:5] if ctx.tiny else ANALYZE_SIZES
    items = [(*ctx.sample(name), True) for name in SAMPLES]
    for d in sizes:
        spec = random_morphism(rng, f"rand{d}", d, (1, 2, 3), 2)
        items.append((spec, ctx.write(spec), False))
    max_n = 2**14 if ctx.tiny else cert.CertifyConfig.max_n
    ops = []
    for spec, path, sample in items:
        system = words.parse_morphism_file(path)
        ops.append(Op(
            "analysis_report",
            lambda s=system: spectral.analysis_report(s),
            lambda r, sp=spec: orc.check_analysis(r, sp),
            lambda r: {**r, "growth": {**r["growth"], "alpha": r["growth"]["alpha"] * 1.01}}))
        # on a sample the corruption is the conclusion a sample must never
        # have; random morphisms show the checkpoint corruption
        ops.append(Op(
            "certify morphic sample" if sample else "certify morphic",
            lambda p=path: cert.certify_nonmorphic(f"morphic:{p}",
                                                   cert.CertifyConfig(max_n=max_n)),
            lambda r, sp=spec, sa=sample: orc.check_morphic_report(r, sp, max_n, sa),
            orc.corrupt_conclusion if sample else orc.corrupt_report))
    return _shuffled(rng, ops)


# --- cli-cold ------------------------------------------------------------------

def _cli_op(ctx: Context, kind: str, argv: list, check, corrupt) -> Op:
    key = tuple(argv)

    def call():
        child = run_child([sys.executable, str(HERE / "cli_child.py"), *argv],
                          ctx.root, ctx.child_env(), ctx.tmp)
        ctx.cli_peak_mib = max(ctx.cli_peak_mib, child.rss_mib)
        return child.code, child.stdout

    def checked(out):
        code, stdout = out
        orc.expect(code == 0, f"{kind}: exit code {code}")
        first = ctx.seen.setdefault(key, stdout)
        orc.expect(stdout == first, f"{kind}: rerun output differs")
        check(stdout)

    return Op(kind, call, checked, lambda out: (out[0], corrupt(out[1])))


def _json_edit(path: tuple, fn):
    def corrupt(stdout: bytes) -> bytes:
        doc = json.loads(stdout)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return json.dumps(doc, indent=2).encode() + b"\n"
    return corrupt


def _check_cli_sieve_report(stdout: bytes, source: str, N: int, counts: dict) -> None:
    doc = json.loads(stdout)
    col = 0 if source == "s2" else 1
    want = [{"N": str(n), "count": str(counts[n][col])} for n in orc.sieve_checkpoints(N)]
    orc.expect(doc["checkpoints"] == want, f"{source} report checkpoint counts")
    if N >= 2**23:
        orc.expect(doc["conclusion"] == orc.CONCLUSION_NON_MORPHIC,
                   f"{source} report concluded {doc['conclusion']}")


def _check_cli_morphic_report(stdout: bytes, spec: MorphSpec) -> None:
    doc = json.loads(stdout)
    head, total = orc.morphic_checkpoints(spec, spec.coding[spec.start], 2**20)
    got = [(int(r["N"]), int(r["count"])) for r in doc["checkpoints"]]
    orc.expect(got == head and len(got) == total, "morphic report checkpoints")
    orc.expect(doc["conclusion"] == orc.CONCLUSION_MORPHIC,
               f"{spec.name} report concluded {doc['conclusion']}")


def _check_csv(stdout: bytes, want: list) -> None:
    rows = stdout.decode().split()
    orc.expect(rows[0] == "N,B", "CSV header")
    got = [tuple(int(x) for x in row.split(",")) for row in rows[1:]]
    orc.expect(got == want, "CSV counts")


def _check_tm_bits(stdout: bytes, n: int) -> None:
    bits = np.unpackbits(np.frombuffer(stdout, dtype=np.uint8), bitorder="little")
    i = np.arange(n, dtype=np.uint32)
    parity = np.zeros(n, dtype=np.uint8)
    for b in range(32):
        parity ^= ((i >> b) & 1).astype(np.uint8)
    orc.expect(len(bits) == (n + 7) // 8 * 8 and np.array_equal(bits[:n], parity),
               "Thue-Morse bits")


def _check_fit(stdout: bytes, points: list) -> None:
    doc = json.loads(stdout)
    orc.expect(doc["n_points"] == len(points), "fit point count")
    orc.check_logdamped(points, SimpleNamespace(gamma=doc["gamma"]))


def _check_lr(stdout: bytes, P: int) -> None:
    doc = json.loads(stdout)
    orc.check_euler(SimpleNamespace(parameter=doc["parameter"], value=doc["value"],
                                    tail_bound=doc["tail_bound"]), P)


def _bump_last_csv(stdout: bytes) -> bytes:
    lines = stdout.decode().split()
    n, c = lines[-1].split(",")
    lines[-1] = f"{n},{int(c) + 1}"
    return ("\n".join(lines) + "\n").encode()


def cli_commands(rng: random.Random, ctx: Context) -> list[Op]:
    """The CLI runs of every round; the arguments are drawn once per run."""
    tiny = ctx.tiny
    big = 2**20 if tiny else 10**7
    counts = ctx.counts
    ops = []
    for source in ("s2", "s2nz"):
        N = int(big * rng.uniform(0.95, 1.0)) if not tiny else big
        ops.append(_cli_op(
            ctx, f"certify {source}", ["certify", "--source", source, "-N", str(N)],
            lambda out, s=source, N=N: _check_cli_sieve_report(out, s, N, counts),
            _json_edit(("checkpoints", -1, "count"), lambda c: str(int(c) + 1))))
    # chain makes six commands that reach scipy.stats against four that do not,
    # so the median sits among the first rather than on the step between them
    for name in ("thue_morse", "fibonacci", "chain"):
        spec, path = ctx.sample(name)
        ops.append(_cli_op(
            ctx, f"certify {name}", ["certify", "--source", f"morphic:{path}"],
            lambda out, sp=spec: _check_cli_morphic_report(out, sp),
            _json_edit(("checkpoints", -1, "count"), lambda c: str(int(c) + 1))))
    spec = random_morphism(rng, "cli", rng.randint(8, 16), (1, 2, 3), 2)
    path = ctx.write(spec)
    ops.append(_cli_op(
        ctx, "morphism analyze", ["morphism", "analyze", str(path)],
        lambda out, sp=spec: orc.check_analysis(json.loads(out), sp),
        _json_edit(("growth", "alpha"), lambda a: a * 1.01)))

    Nc = rng.choice([n for n in counts if big // 2 <= n <= big])
    want = [(n, counts[n][0]) for n in orc.sieve_checkpoints(Nc)]
    ops.append(_cli_op(
        ctx, "seq count s2", ["seq", "count", "--kind", "s2", "--checkpoints",
                              f"geo:1024:2:{Nc}"],
        lambda out, w=want: _check_csv(out, w), _bump_last_csv))
    tm_path = ctx.root / "morphisms" / "thue_morse.morph"
    Ng = int(big / 16 * rng.uniform(0.9, 1.0))
    ops.append(_cli_op(
        ctx, "seq gen bits", ["seq", "gen", "--kind", f"morphic:{tm_path}", "-N", str(Ng),
                              "--format", "bits"],
        lambda out, n=Ng: _check_tm_bits(out, n),
        lambda out: bytes([out[0] ^ 1]) + out[1:]))

    points = [(n, counts[n][0]) for n in orc.sieve_checkpoints(Nc) if n >= orc.MIN_FIT_N]
    csv = ctx.tmp / "counts.csv"
    csv.write_text("N,B\n" + "".join(f"{n},{c}\n" for n, c in points), encoding="utf-8")
    ops.append(_cli_op(
        ctx, "fit logdamped", ["fit", "--model", "logdamped", "--input", str(csv)],
        lambda out, p=points: _check_fit(out, p),
        _json_edit(("gamma",), lambda g: g + 0.01)))
    P = int(log_uniform(rng, big / 10, big))
    ops.append(_cli_op(
        ctx, "lr-constant euler", ["lr-constant", "--method", "euler", "--bound", str(P)],
        lambda out, P=P: _check_lr(out, P),
        _json_edit(("value",), lambda v: v * 1.01)))
    return ops


def cli_cold(rng: random.Random, ctx: Context) -> list[Op]:
    if not ctx.cli_ops:
        ctx.cli_ops = cli_commands(rng, ctx)
    ops = list(ctx.cli_ops)
    return _shuffled(rng, ops)


WORKLOADS = {
    "sieve-certify": Workload(sieve_certify, min_rounds=3),
    "morphic-stream": Workload(morphic_stream, min_rounds=2),
    "morphic-analyze": Workload(morphic_analyze, min_rounds=2),
    "cli-cold": Workload(cli_cold, min_rounds=2, in_process=False),
}
