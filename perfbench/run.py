"""morphcert benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sieve-certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. ``--trace 0`` reports the end-to-end metrics
(setup_s, wall_s, op_p50_s, op_tail_s, peak_rss_mib); ``--trace 1`` reports
the per-layer metrics from a traced replay of the same rounds. Times are CPU
seconds of the process that does the work (user plus system); the end-to-end
times are normalized by a speed probe run between ops (``SpeedProbe``).
Human-readable lines come first; the last line of stdout is the JSON result.
Workloads, metrics and the seed-commit numbers are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
MIB = 2**20


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class SpeedProbe:
    """A fixed piece of work whose CPU time tracks how fast the machine runs just now.

    It mixes the kinds of work the ops do: interpreted arithmetic, building,
    counting and sorting Python lists and dicts, and numpy passes over an
    array larger than L2. It uses nothing of morphcert, so a change to the
    program leaves its time alone.
    """

    # its median CPU seconds on the 2.1 GHz Xeon VM the bounds were set on, so
    # that normalized times read close to CPU seconds there
    NOMINAL_S = 0.010

    def __init__(self):
        self.array = np.random.default_rng(1).integers(0, 1 << 30, size=200_000)

    def __call__(self) -> float:
        t0 = cpu_seconds()
        acc = 0
        for i in range(25_000):
            acc += i * i % 7
        xs = [i * 7 % 1000 for i in range(25_000)]
        counts: dict = {}
        for x in xs:
            counts[x] = counts.get(x, 0) + 1
        sorted(xs)
        np.cumsum(self.array)
        np.sort(self.array[:50_000])
        return cpu_seconds() - t0


def measure_setup(env: dict, tmp: Path, probe: SpeedProbe) -> list[tuple[float, float]]:
    """Fresh processes that import and warm up, one at a time.

    Returns (CPU seconds, normalized seconds) of each: the child's CPU
    seconds scaled by the probe's nominal time over its median time in the
    probes run just before and just after the child.
    """
    from workloads import run_child

    out = []
    for _ in range(SETUP_SAMPLES):
        probes = [probe() for _ in range(5)]
        child = run_child([sys.executable, str(HERE / "warmup.py")], ROOT, env, tmp)
        if child.code:
            raise RuntimeError(f"warm-up failed: {child.stderr.decode()[-2000:]}")
        probes += [probe() for _ in range(5)]
        out.append((child.cpu_s, child.cpu_s * probe.NOMINAL_S / statistics.median(probes)))
    return out


def run_ops(ops, stats, probe: SpeedProbe) -> float:
    """Time each op, check its output outside the timing; return the summed CPU seconds.

    An op's time is the CPU time it takes in this process and, for a CLI op,
    in its child (reaped inside the op, so it counts in RUSAGE_CHILDREN). A
    probe runs between ops; each op's time is also kept normalized, scaled by
    the probe's nominal time over the mean of the probes just before and after
    it, which takes out most of the machine's drift in speed.
    """
    spent = 0.0
    before = probe()
    for op in ops:
        stats.attempted += 1
        try:
            t0 = cpu_seconds()
            out = op.call()
            dt = cpu_seconds() - t0
        except Exception:
            stats.failed += 1
            stats.errors.append(f"{op.kind}: {traceback.format_exc(limit=2)}")
            continue
        after = probe()
        spent += dt
        stats.probes += [after]
        stats.slot_cpu.setdefault(op.slot, []).append(dt)
        stats.slot_times.setdefault(op.slot, []).append(
            dt * probe.NOMINAL_S / ((before + after) / 2))
        before = after
        try:
            note = op.check(out)
            if note:
                stats.notes[note] = stats.notes.get(note, 0) + 1
        except Exception as exc:
            stats.failed += 1
            stats.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        del out
    return spent


def run_rounds(workload, rng, ctx, seconds: float, stats, probe: SpeedProbe, rounds=None,
               min_rounds=None) -> list:
    """Run rounds until `seconds` have passed (at least `min_rounds`, by default
    the workload's minimum, which fixes the tail slot's sample count).

    Returns the rounds run, so a traced pass can replay exactly the same ops.
    """
    played = []
    min_rounds = workload.min_rounds if min_rounds is None else min_rounds
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if len(played) == len(rounds):
                break
            ops = rounds[len(played)]
        else:
            if len(played) >= min_rounds and time.perf_counter() - start >= seconds:
                break
            ops = workload.make_round(rng, ctx)
        stats.round_times.append(run_ops(ops, stats, probe))
        played.append(ops)
    return played


def new_stats():
    return SimpleNamespace(attempted=0, failed=0, errors=[], round_times=[], slot_times={},
                           slot_cpu={}, probes=[], notes={})


def import_times(env: dict) -> dict:
    """Cumulative import seconds from ``-X importtime`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import morphcert; import scipy.stats"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    cum = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return {"import.morphcert_s": (cum["morphcert"], "s"),
            "import.scipy_stats_s": (cum["scipy.stats"], "s"),
            "import.networkx_s": (cum["networkx"], "s")}


def cli_overhead(mods, env: dict, tmp: Path) -> float:
    """CPU of ``certify --source s2 -N 1e7`` in a child minus the same op in-process."""
    from workloads import run_child

    argv = ["certify", "--source", "s2", "-N", str(10**7)]
    child = run_child([sys.executable, str(HERE / "cli_child.py"), *argv], ROOT, env, tmp)
    if child.code:
        raise RuntimeError(f"CLI failed: {child.stderr.decode()[-2000:]}")
    t0 = cpu_seconds()
    report = mods.certify.certify_nonmorphic("s2", mods.certify.CertifyConfig(max_n=10**7))
    json.dumps(report.to_json_dict(), indent=2)
    return child.cpu_s - (cpu_seconds() - t0)


def traced_metrics(workload, rng, ctx, seconds, stats, mods, env, probe) -> dict:
    """Untraced rounds for half the time, then the same rounds traced."""
    from spans import Tracer, Trace, layer_metrics
    from warmup import warm_up

    metrics = import_times(env)
    metrics["cli.overhead_s"] = (cli_overhead(mods, env, ctx.tmp), "s")

    plain = new_stats()
    rounds = run_rounds(workload, rng, ctx, seconds / 2, plain, probe, min_rounds=1)
    tracer = Tracer(vars(mods))
    ctx.trace_dir = ctx.tmp
    tracer.install()
    try:
        # the warm-up replay puts every layer in every trace
        warm_up(mods.numtheory, mods.words, mods.certify)
        traced = new_stats()
        run_rounds(workload, rng, ctx, seconds / 2, traced, probe, rounds=rounds)
    finally:
        tracer.uninstall()
        ctx.trace_dir = None
    trace: Trace = tracer.trace
    for path in sorted(ctx.tmp.glob("child-*.json")):
        trace.merge(json.loads(path.read_text(encoding="utf-8")))
    for part in (plain, traced):
        stats.attempted += part.attempted
        stats.failed += part.failed
        stats.errors += part.errors
        for note, count in part.notes.items():
            stats.notes[note] = stats.notes.get(note, 0) + count
    n = len(rounds)
    metrics.update(layer_metrics(trace, n, mods.numtheory.DEFAULT_MEM_BYTES))
    metrics["trace.overhead_s"] = (
        (sum(traced.round_times) - sum(plain.round_times)) / n, "s")
    stats.rounds = n
    return metrics


def typical_round(slot_times: dict) -> list[float]:
    """One round of the fixed composition, each op at its median over the run's
    rounds, sorted; its ranks sit at the same op of the composition whatever
    the number of rounds."""
    return sorted(statistics.median(t) for t in slot_times.values())


def end_to_end(workload, rng, ctx, seconds, stats, setup, probe) -> dict:
    run_rounds(workload, rng, ctx, seconds, stats, probe)
    stats.rounds = len(stats.round_times)
    typical = typical_round(stats.slot_times)
    stats.tail_slot = len(typical) - 1 - workload.tail_beyond
    if workload.in_process:
        # the checks run in this process too; they keep their arrays small
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    else:
        peak = ctx.cli_peak_mib
    return {
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "wall_s": (sum(typical), "s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_tail_s": (typical[stats.tail_slot], "s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "morphcert" / "__init__.py").is_file() \
            or not (ROOT / "morphisms").is_dir():
        print(f"error: no morphcert source tree (src/morphcert, morphisms/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, Context, child_env
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # a TERM ends the run through its cleanup, which also kills a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env(ROOT)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        probe = SpeedProbe()
        setup = measure_setup(env, tmp, probe) if args.trace == 0 else []
        from morphcert import certify, numtheory, spectral, words
        import oracles
        from warmup import warm_up
        if workload.in_process or args.trace:  # CLI ops run cold, in fresh children
            warm_up(numtheory, words, certify)
        mods = SimpleNamespace(numtheory=numtheory, words=words, spectral=spectral,
                               certify=certify)
        ctx = Context(ROOT, tmp, mods, oracles.load_counts(HERE / "oracle_counts.json"))
        rng = random.Random(args.seed)
        stats = new_stats()
        if args.trace:
            metrics = traced_metrics(workload, rng, ctx, args.seconds, stats, mods, env,
                                     probe)
        else:
            metrics = end_to_end(workload, rng, ctx, args.seconds, stats, setup, probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  rounds {stats.rounds}  "
          f"ops {stats.attempted}  failed {stats.failed}  "
          f"error_rate {stats.failed / max(1, stats.attempted):.4g}")
    if not args.trace:
        n_slots = len(stats.slot_times)
        beyond = sum(len(t) for t in sorted(stats.slot_times.values(),
                                            key=statistics.median)[stats.tail_slot + 1:])
        print(f"op_tail_s is slot {stats.tail_slot + 1} of {n_slots} of the typical round "
              f"(p{100 * stats.tail_slot / (n_slots - 1):.0f}); the {workload.tail_beyond} "
              f"slots beyond it hold {beyond} op times")
        cpu = typical_round(stats.slot_cpu)
        print(f"unnormalized CPU seconds: setup_s "
              f"{statistics.median(c for c, _ in setup):.4g} "
              f"({', '.join(f'{c:.3f}' for c, _ in setup)}), wall_s {sum(cpu):.4g}, "
              f"op_p50_s {statistics.median(cpu):.4g}, op_tail_s {cpu[stats.tail_slot]:.4g}; "
              f"probe median {statistics.median(stats.probes):.4g} s")
    for err in stats.errors[:20]:
        print(f"FAILED {err}")
    for note, count in stats.notes.items():
        print(f"NOTE {count} x {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
