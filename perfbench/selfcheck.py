"""Self-check of the benchmark: every workload once at tiny sizes, every oracle shown to bite.

    python3 perfbench/selfcheck.py

For each op of one round of each workload, the real output must pass its
check and a corrupted copy must fail it. CLI ops are checked twice more: the
content check alone (with no earlier run to compare against) and the rerun
check alone (a different output for the same arguments). Exits 1 on any
surprise.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from morphcert import certify, numtheory, spectral, words

    import oracles
    from workloads import WORKLOADS, Context

    mods = SimpleNamespace(numtheory=numtheory, words=words, spectral=spectral,
                           certify=certify)
    counts = oracles.load_counts(HERE / "oracle_counts.json")
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            ctx = Context(ROOT, Path(tmp), mods, counts, tiny=True)
            ops = workload.make_round(random.Random(7), ctx)
            kinds = set()
            before = len(problems)
            for op in ops:
                out = op.call()
                try:
                    op.check(out)
                except oracles.Mismatch as exc:
                    problems.append(f"{name}/{op.kind}: real output rejected: {exc}")
                    continue
                bad = op.corrupt(out)
                if not workload.in_process:
                    ctx.seen.clear()  # leave only the content check to catch it
                if not rejects(op.check, bad, oracles.Mismatch):
                    problems.append(f"{name}/{op.kind}: corrupted output accepted")
                if not workload.in_process:
                    ctx.seen.clear()
                    op.check(out)
                    if not rejects(op.check, (out[0], out[1] + b" "), oracles.Mismatch):
                        problems.append(f"{name}/{op.kind}: changed rerun accepted")
                    ctx.seen.clear()
                kinds.add(op.kind)
            print(f"{name}: {len(ops)} ops of {len(kinds)} kinds, "
                  f"{len(problems) - before} problems")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def rejects(check, output, mismatch) -> bool:
    try:
        check(output)
    except mismatch:
        return True
    return False


if __name__ == "__main__":
    raise SystemExit(main())
