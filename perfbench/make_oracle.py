"""Regenerate perfbench/oracle_counts.json, the exact s2 and s2' counts.

The counts come from the multiplicative (smallest-prime-factor) sieve, never
from the additive sieve that the benchmark times. B'(N), the count of
x^2 + y^2 with 1 <= x <= y, is derived from B(N) by removing the squares m^2
that are not a sum of two positive squares: m = 0 and every m >= 1 with no
prime factor p = 1 (mod 4).

The table covers every sieve checkpoint 1024 * 2^j <= MAX_N and the
quarter-octave points floor(2^(i/4)) in the same range. Run once from the
root of a checkout (it needs about 750 MiB and a minute):

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "oracle_counts.json"
MAX_N = 2**26


def grid() -> list[int]:
    points = {1024 * 2**j for j in range(17) if 1024 * 2**j <= MAX_N}
    points |= {math.floor(2 ** (i / 4)) for i in range(40, 4 * 26 + 1)}
    return sorted(p for p in points if p <= MAX_N)


def dump(counts: dict) -> str:
    """The table as JSON, one checkpoint per line."""
    rows = ",\n".join(f'    "{n}": {json.dumps(v)}' for n, v in counts.items())
    source = json.dumps("sieve_s2_multiplicative; s2' = s2 minus plain squares")
    return f'{{\n  "source": {source},\n  "counts": {{\n{rows}\n  }}\n}}\n'


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import numpy as np

    from morphcert import numtheory
    from oracles import plain_square_roots

    table = numtheory.sieve_s2_multiplicative(MAX_N, mem_budget=2**31)
    cum = np.cumsum(table.bits, dtype=np.int64)
    del table
    plain = plain_square_roots(math.isqrt(MAX_N))
    counts = {}
    for n in grid():
        b = int(cum[n])
        d = sum(1 for m in plain if m * m <= n)
        counts[str(n)] = [b, b - d]
    OUT.write_text(dump(counts), encoding="utf-8")
    print(f"wrote {OUT} ({len(counts)} points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
