"""The set-up work: import morphcert and run one warm-up pass through every layer.

The pass is large enough to reach every lazy import: the s2 certificate at
2^20 has 9 fit points, so ``gamma_confidence`` runs and imports
``scipy.stats``; a smaller one never does, and the first timed call would pay
for the import instead. Run as a script, it is one fresh process's set-up,
whose CPU seconds ``run.py`` takes as a ``setup_s`` sample:

    PYTHONPATH=src python3 perfbench/warmup.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def warm_up(numtheory, words, certify) -> None:
    tm = ROOT / "morphisms" / "thue_morse.morph"
    certify.certify_nonmorphic("s2", certify.CertifyConfig(max_n=2**20))
    certify.certify_nonmorphic(f"morphic:{tm}")
    system = words.parse_morphism_file(tm)
    words.prefix_count_series(system, "0", [1024, 4096])
    words.iterate(system.morphism, bytes([system.start]), 10)
    table = numtheory.sieve_s2_additive(2**16)
    numtheory.multiplicativity_check(table, 16)
    numtheory.diff_bound_check(2**16)
    numtheory.lr_euler_product(2**16)


if __name__ == "__main__":
    from morphcert import certify, numtheory, words

    warm_up(numtheory, words, certify)
