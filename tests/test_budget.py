"""The memory budget holds end to end.

Every budgeted entry point, run with a budget equal to its charge, keeps its
tracemalloc peak within that budget; one byte less is refused with
ResourceError before anything is allocated. The CLI keeps the same promise
for MORPH_MEM_MB, given in whole MiB.
"""

import math
import os
import sys
import tracemalloc

import pytest
import scipy.special  # noqa: F401  imported lazily by gamma_confidence; warm it here

from morphcert import certify, cli, numtheory, words
from morphcert.cli import main
from morphcert.errors import ResourceError

from conftest import MORPHISM_DIR

TM = MORPHISM_DIR / "thue_morse.morph"
CHAIN = MORPHISM_DIR / "chain.morph"

MIB = 2**20


def _certify(source):
    def run(n, budget):
        return certify.certify_nonmorphic(
            source, certify.CertifyConfig(max_n=n, mem_budget=budget)
        )

    return run


def _budgeted(fn):
    return lambda n, budget: fn(n, mem_budget=budget)


# name -> (call(size, budget), charge(size), a size whose arrays dwarf the
# fixed per-call allowance)
CASES = {
    "sieve_s2_additive": (_budgeted(numtheory.sieve_s2_additive), numtheory._s2_charge, 2 * 10**6),
    "sieve_s2_nonzero": (_budgeted(numtheory.sieve_s2_nonzero), numtheory._s2_charge, 2 * 10**6),
    "sieve_s2_multiplicative": (
        _budgeted(numtheory.sieve_s2_multiplicative), numtheory._multiplicative_charge, 10**6),
    "lr_euler_product": (_budgeted(numtheory.lr_euler_product), numtheory._euler_charge, 10**6),
    # a mask of 1.5 * 10^6 odd numbers, struck in three segments
    "lr_euler_product segmented": (
        _budgeted(numtheory.lr_euler_product), numtheory._euler_charge, 3 * 10**6),
    "diff_bound_check": (_budgeted(numtheory.diff_bound_check), numtheory._diff_charge, 10**6),
    "count_s2_additive": (
        lambda n, budget: numtheory.count_s2_additive(n, [n], mem_budget=budget),
        numtheory._s2_count_charge, 2 * 10**6),
    "count_s2_nonzero": (
        lambda n, budget: numtheory.count_s2_nonzero(n, [n], mem_budget=budget),
        numtheory._s2_count_charge, 2 * 10**6),
    "certify s2": (_certify("s2"), numtheory._s2_count_charge, 2 * 10**6),
    "certify s2nz": (_certify("s2nz"), numtheory._s2_count_charge, 2 * 10**6),
}


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def warm():
    # first calls fill interpreter caches, which are not the call's cost
    for call, _, _ in CASES.values():
        call(100, numtheory.DEFAULT_MEM_BYTES)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("small", [False, True], ids=["near-cap", "small"])
def test_peak_within_charge(name, small):
    call, charge, size = CASES[name]
    n = 10 if small else size
    budget = charge(n)
    assert traced_peak(call, n, budget) <= budget
    with pytest.raises(ResourceError):
        call(n, budget - 1)


def test_diff_bound_streams_within_8_mib():
    # two 4 MiB tables and their running sums cannot fit; two segments can
    N = 4 * MIB
    assert numtheory._diff_charge(N) <= 8 * MIB
    tracemalloc.start()
    try:
        first, _ = numtheory.diff_bound_check(N, mem_budget=8 * MIB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first is None
    assert peak <= numtheory._diff_charge(N)


@pytest.mark.parametrize("name, max_n", [("column", 2**20), ("fibonacci", 2**60)])
def test_level_counts_peak_within_charge(name, max_n, monkeypatch):
    # alpha = 1 (a level at every N, 48 MiB of columns) and alpha > 1
    system = words.parse_morphism_file(MORPHISM_DIR / f"{name}.morph")
    rows = system.morphism.count_matrix
    targets = system.letters_for(system.coding[system.start])

    def run(budget):
        return certify._level_counts(rows, system.start, targets, max_n, budget)

    charges = []
    check = numtheory._check_budget
    monkeypatch.setattr(numtheory, "_check_budget",
                        lambda need, *rest: charges.append(need) or check(need, *rest))
    run(numtheory.DEFAULT_MEM_BYTES)  # warm, and the charge of each block
    charge = max(charges)
    assert traced_peak(run, charge) <= charge
    with pytest.raises(ResourceError):
        run(charge - 1)


@pytest.mark.parametrize("symbol, max_n", [("a", 2**20), ("a", 2**21), ("b", 2**20)])
def test_dense_level_certificate_within_charge(symbol, max_n, monkeypatch):
    # column has a level at every N, so its fits hold columns as long as the
    # level counts; b's count changes at every level, so the polyexp fit
    # takes one log per level. The default budget still certifies 2^20
    source = f"morphic:{MORPHISM_DIR / 'column.morph'}"

    def run(budget):
        return certify.certify_nonmorphic(
            source, certify.CertifyConfig(max_n=max_n, symbol=symbol, mem_budget=budget))

    _certify(source)(2**10, numtheory.DEFAULT_MEM_BYTES)  # warm
    charges = []
    check = numtheory._check_budget
    monkeypatch.setattr(numtheory, "_check_budget",
                        lambda need, *rest: charges.append(need) or check(need, *rest))
    assert traced_peak(run, numtheory.DEFAULT_MEM_BYTES) <= max(charges) <= numtheory.DEFAULT_MEM_BYTES
    with pytest.raises(ResourceError):
        run(max(charges) - 1)


def test_dense_level_grid_refused_within_budget():
    # column has a level at every N: 10^9 of them need gigabytes of int64 columns
    config = certify.CertifyConfig(max_n=10**9, mem_budget=64 * MIB)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            certify.certify_nonmorphic(f"morphic:{MORPHISM_DIR / 'column.morph'}", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * MIB


@pytest.fixture
def devnull_stdout(monkeypatch):
    # a real sink, unlike capsys, keeps no copy of the output in memory
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        yield


@pytest.mark.parametrize("argv, charge", [
    ("certify --source s2 -N {N}", numtheory._s2_count_charge),
    ("seq gen --kind s2nz --format ascii -N {N}", numtheory._s2_charge),
    ("seq gen --kind s2 --format bits -N {N}", numtheory._s2_charge),
    ("seq count --kind s2 --checkpoints geo:1024:2:{N}", numtheory._s2_count_charge),
    # dense: every N up to 10^4, then 57 k more checkpoints to N
    ("seq count --kind s2nz --checkpoints geo:1:1.0001:{N}", lambda N: numtheory._s2_count_charge(N)
     + cli._SIEVE_ROW_BYTES * len(certify.geometric_checkpoints(1, 1.0001, N))),
    # geometric from 1000: the most halving levels per checkpoint
    ("seq count --kind s2nz --checkpoints geo:1000:1.01:{N}", lambda N: numtheory._s2_count_charge(N)
     + cli._SIEVE_ROW_BYTES * len(certify.geometric_checkpoints(1000, 1.01, N))),
    # a morphic kind is charged its rows and its level tables' ceiling:
    # Thue-Morse needs 22 levels, chain to 2^28 23 170 of them
    ("seq count --kind morphic:{TM} --checkpoints geo:1:1.0001:{N}",
     lambda N: cli._MORPHIC_ROW_BYTES * len(certify.geometric_checkpoints(1, 1.0001, N))
     + words._TABLE_BYTES),
    ("seq count --kind morphic:{CHAIN} --checkpoints geo:1024:2:268435456",
     lambda N: cli._MORPHIC_ROW_BYTES * 19 + words._TABLE_BYTES),
    ("lr-constant --method sieve --bound {N}", numtheory._s2_count_charge),
    ("lr-constant --method euler --bound {N}", numtheory._euler_charge),
])
def test_mem_env_bounds_the_run(argv, charge, monkeypatch, devnull_stdout):
    N = 3 * MIB
    mb = math.ceil(charge(N) / MIB)
    argv = argv.format(N=N, TM=TM, CHAIN=CHAIN).split()
    monkeypatch.setenv("MORPH_MEM_MB", str(mb - 1))
    assert main(argv) == 3
    monkeypatch.setenv("MORPH_MEM_MB", str(mb))
    main(argv)  # warm: first-run imports and caches are not the run's cost
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= mb * MIB


@pytest.mark.parametrize("kind", ["s2", f"morphic:{TM}"], ids=["s2", "thue_morse"])
def test_seq_count_refuses_before_building_the_schedule(kind, monkeypatch, devnull_stdout):
    # 10^6 checkpoints need about 78 MiB (s2) or 145 MiB (Thue-Morse); the
    # refusal builds none of them, also where the counts come from a
    # morphism's level table
    argv = f"seq count --kind {kind} --checkpoints geo:1:1.000001:1000000".split()
    monkeypatch.setenv("MORPH_MEM_MB", "1")
    main(argv)  # warm
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < MIB


def test_dense_sieve_counts_are_charged_what_they_hold(monkeypatch, devnull_stdout):
    # 10^6 checkpoints of s2 trace about 70 MiB: the schedule's ints and four
    # int64 columns, no pair objects
    monkeypatch.setenv("MORPH_MEM_MB", "100")
    assert main("seq count --kind s2 --checkpoints geo:1:1.000001:1000000".split()) == 0


def test_certify_counts_without_the_table(monkeypatch, tmp_path):
    # a 24 MiB table cannot fit in 8 MiB; the streamed counts need no table
    N = 24 * MIB
    assert numtheory._s2_charge(N) > 8 * MIB >= numtheory._s2_count_charge(N)
    monkeypatch.delenv("MORPH_MEM_MB", raising=False)
    out = {}
    for mb in (None, "8"):
        if mb is not None:
            monkeypatch.setenv("MORPH_MEM_MB", mb)
        path = tmp_path / f"{mb}.json"
        assert main(["certify", "--source", "s2", "-N", str(N), "-o", str(path)]) == 0
        out[mb] = path.read_bytes()
    assert out["8"] == out[None]
