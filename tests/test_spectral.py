import math
import random
import tracemalloc
from itertools import islice

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morphcert import spectral
from morphcert.errors import DomainError, NonConvergence, ResourceError, ValidationError
from morphcert.spectral import (
    MAX_DIM,
    analysis_report,
    cyclicity,
    growth_class,
    incidence_matrix,
    letter_growth_class,
    matrix_power_count,
    perron_value,
    scc_dag,
    symbol_growth_class,
)
from morphcert.words import (
    Alphabet,
    Morphism,
    MorphicSystem,
    is_prolongable,
    iterate,
    parse_morphism_file,
)

from conftest import (
    GOLDEN,
    MORPHISM_DIR,
    chain,
    column,
    count_vectors,
    counting_suite,
    doubling,
    fibonacci,
    make_morphism,
    make_system,
    ref_count_matrix,
    ref_perron_value,
    swap,
    thue_morse,
)


def count_vector_series(M, source, kmax):
    """c_k with c_k[t] = |phi^k(a_source)|_{a_t} for k = 0..kmax, from the exact
    count-vector walk: the oracle for matrix powers and growth fits."""
    vectors = count_vectors(M.entries, bytes([source]))
    return [tuple(c) for c in islice(vectors, kmax + 1)]


class TestIncidenceMatrix:
    def test_thue_morse(self):
        M = incidence_matrix(thue_morse().morphism)
        assert M.entries == ((1, 1), (1, 1))
        assert M.column_sums() == (2, 2)

    def test_fibonacci(self):
        M = incidence_matrix(fibonacci().morphism)
        assert M.entries == ((1, 1), (1, 0))
        assert M.entry(0, 1) == 1 and M.entry(1, 1) == 0

    def test_column_sums_are_image_lengths(self):
        for _, m in counting_suite():
            M = incidence_matrix(m)
            assert M.column_sums() == tuple(len(img) for img in m.images)

    def test_count_matrix_matches_image_counts(self):
        for _, m in counting_suite():
            assert m.count_matrix == ref_count_matrix(m)
        for path in sorted(MORPHISM_DIR.glob("*.morph")):
            m = parse_morphism_file(path).morphism
            assert m.count_matrix == ref_count_matrix(m)

    def test_dimension_cap(self):
        big = Alphabet(tuple(f"L{i}" for i in range(MAX_DIM + 1)))
        m = Morphism(big, tuple(bytes([i]) for i in range(big.size)))
        with pytest.raises(ResourceError):
            incidence_matrix(m)
        with pytest.raises(ResourceError):
            scc_dag(m, 0)


class TestMatrixPowerCount:
    def test_known_values(self):
        tm = incidence_matrix(thue_morse().morphism)
        assert matrix_power_count(tm, 3, 0, 1) == 4  # |phi^3(0)|_1 in 01101001
        assert matrix_power_count(tm, 0, 0, 0) == 1
        assert matrix_power_count(tm, 0, 0, 1) == 0
        fib = incidence_matrix(fibonacci().morphism)
        assert matrix_power_count(fib, 4, 0, 0) == 5  # abaababa

    def test_equals_direct_expansion(self):
        # exact-count oracle on the whole suite (small k here; the acceptance
        # suite runs the full k <= 12 sweep)
        for _, m in counting_suite():
            M = incidence_matrix(m)
            for k in range(7):
                for a in range(m.d):
                    word = iterate(m, bytes([a]), k, max_len=10**6)
                    for b in range(m.d):
                        assert matrix_power_count(M, k, a, b) == word.count(b)

    def test_large_k_exact_integers(self):
        tm = incidence_matrix(thue_morse().morphism)
        assert matrix_power_count(tm, 100, 0, 0) == 2**99  # beyond float precision

    def test_rejects_negative(self):
        tm = incidence_matrix(thue_morse().morphism)
        with pytest.raises(DomainError):
            matrix_power_count(tm, -1, 0, 0)

    @pytest.mark.parametrize("bad", [-1, True, 5, 1.0, "a"])
    def test_rejects_bad_letter_indices(self, bad):
        # numpy would wrap -1 to the last letter, give a whole row for True
        # and raise IndexError for 5
        fib = incidence_matrix(fibonacci().morphism)
        with pytest.raises(DomainError):
            matrix_power_count(fib, 2, bad, 0)
        with pytest.raises(DomainError):
            matrix_power_count(fib, 2, 0, bad)
        with pytest.raises(DomainError):
            fib.entry(bad, 0)
        with pytest.raises(DomainError):
            fib.entry(0, bad)

    def test_count_vector_series(self):
        fib = incidence_matrix(fibonacci().morphism)
        series = count_vector_series(fib, 0, 6)
        assert [sum(c) for c in series] == [1, 2, 3, 5, 8, 13, 21]
        assert series[4] == (5, 3)  # abaababa minus last letter... phi^4(a)=abaababa


class TestPerronValue:
    def test_exact_cases(self):
        assert perron_value([[2]]) == pytest.approx(2.0, abs=1e-9)
        assert perron_value([[0]]) == pytest.approx(0.0, abs=1e-9)
        assert perron_value([[1, 1], [1, 1]]) == pytest.approx(2.0, abs=1e-9)

    def test_golden_ratio(self):
        assert perron_value([[1, 1], [1, 0]]) == pytest.approx(GOLDEN, abs=1e-9)

    def test_periodic_matrix(self):
        # the +I shift keeps the iteration convergent despite cyclicity 2
        assert perron_value([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-9)

    def test_rejects(self):
        with pytest.raises(DomainError):
            perron_value([[1, -1], [0, 1]])
        with pytest.raises(DomainError):
            perron_value([[1, 2, 3]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            perron_value(np.zeros((0, 0)))

    @pytest.mark.parametrize("sub", [
        [[1, 0], [0, math.nan]],
        [[math.inf, 1], [1, 1]],
        [[math.nan]],
        np.full((40, 40), math.inf),
    ])
    def test_rejects_non_finite(self, sub):
        with pytest.raises(DomainError, match="finite"):
            perron_value(sub)


# --- perron_value against the ndarray.min/max/sum loop it replaced -------------

def _sample_morphisms():
    yield from counting_suite()
    for path in sorted(MORPHISM_DIR.glob("*.morph")):
        yield path.stem, parse_morphism_file(path).morphism


def _random_perron_matrices(count):
    """Seeded nonnegative integer matrices, d = 1..64, at three densities; a
    d-cycle keeps each irreducible, so the iteration closes."""
    rng = np.random.default_rng(20261021)
    for j in range(count):
        d = 1 + j % 64
        a = rng.integers(0, 4, (d, d)) * (rng.random((d, d)) < (0.1, 0.3, 1.0)[j % 3])
        a[np.arange(d), (np.arange(d) + 1) % d] += 1
        yield a.tolist()


def _assert_same_perron(sub):
    assert perron_value(sub).hex() == ref_perron_value(sub).hex()


def test_perron_value_matches_reference_on_sample_components():
    for name, m in _sample_morphisms():
        rows = m.count_matrix
        for source in range(m.d):
            for comp in scc_dag(m, source).components:
                sub = [[rows[t][s] for s in comp.letters] for t in comp.letters]
                assert comp.rho.hex() == ref_perron_value(sub).hex(), (name, comp)


def test_perron_value_matches_reference_on_random_matrices():
    subs = list(_random_perron_matrices(320))
    assert {len(sub) for sub in subs} == set(range(1, 65))
    for sub in subs:
        _assert_same_perron(sub)


def test_perron_value_matches_reference_on_dense_64():
    rng = np.random.default_rng(64)
    _assert_same_perron(rng.integers(1, 10, (64, 64)).tolist())
    _assert_same_perron(np.ones((64, 64), dtype=int).tolist())


@pytest.mark.parametrize("sub", [
    [[1, 0], [1, 1]],  # a Jordan block: the bounds close like 1/k
    # diag(2, 1) + I: the second entry of x underflows after about 1075
    # iterations, and its 0/0 ratio must keep the bounds open; numpy sorts
    # short and long arrays with different kernels
    [[1, 0], [0, 0]],
    np.diag([1] + [0] * 39).tolist(),
], ids=["jordan", "underflow-2", "underflow-40"])
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_perron_value_reducible_still_misses(sub):
    for perron in (perron_value, ref_perron_value):
        with pytest.raises(NonConvergence):
            perron(sub)


class TestCyclicity:
    def test_examples(self):
        assert cyclicity(thue_morse().morphism, ("0", "1")) == 1
        assert cyclicity(swap(), ("a", "b")) == 2
        assert cyclicity(column().morphism, ("a",)) == 1  # self-loop
        assert cyclicity(chain().morphism, ("c",)) == 1
        rot3 = make_morphism("abc", {"a": ["b"], "b": ["c"], "c": ["a"]})
        assert cyclicity(rot3, ("a", "b", "c")) == 3

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            cyclicity(swap(), ())


class TestSccDag:
    def test_thue_morse_single_component(self):
        dag = scc_dag(thue_morse().morphism, "0")
        assert len(dag.components) == 1
        comp = dag.components[0]
        assert comp.letters == (0, 1)
        assert comp.rho == pytest.approx(2.0, abs=1e-9)
        assert comp.cyclicity == 1
        assert dag.edges == ()
        assert dag.root_component == 0

    def test_chain_three_components(self):
        dag = scc_dag(chain().morphism, "a")
        assert [c.letters for c in dag.components] == [(0,), (1,), (2,)]
        assert all(c.rho == pytest.approx(1.0, abs=1e-9) for c in dag.components)
        assert dag.edges == ((0, 1), (1, 2))
        assert dag.comp_of == {0: 0, 1: 1, 2: 2}

    def test_restricted_to_reachable(self):
        dag = scc_dag(chain().morphism, "b")  # a is not reachable from b
        assert [c.letters for c in dag.components] == [(1,), (2,)]
        assert dag.root_component == 0


EXPECTED_GROWTH = {
    # name -> (alpha, l, T) for |phi^k(start)|
    "thue_morse": (2.0, 0, 1),
    "fibonacci": (GOLDEN, 0, 1),
    "column": (1.0, 1, 1),
    "chain": (1.0, 2, 1),
    "doubling": (2.0, 1, 1),
}


class TestGrowthClass:
    @pytest.mark.parametrize("name", sorted(EXPECTED_GROWTH))
    def test_suite_classes(self, name):
        m = dict(counting_suite())[name]
        got = growth_class(m, 0)
        alpha, l, T = EXPECTED_GROWTH[name]
        assert got.alpha == pytest.approx(alpha, abs=1e-9)
        assert (got.l, got.T) == (l, T)

    def test_swap_period_two(self):
        got = growth_class(swap(), "a")
        assert got.alpha == pytest.approx(1.0, abs=1e-9)
        assert (got.l, got.T) == (0, 2)

    def test_constant_estimates(self):
        # |phi^k(0)| = 2^k exactly -> G = 1
        g = growth_class(thue_morse().morphism, 0)
        assert g.G_estimate == pytest.approx(1.0, abs=1e-9)
        # |phi^k(a)| = F_{k+2} ~ (phi^2/sqrt(5)) phi^k
        g = growth_class(fibonacci().morphism, 0)
        assert g.G_estimate == pytest.approx(GOLDEN**2 / math.sqrt(5), abs=1e-3)
        # |phi^k(a)| = k + 1 ~ k
        g = growth_class(column().morphism, 0)
        assert g.G_estimate == pytest.approx(1.0, abs=0.1)

    def test_long_period_fit_streams(self):
        # a -> a plus the head of one cycle each of lengths 3, 5, 7, 11, so
        # T = 1155 and the fit reads k = 10T..20T; the 23 101 count vectors
        # up to 20T must not all be kept
        m = _cycle_morphism((3, 5, 7, 11))
        tracemalloc.start()
        try:
            g = growth_class(m, "a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.T == 1155
        assert g.G_estimate == 4.000060509336049  # as fitted from the full list
        assert peak < 4 * 2**20

    def test_ratio_converges_to_alpha(self):
        # primitive morphisms: N_{k+1}/N_k -> alpha fast
        for sys in (thue_morse(), fibonacci()):
            m = sys.morphism
            M = incidence_matrix(m)
            series = count_vector_series(M, sys.start, 41)
            ratio = sum(series[41]) / sum(series[40])
            assert ratio == pytest.approx(growth_class(m, sys.start).alpha, abs=1e-6)

    def test_fitted_class_consistency(self):
        # residual ln N_k - l ln k - k ln(alpha) must show no drift in k:
        # |regression slope| < 1e-3 over a window past the transient
        # (k = 10..40 for pure exponentials; a polynomial factor leaves a
        # (1 + c/k)-type correction that needs k = 40..100 to die out)
        for name, m in counting_suite():
            g = growth_class(m, 0)
            ks = range(10, 41, g.T) if g.l == 0 else range(40, 101, g.T)
            series = count_vector_series(incidence_matrix(m), 0, max(ks))
            pts = [
                (k, math.log(sum(series[k])) - g.l * math.log(k) - k * math.log(g.alpha))
                for k in ks
            ]
            n = len(pts)
            kbar = sum(k for k, _ in pts) / n
            rbar = sum(r for _, r in pts) / n
            slope = sum((k - kbar) * (r - rbar) for k, r in pts) / sum(
                (k - kbar) ** 2 for k, _ in pts
            )
            assert abs(slope) < 1e-3, f"{name}: residual drift {slope}"


@pytest.mark.parametrize("letter", [True, False])
def test_bool_letters_are_refused(letter):
    # isinstance(True, int) holds, but a bool names no letter; taken as an
    # index, True would give letter 1's class (alpha 1.618..., G 0.7236)
    m = fibonacci().morphism
    calls = [
        lambda: growth_class(m, letter),
        lambda: letter_growth_class(m, letter, "a"),
        lambda: letter_growth_class(m, "a", letter),
        lambda: cyclicity(m, ["a", letter]),
        lambda: scc_dag(m, letter),
        lambda: is_prolongable(m, letter),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="neither an identifier nor an index"):
            call()


class TestLetterGrowthClass:
    def test_thue_morse_letter(self):
        got = letter_growth_class(thue_morse().morphism, "0", "1")
        assert got.beta == pytest.approx(2.0, abs=1e-9)
        assert (got.m, got.T, got.eventually_zero) == (0, 1, False)
        assert got.Gp_estimate == pytest.approx(0.5, abs=1e-9)  # counts 2^(k-1)

    def test_column_counts_of_b(self):
        got = letter_growth_class(column().morphism, "a", "b")
        assert got.beta == pytest.approx(1.0, abs=1e-9)
        assert (got.m, got.eventually_zero) == (1, False)
        assert got.Gp_estimate == pytest.approx(1.0, abs=1e-9)  # counts = k exactly

    def test_chain_counts_of_c(self):
        got = letter_growth_class(chain().morphism, "a", "c")
        assert got.beta == pytest.approx(1.0, abs=1e-9)
        assert got.m == 2  # counts k(k-1)/2
        assert got.Gp_estimate == pytest.approx(0.5, abs=0.1)

    def test_eventually_zero(self):
        got = letter_growth_class(column().morphism, "b", "a")
        assert got == pytest.approx(got)  # dataclass sanity
        assert got.eventually_zero
        assert (got.beta, got.m, got.T, got.Gp_estimate) == (0.0, 0, 1, None)

    def test_never_occurring_letter(self):
        m = make_morphism("abc", {"a": ["a", "c"], "b": ["b"], "c": ["c"]})
        assert letter_growth_class(m, "a", "b").eventually_zero

    def test_periodic_occurrence_not_eventually_zero(self):
        # b occurs in phi^k(a) only for odd k; the decision window must span
        # a full period beyond the dimension
        got = letter_growth_class(swap(), "a", "b")
        assert not got.eventually_zero
        assert got.T == 2

    def test_beta_never_exceeds_alpha(self):
        for _, m in counting_suite():
            for a in range(m.d):
                alpha = growth_class(m, a).alpha
                for b in range(m.d):
                    beta = letter_growth_class(m, a, b).beta
                    assert beta <= alpha + 1e-9


class TestSymbolGrowthClass:
    def test_injective_matches_letter(self):
        sys = fibonacci()
        for sym, letter in (("0", "a"), ("1", "b")):
            got = symbol_growth_class(sys, sym)
            want = letter_growth_class(sys.morphism, "a", letter)
            assert got.beta == pytest.approx(want.beta, abs=1e-12)
            assert (got.m, got.T) == (want.m, want.T)

    def test_merged_symbols_aggregate(self):
        sys = make_system(
            "01", {"0": ["0", "1"], "1": ["1", "0"]}, "0", coding={"0": "x", "1": "x"}
        )
        got = symbol_growth_class(sys, "x")
        assert got.beta == pytest.approx(2.0, abs=1e-9)
        assert got.m == 0
        assert got.Gp_estimate == pytest.approx(1.0, abs=1e-9)  # counts = N_k = 2^k

    def test_dead_symbol(self):
        sys = make_system(
            "abc",
            {"a": ["a", "c"], "b": ["b"], "c": ["c"]},
            "a",
            coding={"b": "z"},
        )
        got = symbol_growth_class(sys, "z")
        assert got.eventually_zero
        assert got.beta == 0.0


class TestAnalysisReport:
    def test_structure(self):
        report = analysis_report(thue_morse())
        assert report["alphabet"] == ["0", "1"]
        assert report["incidence_matrix"] == [["1", "1"], ["1", "1"]]
        assert report["growth"]["alpha"] == pytest.approx(2.0, abs=1e-9)
        assert report["growth"]["l"] == 0 and report["growth"]["T"] == 1
        assert set(report["letter_growth"]) == {"0", "1"}
        assert report["components"][0]["letters"] == ["0", "1"]
        assert report["components"][0]["cyclicity"] == 1

    @pytest.mark.parametrize("d", [12, 24])
    def test_one_condensation_for_all_symbols(self, monkeypatch, d):
        # a chain with a self-loop on every third letter and two letters the
        # start never reaches, coded onto two symbols: the report condenses
        # the digraph once, for its components, the growth class and every
        # symbol, and fits only the G estimate it prints
        ids = [f"x{i}" for i in range(d)]
        rules = {u: [u, ids[i + 1]] if i % 3 == 0 else [ids[i + 1]]
                 for i, u in enumerate(ids[:-3])}
        rules.update({ids[-3]: [ids[-3]], ids[-2]: [ids[-1]], ids[-1]: [ids[-2], ids[-3]]})
        sys = make_system(ids, rules, "x0", coding={u: str(i % 2) for i, u in enumerate(ids)})
        calls = []
        real = spectral.scc_dag
        monkeypatch.setattr(spectral, "scc_dag", lambda *a: calls.append(a) or real(*a))
        fits = []
        real_fit = spectral._fit_constant
        monkeypatch.setattr(spectral, "_fit_constant", lambda *a: fits.append(a) or real_fit(*a))
        report = analysis_report(sys)
        assert len(calls) == 1
        assert len(fits) == 1 and fits[0][2] is None  # the whole word, for G_estimate
        assert report["letter_growth"]["0"]["eventually_zero"] is False

    def test_counts_stay_exact_in_json(self):
        # incidence entries are decimal strings so nothing rides on float range
        sys = make_system("a", {"a": ["a"] * 100}, "a")
        report = analysis_report(sys)
        assert report["incidence_matrix"] == [["100"]]


# --- properties -------------------------------------------------------------

_LETTERS = ("a", "b", "c")


@st.composite
def small_morphisms(draw):
    size = draw(st.integers(1, 3))
    letters = _LETTERS[:size]
    ids = st.sampled_from(letters)
    rules = {lid: draw(st.lists(ids, min_size=1, max_size=3)) for lid in letters}
    return Morphism.from_rules(Alphabet(letters), rules)


@settings(max_examples=50, deadline=None)
@given(small_morphisms(), st.integers(0, 8))
def test_matrix_power_equals_expansion(m, k):
    M = incidence_matrix(m)
    for a in range(m.d):
        word = iterate(m, bytes([a]), k, max_len=10**6)
        for b in range(m.d):
            assert matrix_power_count(M, k, a, b) == word.count(b)


@settings(max_examples=50, deadline=None)
@given(small_morphisms())
def test_count_matrix_matches_image_counts_on_small_morphisms(m):
    assert m.count_matrix == ref_count_matrix(m)


@settings(max_examples=50, deadline=None)
@given(small_morphisms())
def test_letter_classes_bounded_by_word_class(m):
    for a in range(m.d):
        g = growth_class(m, a)
        assert g.alpha >= 1.0 - 1e-9  # non-erasing words never shrink
        for b in range(m.d):
            lg = letter_growth_class(m, a, b)
            assert lg.beta <= g.alpha + 1e-9
            if lg.eventually_zero:
                assert lg.beta == 0.0
            # the polynomial degree never exceeds the chain of components
            assert 0 <= lg.m <= m.d


@settings(max_examples=50, deadline=None)
@given(small_morphisms())
def test_eventually_zero_agrees_with_wide_window(m):
    M = incidence_matrix(m)
    d = m.d
    for a in range(d):
        for b in range(d):
            flag = letter_growth_class(m, a, b).eventually_zero
            seen = any(
                matrix_power_count(M, k, a, b) > 0 for k in range(d, 4 * d + 1)
            )
            assert flag == (not seen)


# --- the longest-path DP against the networkx body it replaced ----------------

def _ref_as_digraph(nodes, edges):
    h = nx.DiGraph()
    h.add_nodes_from(nodes)
    h.add_edges_from((u, v) for u, v in edges if u in nodes and v in nodes)
    return h


def _ref_path_class(dag, nodes, sink):
    comps = dag.components
    value = max(comps[u].rho for u in nodes)
    achieving = {u for u in nodes if comps[u].rho >= value - spectral.ACHIEVE_RTOL * value}
    succ = {u: [] for u in nodes}
    pred = {u: [] for u in nodes}
    for u, v in dag.edges:
        if u in nodes and v in nodes:
            succ[u].append(v)
            pred[v].append(u)
    order = list(nx.topological_sort(_ref_as_digraph(nodes, dag.edges)))
    weight = {u: (1 if u in achieving else 0) for u in nodes}
    f = {u: 0 for u in nodes}
    for u in reversed(order):
        tails = [f[v] for v in succ[u]]
        f[u] = weight[u] + (max(tails) if tails else 0)
    root = dag.root_component
    g = {u: 0 for u in nodes}
    for u in order:
        heads = [g[p] for p in pred[u]]
        g[u] = weight[u] + (max(heads) if heads else 0)
    total = f[root]
    on_max = {u for u in nodes if g[u] + f[u] - weight[u] == total}
    period = math.lcm(*(comps[u].cyclicity for u in achieving & on_max)) \
        if achieving & on_max else 1
    return value, total, period


@st.composite
def random_image_systems(draw):
    # letter i mostly points at letters >= i, so the digraph splits into many
    # components; a back edge now and then merges some
    d = draw(st.integers(2, 10))
    ids = [f"x{i}" for i in range(d)]
    rules = {}
    for i, u in enumerate(ids):
        forward = st.integers(i, d - 1)
        image = draw(st.lists(forward | st.integers(0, d - 1), min_size=1, max_size=3))
        rules[u] = [ids[j] for j in ([0] + image if i == 0 else image)]
    return make_system(ids, rules, "x0")


@st.composite
def shaped_component_systems(draw):
    # components of known shape after a root x0 -> x0 ...: cycles of length
    # 1..3 (Perron value 1, cyclicity = length) and cycle-free singletons,
    # whose first letters point at the first letters of later components.
    # Perron values tie, so components with cyclicity > 1 can lie on or off
    # the maximizing paths. Choices come from one seeded generator: drawn
    # one by one, hypothesis keeps them near the first later component
    rng = draw(st.randoms(use_true_random=False))
    shapes = [rng.choice([1, 2, 3, "free"]) for _ in range(rng.randint(2, 7))]
    blocks, n = [[0]], 1
    for shape in shapes:
        size = 1 if shape == "free" else shape
        blocks.append(list(range(n, n + size)))
        n += size
    ids = [f"x{i}" for i in range(n)]
    rules = {}
    for bi, (shape, block) in enumerate(zip(["root", *shapes], blocks)):
        later = [blk[0] for blk in blocks[bi + 1:]]
        for j, u in enumerate(block):
            own = {"root": [0], "free": []}.get(shape, [block[(j + 1) % len(block)]])
            out = rng.sample(later, min(len(later), rng.randint(shape == "root", 2))) \
                if j == 0 else []
            rules[ids[u]] = [ids[v] for v in (own + out or [u])]  # a last free letter loops
    return make_system(ids, rules, "x0")


_OFF_PATH_TWO_CYCLE = {  # the longest chain r b c (s) skips the 2-cycle a1 a2
    "r": ["r", "a1", "b"], "a1": ["a2", "s"], "a2": ["a1"], "b": ["b", "c"], "c": ["c", "s"],
    "s": ["s"],
}


@settings(max_examples=300, deadline=None)
@given(random_image_systems() | shaped_component_systems())
@example(make_system(list(_OFF_PATH_TWO_CYCLE), _OFF_PATH_TWO_CYCLE, "r"))
def test_path_class_matches_networkx_reference(sys):
    dag = scc_dag(sys.morphism, sys.start)
    h = _ref_as_digraph(set(range(len(dag.components))), dag.edges)
    assert spectral._path_class(dag, None) == _ref_path_class(
        dag, set(range(len(dag.components))), None
    )
    for cb in range(len(dag.components)):
        nodes = set(nx.ancestors(h, cb)) | {cb}
        assert spectral._path_class(dag, cb) == _ref_path_class(dag, nodes, cb)


# --- one path class per component against one per target letter -------------

def _ref_targets_class(dag, targets):
    """_targets_class with a _path_class call per target letter: the oracle of
    the per-component classes."""
    live = []
    for t in targets:
        if t in dag.comp_of:
            beta, total, period = spectral._path_class(dag, dag.comp_of[t])
            if beta > 0.0:
                live.append((t, beta, total - 1, period))
    if not live:
        return 0.0, 0, 1, ()
    beta = max(p[1] for p in live)
    achieving = [p for p in live if p[1] >= beta - spectral.ACHIEVE_RTOL * beta]
    return (beta, max(p[2] for p in achieving), math.lcm(*(p[3] for p in achieving)),
            tuple(p[0] for p in live))


def _layered_system(rng, d):
    """A prolongable system on d letters cut into blocks: cycles of 2..4 letters
    (some with a chord), self-loops (some doubled) and cycle-free singletons.
    Letters point forward into later blocks, except into hidden blocks, which
    nothing points into, so their letters are unreachable. From a cycle-free
    letter, a target reached only through cycle-free letters is eventually zero."""
    blocks, n = [[0]], 1
    while n < d:
        size = min(d - n, rng.choice([1, 1, 2, 3, 4]))
        blocks.append(list(range(n, n + size)))
        n += size
    hidden = {bi for bi in range(1, len(blocks) - 1) if rng.random() < 0.2}
    images = {}
    for bi, block in enumerate(blocks):
        later = [u for bj in range(bi + 1, len(blocks)) if bj not in hidden for u in blocks[bj]]
        free = len(block) == 1 and bi and later and rng.random() < 0.4
        for j, u in enumerate(block):
            own = [] if free else [block[(j + 1) % len(block)]] * rng.choice([1, 1, 2])
            if len(block) > 2 and rng.random() < 0.3:
                own.append(rng.choice(block))
            out = rng.sample(later, min(len(later), rng.randint(0 if own else 1, 3)))
            images[u] = own + out
    if len(images[0]) == 1:  # x0 -> x0 ... must be prolongable
        images[0].append(0)
    ids = [f"x{i}" for i in range(d)]
    symbols = [str(i) for i in range(rng.randint(1, 4))]
    coding = {a: rng.choice(symbols) for a in ids}
    return make_system(ids, {ids[u]: [ids[v] for v in img] for u, img in images.items()},
                       "x0", coding)


def _layered_systems():
    rng = random.Random(32)
    for d in (*range(2, 65), *(rng.randint(2, 64) for _ in range(40))):
        yield _layered_system(rng, d)


def test_targets_class_matches_per_letter_reference():
    rng = random.Random(64)
    seen = {"components": 0, "unreachable": 0, "eventually_zero": 0}
    for sys in _layered_systems():
        m = sys.morphism
        for source in {0, *rng.sample(range(m.d), min(m.d, 6))}:
            dag = scc_dag(m, source)
            seen["components"] += len(dag.components) > 2
            seen["unreachable"] += len(dag.comp_of) < m.d
            target_sets = [(t,) for t in range(m.d)]
            target_sets += [sys.letters_for(sym) for sym in sys.symbols()]
            target_sets += [tuple(range(m.d)), tuple(reversed(range(m.d)))]
            classes = {}
            for targets in target_sets:
                want = _ref_targets_class(dag, targets)
                assert spectral._targets_class(dag, targets) == want, (m, source, targets)
                assert spectral._targets_class(dag, targets, classes) == want
                seen["eventually_zero"] += any(t in dag.comp_of and t not in want[3]
                                               for t in targets)
    assert all(n > 50 for n in seen.values()), seen


def test_analysis_report_matches_per_letter_reference():
    for sys in _layered_systems():
        dag = scc_dag(sys.morphism, sys.start)
        want = {}
        for sym in sys.symbols():
            beta, deg, _, live = _ref_targets_class(dag, sys.letters_for(sym))
            want[sym] = {"beta": beta, "m": deg, "eventually_zero": not live}
        got = analysis_report(sys)["letter_growth"]
        assert list(got.items()) == list(want.items()), sys.morphism


# --- the G fit, jumping by M^T, against the 20T-step walk ---------------------

def _ref_fit_constant(M, source, targets, rate, degree, period):
    """The fit read off count_vector_series up to k = 20T: the oracle."""
    series = count_vector_series(M, source, 20 * period)
    vals = []
    for k in range(10 * period, 20 * period + 1, period):
        c = series[k]
        cnt = sum(c) if targets is None else sum(c[t] for t in targets)
        if cnt > 0:
            vals.append(math.log(cnt) - degree * math.log(k) - k * math.log(rate))
    return math.exp(sum(vals) / len(vals)) if len(vals) >= 3 else None


def _cycle_morphism(lengths):
    """a -> a plus the head c{j}_0 of a cycle c{j}_0 -> c{j}_1 -> ... of each
    length, j counting the cycles: T = lcm(lengths)."""
    rules = {"a": ["a"]}
    for j, n in enumerate(lengths):
        cyc = [f"c{j}_{i}" for i in range(n)]
        rules["a"].append(cyc[0])
        rules.update({u: [cyc[(i + 1) % n]] for i, u in enumerate(cyc)})
    return make_morphism(list(rules), rules)


def _assert_fits_match_walk(m, letter_pairs):
    M = incidence_matrix(m)
    for a, b in letter_pairs:
        g = growth_class(m, a)
        src = m.alphabet.index(a)
        assert g.G_estimate == _ref_fit_constant(M, src, None, g.alpha, g.l, g.T)
        lg = letter_growth_class(m, a, b)
        if not lg.eventually_zero:
            want = _ref_fit_constant(M, src, (m.alphabet.index(b),), lg.beta, lg.m, lg.T)
            assert lg.Gp_estimate == want


@pytest.mark.parametrize("lengths, period, walked, powers", [
    ((2, 3, 5, 7), 210, 0, [210]),  # 20 strides by M^210 instead of 4200 image steps
    ((2, 1, 1, 1, 1, 1, 1), 2, 41, []),  # 9 letters: M^2 costs more than 40 image steps
], ids=["stride", "walk"])
def test_fit_steps_by_m_to_the_t_when_cheaper(monkeypatch, lengths, period, walked, powers):
    m = _cycle_morphism(lengths)
    walk, drawn, jumped = spectral._level_rows, [], []

    def counted(images, row):
        for r in walk(images, row):
            drawn.append(r)
            yield r

    monkeypatch.setattr(spectral, "_level_rows", counted)
    real_pow = spectral._mat_pow
    monkeypatch.setattr(spectral, "_mat_pow", lambda e, k: jumped.append(k) or real_pow(e, k))
    g = growth_class(m, "a")
    assert g.T == period and len(drawn) == walked and jumped == powers
    monkeypatch.undo()
    heads = [f"c{j}_0" for j in range(len(lengths))]
    _assert_fits_match_walk(m, [("a", "a"), ("a", "c0_1"), ("c0_0", "c0_1")]
                            + [("a", h) for h in heads])


def test_fit_walks_only_reached_letters(monkeypatch):
    # chain beside z -> z z, which a never reaches: from level 1 on the G
    # fit's walk keeps z at 0, and G is chain's own
    m = make_morphism("abcz", {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"], "z": ["z", "z"]})
    walk, rows = spectral._level_rows, []

    def counted(images, row):
        for k, r in enumerate(walk(images, row)):
            rows.append((k, r))
            yield r

    monkeypatch.setattr(spectral, "_level_rows", counted)
    g = growth_class(m, "a")
    lg = letter_growth_class(m, "a", "c")
    assert max(k for k, _ in rows) == 20 and all(r[3] == 0 for k, r in rows if k)
    monkeypatch.undo()
    assert (g, lg) == (growth_class(chain().morphism, "a"),
                       letter_growth_class(chain().morphism, "a", "c"))
    _assert_fits_match_walk(m, [("a", b) for b in "abc"] + [("z", "z")])


def test_period_1_fits_match_walk():
    for sys in (thue_morse(), fibonacci(), column(), chain(), doubling()):
        m = sys.morphism
        _assert_fits_match_walk(m, [(a, b) for a in m.alphabet.letters for b in m.alphabet.letters])
        assert growth_class(m, sys.start).T == 1


@settings(max_examples=50, deadline=None)
@given(small_morphisms())
def test_fits_match_walk_on_small_morphisms(m):
    letters = m.alphabet.letters
    _assert_fits_match_walk(m, [(a, b) for a in letters for b in letters])


@pytest.mark.parametrize("lengths", [(), (2, 3, 5, 7)], ids=["fixed", "stride"])
def test_count_matrix_built_once(matrix_builds, lengths):
    # T = 210 strides by M^210 in every G fit; T = 1 walks the images
    sys = MorphicSystem.build(_cycle_morphism(lengths + (1,)), "a")
    m = sys.morphism
    analysis_report(sys)
    for a in ("a", "c0_0"):
        growth_class(m, a)
        for b in m.alphabet.letters:
            letter_growth_class(m, a, b)
    assert matrix_builds == [m]
