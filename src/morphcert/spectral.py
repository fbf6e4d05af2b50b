"""Incidence matrices, exact letter counts via matrix powers, growth classes.

Growth classes are computed combinatorially from the condensation DAG of the
letter-dependency digraph (per-component Perron values, then one pass down it
from the root), never from Jordan forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from .errors import DomainError, NonConvergence, ResourceError, _length
from .words import Morphism, MorphicSystem, _letter_index, _level_rows, _reached_images

MAX_DIM = 64
PERRON_TOL = 1e-12
PERRON_MAX_ITER = 100_000
ACHIEVE_RTOL = 1e-9  # relative tolerance when deciding "this component achieves alpha"


def _check_dim(m: Morphism) -> None:
    if m.d > MAX_DIM:
        raise ResourceError(f"alphabet has {m.d} letters; spectral ops support at most {MAX_DIM}")


@dataclass(frozen=True)
class IncidenceMatrix:
    """entries[i][j] = |phi(a_j)|_{a_i}, exact integers, row-major."""

    d: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        _check_indices(self.d, i, j)
        return self.entries[i][j]

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(self.d))


def _check_indices(d: int, *indices) -> None:
    if not all(type(i) is int and 0 <= i < d for i in indices):
        raise DomainError(f"letter indices {indices} must be ints in 0..{d - 1}")


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    _check_dim(m)
    return IncidenceMatrix(m.d, m.count_matrix)


def _mat_pow(entries, k: int) -> np.ndarray:
    """entries^k by repeated squaring, exact: an object array of Python ints."""
    return np.linalg.matrix_power(np.array(entries, dtype=object), k)


def matrix_power_count(M: IncidenceMatrix, k: int, source: int, target: int) -> int:
    """Exact |phi^k(a_source)|_{a_target} by repeated-squaring matrix power."""
    k = _length(k, "k")
    _check_indices(M.d, source, target)
    return _mat_pow(M.entries, k)[target, source]


@dataclass(frozen=True)
class Component:
    letters: tuple[int, ...]
    rho: float
    cyclicity: int


@dataclass(frozen=True)
class ComponentDag:
    """Condensation of the dependency digraph over letters reachable from root."""

    components: tuple[Component, ...]
    edges: tuple[tuple[int, int], ...]
    comp_of: Mapping[int, int]
    root_component: int


def perron_value(sub: Sequence[Sequence[float]]) -> float:
    """Spectral radius of a finite nonnegative matrix via power iteration on (sub + I).

    The +I shift makes any irreducible nonnegative matrix primitive, so the
    Collatz-Wielandt bounds close geometrically. A reducible matrix may miss
    the tolerance and raise NonConvergence.
    """
    a = np.asarray(sub, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DomainError("perron_value needs a nonempty square matrix")
    if (a < 0).any():
        raise DomainError("perron_value needs a nonnegative matrix")
    if not np.isfinite(a).all():
        raise DomainError("perron_value needs finite entries")
    n = a.shape[0]
    b = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    y, ratios = np.empty(n), np.empty(n)
    # the iterates are b @ x, y / x and y / sum(y) as numpy forms them, written
    # into fixed arrays. The bounds are the ends of the sorted ratios: one call
    # in place of ndarray.min and max and their wrappers. Sorting puts NaN
    # last, so a NaN ratio (0/0 once an entry of x underflows) keeps hi NaN
    # and the bounds open, as it keeps ndarray.max NaN. An entry that
    # underflows while what feeds it does not gives an inf ratio, which keeps
    # them open too. Both are expected, so they do not warn. The calls are
    # bound once: on at most 64 entries, lookups are a share of each iteration
    matmul, divide, total = np.matmul, np.divide, np.add.reduce
    sort, item = ratios.sort, ratios.item
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PERRON_MAX_ITER):
            matmul(b, x, y)
            divide(y, x, ratios)
            sort()
            lo, hi = item(0), item(-1)
            if hi - lo <= PERRON_TOL * hi < math.inf:
                return 0.5 * (lo + hi) - 1.0
            divide(y, total(y), x)
    raise NonConvergence(
        f"power iteration missed tolerance {PERRON_TOL} after {PERRON_MAX_ITER} iterations"
    )


def _cyclicity_of(images: Sequence[bytes], letters: tuple[int, ...]) -> int:
    """gcd of cycle lengths inside one SCC (1 for a cycle-free singleton)."""
    inside = set(letters)
    root = letters[0]
    level = {root: 0}
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in images[u]:
                if v not in inside:
                    continue
                if v in level:
                    g = math.gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return g if g > 0 else 1


def cyclicity(m: Morphism, component: Iterable) -> int:
    """Index of imprimitivity of one strongly connected component."""
    letters = tuple(_letter_index(m, a) for a in component)
    if not letters:
        raise DomainError("component must be nonempty")
    return _cyclicity_of(m.images, letters)


def scc_dag(m: Morphism, root) -> ComponentDag:
    """Condensation DAG restricted to letters reachable from root.

    Components are ordered by smallest letter index, so output is deterministic.
    """
    _check_dim(m)
    r = _letter_index(m, root)
    images = _reached_images(m.images, (r,))
    reach = [u for u, img in enumerate(images) if img]
    g = nx.DiGraph()
    g.add_nodes_from(reach)
    g.add_edges_from((u, v) for u in reach for v in images[u])
    comps = sorted((tuple(sorted(c)) for c in nx.strongly_connected_components(g)),
                   key=lambda c: c[0])
    comp_of = {lt: ci for ci, c in enumerate(comps) for lt in c}
    edges = sorted({
        (comp_of[u], comp_of[v])
        for u in reach for v in images[u]
        if comp_of[u] != comp_of[v]
    })
    rows = m.count_matrix
    components = tuple(
        Component(
            c, perron_value([[rows[t][s] for s in c] for t in c]), _cyclicity_of(images, c)
        )
        for c in comps
    )
    return ComponentDag(components, tuple(edges), comp_of, comp_of[r])


@dataclass(frozen=True)
class GrowthClass:
    """|phi^{Tk}(a)| ~ G (Tk)^l alpha^{Tk}."""

    alpha: float
    l: int
    T: int
    G_estimate: float | None


@dataclass(frozen=True)
class LetterGrowthClass:
    """|phi^{Tk}(a)|_b ~ G' (Tk)^m beta^{Tk} (dominant part)."""

    beta: float
    m: int
    T: int
    Gp_estimate: float | None
    eventually_zero: bool


def _word_class(classes: Sequence[tuple[float, int, int]]) -> tuple[float, int, int]:
    """The dominant (value, weight, T) of a set of chain classes: the largest
    value, the most weight among the classes that achieve it, and the lcm of
    the periods of those that carry that most. Over all _sink_classes of a
    DAG this is the word's (alpha, l + 1, T)."""
    value = max(c[0] for c in classes)
    tops = [c for c in classes if c[0] >= value - ACHIEVE_RTOL * value]
    most = max(c[1] for c in tops)
    return value, most, math.lcm(*(c[2] for c in tops if c[1] == most))


def _sink_classes(dag: ComponentDag) -> list[tuple[float, int, int]]:
    """(value, poly degree + 1, T) of the dominant root..u chains, per component u.

    value is the largest Perron value on a root..u path; a component weighs 1
    iff its Perron value achieves it, and degree + 1 is the most weight on one
    root..u path; T is the lcm of cyclicities of the achieving components on
    the paths that carry that most. One pass from the root: u takes the
    _word_class of its predecessors' classes and its own weight-0 chain, so a
    predecessor whose value misses u's adds no weight, then adds its own.
    A predecessor within ACHIEVE_RTOL below u's value brings the weight it
    counted against its own value, which may include a component that misses
    u's: the tolerance is not transitive (ROADMAP item 6).
    """
    comps = dag.components
    succ: list[list[int]] = [[] for _ in comps]
    pred: list[list[int]] = [[] for _ in comps]
    for u, v in dag.edges:
        succ[u].append(v)
        pred[v].append(u)
    # each component after all that reach it: it joins once its last predecessor has
    left = [len(p) for p in pred]
    order = [dag.root_component]
    for u in order:
        for v in succ[u]:
            left[v] -= 1
            if not left[v]:
                order.append(v)
    classes: list = [None] * len(comps)
    for u in order:
        comp = comps[u]
        value, most, period = _word_class([(comp.rho, 0, 1), *(classes[p] for p in pred[u])])
        if comp.rho >= value - ACHIEVE_RTOL * value:
            most, period = most + 1, math.lcm(period, comp.cyclicity)
        classes[u] = value, most, period
    return classes


def _fit_constant(
    m: Morphism,
    source: int,
    targets: tuple[int, ...] | None,
    rate: float,
    degree: int,
    period: int,
) -> float | None:
    """exp(mean residual) of ln(count) - degree*ln(Tk) - Tk*ln(rate), k = 10..20.

    A count is the source's entry of a weight row (ones or the targets'
    indicator) carried to level Tk exactly by its reached images or by M^T."""
    vals = []
    lograte = math.log(rate)
    ks = range(period * 10, period * 20 + 1, period)
    d = m.d
    weights = [1] * d if targets is None else [int(a in targets) for a in range(d)]
    # M^T costs bit_length + popcount products of d^3, then 20 strides of d^2
    # reach k = 20T; the images take 20T steps of sum |phi(a)|. At T = 1 there
    # is nothing to jump over
    jump = (period.bit_length() + period.bit_count()) * d**3 + 20 * d * d
    if period > 1 and jump < 20 * period * sum(map(len, m.images)):
        power = _mat_pow(m.count_matrix, period)
        rows = [np.array(weights, dtype=object)]
        for _ in range(20):
            rows.append(rows[-1] @ power)
        rows = rows[10:]
    else:
        rows = _level_rows(_reached_images(m.images, (source,)), weights)
        rows = islice(rows, 10 * period, 20 * period + 1, period)
    for k, row in zip(ks, rows):
        cnt = row[source]
        if cnt <= 0:
            continue
        vals.append(math.log(cnt) - degree * math.log(k) - k * lograte)
    if len(vals) < 3:
        return None
    return math.exp(sum(vals) / len(vals))


def growth_class(m: Morphism, a) -> GrowthClass:
    """Constructive (alpha, l, T) for |phi^k(a)|, plus a fitted G estimate."""
    alpha, total, period = _word_class(_sink_classes(scc_dag(m, a)))
    G = _fit_constant(m, _letter_index(m, a), None, alpha, total - 1, period)
    return GrowthClass(alpha, total - 1, period, G)


def _targets_class(
    dag: ComponentDag, classes: list[tuple[float, int, int]], targets
) -> tuple[float, int, int, tuple[int, ...]]:
    """(beta, m, T, live targets) for the summed counts of `targets` in phi^k(root),
    from their components' entries of `classes`, the DAG's _sink_classes.

    A target is eventually zero, and not live, iff it is unreachable or the
    largest Perron value on its root..target paths is 0. A component with a
    cycle has Perron value >= 1 (nonnegative integer, irreducible); a
    cycle-free singleton's is exactly 0.0 (power iteration on [[0]] + I). So
    0 means no cycle on any path: occurrence paths are shorter than d and
    counts vanish for k >= d, while a cycle can be pumped into occurrences
    for infinitely many k. With no live target the class is (0.0, 0, 1, ()).
    """
    live = []  # (target, beta, m, T) of the targets that are not eventually zero
    for t in targets:
        c = dag.comp_of.get(t)
        if c is None:
            continue
        beta, total, period = classes[c]
        if beta > 0.0:
            live.append((t, beta, total - 1, period))
    if not live:
        return 0.0, 0, 1, ()
    beta = max(p[1] for p in live)
    achieving = [p for p in live if p[1] >= beta - ACHIEVE_RTOL * beta]
    deg = max(p[2] for p in achieving)
    period = math.lcm(*(p[3] for p in achieving))
    return beta, deg, period, tuple(p[0] for p in live)


def _targets_growth_class(m: Morphism, src: int, targets) -> LetterGrowthClass:
    """The class of the summed `targets` counts in phi^k(src), with its G' fit."""
    dag = scc_dag(m, src)
    beta, deg, period, live = _targets_class(dag, _sink_classes(dag), targets)
    if not live:
        return LetterGrowthClass(beta, deg, period, None, True)
    Gp = _fit_constant(m, src, live, beta, deg, period)
    return LetterGrowthClass(beta, deg, period, Gp, False)


def letter_growth_class(m: Morphism, a, b) -> LetterGrowthClass:
    """Constructive (beta, m, T) for |phi^k(a)|_b, plus a fitted G' estimate."""
    return _targets_growth_class(m, _letter_index(m, a), (_letter_index(m, b),))


def symbol_growth_class(sys: MorphicSystem, symbol: str) -> LetterGrowthClass:
    """Growth of symbol counts in phi^k(start), aggregated over coding preimages."""
    return _targets_growth_class(sys.morphism, sys.start, sys.letters_for(symbol))


def _verdict_classes(sys: MorphicSystem, symbol: str) -> tuple[GrowthClass, LetterGrowthClass]:
    """growth_class of the start letter and symbol_growth_class of `symbol`
    from one condensation, without the G and G' fits the case analysis never
    reads."""
    dag = scc_dag(sys.morphism, sys.start)
    classes = _sink_classes(dag)
    alpha, total, period = _word_class(classes)
    beta, deg, beta_period, live = _targets_class(dag, classes, sys.letters_for(symbol))
    return (
        GrowthClass(alpha, total - 1, period, None),
        LetterGrowthClass(beta, deg, beta_period, None, not live),
    )


def analysis_report(sys: MorphicSystem) -> dict:
    """JSON-ready analysis payload for one morphic system."""
    m = sys.morphism
    M = incidence_matrix(m)
    dag = scc_dag(m, sys.start)
    classes = _sink_classes(dag)
    alpha, total, period = _word_class(classes)
    ids = m.alphabet.letters
    components = [
        {
            "letters": [ids[i] for i in comp.letters],
            "rho": comp.rho,
            "cyclicity": comp.cyclicity,
        }
        for comp in dag.components
    ]
    letter_growth = {}
    for sym in sys.symbols():
        beta, deg, _, live = _targets_class(dag, classes, sys.letters_for(sym))
        letter_growth[sym] = {"beta": beta, "m": deg, "eventually_zero": not live}
    # one str call per distinct entry: a matrix holds a few small counts d^2 times
    text = {e: str(e) for e in set().union(*M.entries)}
    return {
        "alphabet": list(ids),
        "incidence_matrix": [list(map(text.__getitem__, row)) for row in M.entries],
        "components": components,
        "growth": {
            "alpha": alpha,
            "l": total - 1,
            "T": period,
            "G_estimate": _fit_constant(m, sys.start, None, alpha, total - 1, period),
        },
        "letter_growth": letter_growth,
    }
