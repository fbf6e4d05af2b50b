"""Incidence matrices, exact letter counts via matrix powers, growth classes.

Growth classes are computed combinatorially from the condensation DAG of the
letter-dependency digraph (per-component Perron values + longest-path DP),
never from Jordan forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from .errors import DomainError, NonConvergence, ResourceError
from .words import Morphism, MorphicSystem, _letter_index, count_matrix, count_vectors

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
        return self.entries[i][j]

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(self.d))


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    _check_dim(m)
    return IncidenceMatrix(m.d, count_matrix(m))


def _mat_mul(a, b, d):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def _mat_pow(entries, k: int, d: int):
    result = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    base = entries
    while k:
        if k & 1:
            result = _mat_mul(result, base, d)
        base = _mat_mul(base, base, d)
        k >>= 1
    return result


def matrix_power_count(M: IncidenceMatrix, k: int, source: int, target: int) -> int:
    """Exact |phi^k(a_source)|_{a_target} by repeated-squaring matrix power."""
    if k < 0:
        raise DomainError("k must be >= 0")
    power = _mat_pow(M.entries, k, M.d)
    return power[target][source]


def count_vector_series(M: IncidenceMatrix, source: int, kmax: int) -> list[tuple[int, ...]]:
    """c_k with c_k[t] = |phi^k(a_source)|_{a_t} for k = 0..kmax (exact)."""
    vectors = count_vectors(M.entries, bytes([source]))
    return [tuple(c) for c in islice(vectors, kmax + 1)]


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


def _successors(m: Morphism) -> dict[int, list[int]]:
    return {i: sorted(set(m.images[i])) for i in range(m.d)}


def perron_value(sub: Sequence[Sequence[float]]) -> float:
    """Spectral radius of a nonnegative matrix via power iteration on (sub + I).

    The +I shift makes any irreducible nonnegative matrix primitive, so the
    Collatz-Wielandt bounds close geometrically.
    """
    a = np.asarray(sub, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("perron_value needs a square matrix")
    if (a < 0).any():
        raise DomainError("perron_value needs a nonnegative matrix")
    n = a.shape[0]
    b = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(PERRON_MAX_ITER):
        y = b @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= PERRON_TOL * hi:
            return 0.5 * (lo + hi) - 1.0
        x = y / y.sum()
    raise NonConvergence(
        f"power iteration missed tolerance {PERRON_TOL} after {PERRON_MAX_ITER} iterations"
    )


def _cyclicity_of(succ: Mapping[int, list[int]], letters: tuple[int, ...]) -> int:
    """gcd of cycle lengths inside one SCC (1 for a cycle-free singleton)."""
    inside = set(letters)
    root = letters[0]
    level = {root: 0}
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
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
    return _cyclicity_of(_successors(m), letters)


def scc_dag(m: Morphism, root) -> ComponentDag:
    """Condensation DAG restricted to letters reachable from root.

    Components are ordered by smallest letter index, so output is deterministic.
    """
    _check_dim(m)
    r = _letter_index(m, root)
    succ = _successors(m)
    reach = {r}
    stack = [r]
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if v not in reach:
                reach.add(v)
                stack.append(v)
    g = nx.DiGraph()
    g.add_nodes_from(sorted(reach))
    for u in reach:
        g.add_edges_from((u, v) for v in succ[u])
    comps = sorted((tuple(sorted(c)) for c in nx.strongly_connected_components(g)),
                   key=lambda c: c[0])
    comp_of = {lt: ci for ci, c in enumerate(comps) for lt in c}
    edges = sorted({
        (comp_of[u], comp_of[v])
        for u in reach for v in succ[u]
        if comp_of[u] != comp_of[v]
    })
    rows = count_matrix(m)
    components = tuple(
        Component(
            c, perron_value([[rows[t][s] for s in c] for t in c]), _cyclicity_of(succ, c)
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


def _path_class(dag: ComponentDag, nodes: set[int], sink: int | None):
    """(value, poly degree + 1, T) of the dominant chains within `nodes`.

    Longest-path DP where a component weighs 1 iff its Perron value achieves
    the max over `nodes`; T is the lcm of cyclicities of achieving components
    that lie on at least one maximizing path. `sink` restricts paths to those
    ending at that component (None = any endpoint).
    """
    comps = dag.components
    value = max(comps[u].rho for u in nodes)
    achieving = {u for u in nodes if comps[u].rho >= value - ACHIEVE_RTOL * value}
    succ: dict[int, list[int]] = {u: [] for u in nodes}
    pred: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in dag.edges:
        if u in nodes and v in nodes:
            succ[u].append(v)
            pred[v].append(u)
    order = [u for u in nx.topological_sort(_as_digraph(nodes, dag.edges))]
    weight = {u: (1 if u in achieving else 0) for u in nodes}
    # `nodes` is path-closed (every node lies on a root..sink path when a sink
    # is given), so maximal paths end at the sink and weights >= 0 make the
    # unconstrained DP equal the sink-constrained one
    f = {u: 0 for u in nodes}  # best weight of a path starting at u
    for u in reversed(order):
        tails = [f[v] for v in succ[u]]
        f[u] = weight[u] + (max(tails) if tails else 0)
    root = dag.root_component
    g = {u: 0 for u in nodes}  # best weight of a path root..u
    for u in order:
        heads = [g[p] for p in pred[u]]
        g[u] = weight[u] + (max(heads) if heads else 0)
    total = f[root]
    on_max = {u for u in nodes if g[u] + f[u] - weight[u] == total}
    period = math.lcm(*(comps[u].cyclicity for u in achieving & on_max)) \
        if achieving & on_max else 1
    return value, total, period


def _as_digraph(nodes: set[int], edges) -> "nx.DiGraph":
    h = nx.DiGraph()
    h.add_nodes_from(nodes)
    h.add_edges_from((u, v) for u, v in edges if u in nodes and v in nodes)
    return h


def _fit_constant(
    M: IncidenceMatrix,
    source: int,
    targets: tuple[int, ...] | None,
    rate: float,
    degree: int,
    period: int,
) -> float | None:
    """exp(mean residual) of ln(count) - degree*ln(Tk) - Tk*ln(rate), k = 10..20."""
    vals = []
    lograte = math.log(rate)
    ks = range(period * 10, period * 20 + 1, period)
    vectors = islice(count_vectors(M.entries, bytes([source])), ks.start, ks.stop, period)
    for k, c in zip(ks, vectors):
        cnt = sum(c) if targets is None else sum(c[t] for t in targets)
        if cnt <= 0:
            continue
        vals.append(math.log(cnt) - degree * math.log(k) - k * lograte)
    if len(vals) < 3:
        return None
    return math.exp(sum(vals) / len(vals))


def growth_class(m: Morphism, a) -> GrowthClass:
    """Constructive (alpha, l, T) for |phi^k(a)|, plus a fitted G estimate."""
    dag = scc_dag(m, a)
    nodes = set(range(len(dag.components)))
    alpha, total, period = _path_class(dag, nodes, sink=None)
    src = _letter_index(m, a)
    G = _fit_constant(incidence_matrix(m), src, None, alpha, total - 1, period)
    return GrowthClass(alpha, total - 1, period, G)


def _targets_class(m: Morphism, dag: ComponentDag, src: int, targets) -> LetterGrowthClass:
    """Constructive (beta, m, T) and G' for the summed counts of `targets` in phi^k(src).

    `dag` is scc_dag(m, src). A target is eventually zero iff it is
    unreachable or the largest Perron value on its root..target paths is 0.
    A component with a cycle has Perron value >= 1 (nonnegative integer,
    irreducible); a cycle-free singleton's is exactly 0.0 (power iteration on
    [[0]] + I). So 0 means no cycle on any path: occurrence paths are shorter
    than d and counts vanish for k >= d, while a cycle can be pumped into
    occurrences for infinitely many k.
    """
    h = _as_digraph(set(range(len(dag.components))), dag.edges)
    live = []  # (target, beta, m, T) of the targets that are not eventually zero
    for t in targets:
        if t in dag.comp_of:
            cb = dag.comp_of[t]
            nodes = set(nx.ancestors(h, cb)) | {cb}  # exactly the components on root..cb paths
            beta, total, period = _path_class(dag, nodes, sink=cb)
            if beta > 0.0:
                live.append((t, beta, total - 1, period))
    if not live:
        return LetterGrowthClass(0.0, 0, 1, None, True)
    beta = max(p[1] for p in live)
    achieving = [p for p in live if p[1] >= beta - ACHIEVE_RTOL * beta]
    deg = max(p[2] for p in achieving)
    period = math.lcm(*(p[3] for p in achieving))
    alive = tuple(p[0] for p in live)
    Gp = _fit_constant(incidence_matrix(m), src, alive, beta, deg, period)
    return LetterGrowthClass(beta, deg, period, Gp, False)


def letter_growth_class(m: Morphism, a, b) -> LetterGrowthClass:
    """Constructive (beta, m, T) for |phi^k(a)|_b, plus a fitted G' estimate."""
    src, tgt = _letter_index(m, a), _letter_index(m, b)
    return _targets_class(m, scc_dag(m, a), src, (tgt,))


def symbol_growth_class(sys: MorphicSystem, symbol: str) -> LetterGrowthClass:
    """Growth of symbol counts in phi^k(start), aggregated over coding preimages."""
    targets = sys.letters_for(symbol)
    return _targets_class(sys.morphism, scc_dag(sys.morphism, sys.start), sys.start, targets)


def analysis_report(sys: MorphicSystem) -> dict:
    """JSON-ready analysis payload for one morphic system."""
    m = sys.morphism
    M = incidence_matrix(m)
    dag = scc_dag(m, sys.start)
    growth = growth_class(m, sys.start)
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
        cls = _targets_class(m, dag, sys.start, sys.letters_for(sym))
        letter_growth[sym] = {
            "beta": cls.beta,
            "m": cls.m,
            "eventually_zero": cls.eventually_zero,
        }
    return {
        "alphabet": list(ids),
        "incidence_matrix": [[str(e) for e in row] for row in M.entries],
        "components": components,
        "growth": {
            "alpha": growth.alpha,
            "l": growth.l,
            "T": growth.T,
            "G_estimate": growth.G_estimate,
        },
        "letter_growth": letter_growth,
    }
