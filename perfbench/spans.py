"""Spans around the public functions of each morphcert layer.

The tracer replaces module attributes with timing wrappers. morphcert looks
its cross-module calls up at call time (``numtheory.sieve_s2_additive`` from
``certify``, ``scc_dag`` from inside ``spectral``), so nested calls produce
nested spans. Spans live in memory as (id, parent id, layer, start, end) and
are reduced to per-layer self times when the run ends; a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field

MIB = 2**20

# layer -> (module, public functions whose calls open a span in that layer)
SPANNED = {
    "numtheory.sieve": ("numtheory", (
        "sieve_s2_additive", "sieve_s2_nonzero", "sieve_s2_multiplicative", "spf_sieve")),
    "numtheory.count_series": ("numtheory", ("count_series",)),
    "numtheory.verify": ("numtheory", (
        "diff_bound_check", "multiplicativity_check", "lr_euler_product",
        "lr_estimate_sieve")),
    "words.stream": ("words", ("fixed_point_stream", "count_in_prefix", "prefix_count_series")),
    "words.iterate": ("words", ("iterate", "checkpoints")),
    "spectral.growth": ("spectral", (
        "analysis_report", "growth_class", "letter_growth_class", "symbol_growth_class",
        "matrix_power_count", "count_vector_series", "cyclicity")),
    "spectral.scc_dag": ("spectral", ("scc_dag",)),
    "certify": ("certify", (
        "certify_nonmorphic", "geometric_checkpoints", "select_model", "theorem1_verdict")),
    "certify.fit": ("certify", ("fit_logdamped", "fit_polyexp", "gamma_confidence")),
}
# cheap leaf functions that are counted but open no span
COUNTED = {"spectral": ("incidence_matrix", "perron_value")}


@dataclass
class Trace:
    """Spans and counters of one traced section (or several, merged)."""

    spans: list = field(default_factory=list)   # [id, parent, layer, t0, t1]
    calls: dict = field(default_factory=dict)   # function name -> calls
    n_sieved: int = 0
    symbols: int = 0
    fit_points: int = 0
    count_peak_bytes: int = 0
    scc_keys: set = field(default_factory=set)

    def to_json(self) -> dict:
        d = dict(self.__dict__)
        d["scc_keys"] = sorted(self.scc_keys)
        return d

    def merge(self, other: dict) -> None:
        base = len(self.spans)
        for sid, parent, layer, t0, t1 in other["spans"]:
            self.spans.append([sid + base, None if parent is None else parent + base,
                               layer, t0, t1])
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        self.n_sieved += other["n_sieved"]
        self.symbols += other["symbols"]
        self.fit_points += other["fit_points"]
        self.count_peak_bytes = max(self.count_peak_bytes, other["count_peak_bytes"])
        self.scc_keys.update(other["scc_keys"])

    def self_times(self) -> dict:
        child_time: dict = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict = {}
        for sid, _, layer, t0, t1 in self.spans:
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
        return out


def _symbols_out(name: str, args, result) -> int:
    if name == "iterate":
        return len(result)
    if name == "checkpoints":
        return 0
    if name == "prefix_count_series":
        return max((n for n, _ in result), default=0)
    return args[2] if name == "count_in_prefix" else args[1]


class Tracer:
    """Installs span wrappers on the morphcert modules; ``uninstall`` restores them."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.trace = Trace()
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for layer, (mod, names) in SPANNED.items():
            for name in names:
                self._replace(mod, name, self._spanned(layer, name))
        for mod, names in COUNTED.items():
            for name in names:
                self._replace(mod, name, self._counted(name))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _replace(self, mod: str, name: str, make) -> None:
        module = self.modules[mod]
        original = getattr(module, name, None)
        if original is None:  # a function the program no longer has opens no span
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def _counted(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.trace.calls[name] = self.trace.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _spanned(self, layer: str, name: str):
        tr = self.trace

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tr.calls[name] = tr.calls.get(name, 0) + 1
                if layer == "numtheory.count_series":
                    tracemalloc.start()
                sid = len(tr.spans)
                parent = self._stack[-1] if self._stack else None
                span = [sid, parent, layer, time.process_time(), 0.0]
                tr.spans.append(span)
                self._stack.append(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[4] = time.process_time()
                    self._stack.pop()
                    if layer == "numtheory.count_series":
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tr.count_peak_bytes = max(tr.count_peak_bytes, peak)
                self._count(layer, name, args, result)
                return result
            return wrapper
        return make

    def _count(self, layer: str, name: str, args, result) -> None:
        tr = self.trace
        if layer == "numtheory.sieve" and name != "spf_sieve":
            tr.n_sieved += args[0] + 1
        elif layer.startswith("words."):
            tr.symbols += _symbols_out(name, args, result)
        elif layer == "certify.fit":
            tr.fit_points += len(args[0])
        elif name == "scc_dag":
            m, root = args[0], args[1]
            tr.scc_keys.add(repr((m.alphabet.letters, m.images, root)))


def layer_metrics(trace: Trace, rounds: int, mem_budget: int) -> dict:
    """Per-layer metrics of a traced section, per round of the workload."""
    st = trace.self_times()
    calls = trace.calls

    def per_round(x):
        return x / rounds

    words_s = st.get("words.stream", 0.0) + st.get("words.iterate", 0.0)
    scc_calls = calls.get("scc_dag", 0)
    peak = trace.count_peak_bytes
    return {
        "numtheory.sieve.self_s": (per_round(st.get("numtheory.sieve", 0.0)), "s"),
        "numtheory.count_series.self_s": (
            per_round(st.get("numtheory.count_series", 0.0)), "s"),
        "numtheory.n_sieved": (per_round(trace.n_sieved), "count"),
        "numtheory.count_series.peak_mib": (peak / MIB, "MiB"),
        "numtheory.peak_over_budget": (peak / mem_budget, "ratio"),
        "numtheory.verify.self_s": (per_round(st.get("numtheory.verify", 0.0)), "s"),
        "words.stream.self_s": (per_round(st.get("words.stream", 0.0)), "s"),
        "words.iterate.self_s": (per_round(st.get("words.iterate", 0.0)), "s"),
        "words.symbols": (per_round(trace.symbols), "count"),
        "words.symbols_per_s": (trace.symbols / words_s if words_s else 0.0, "1/s"),
        "spectral.growth.self_s": (per_round(st.get("spectral.growth", 0.0)), "s"),
        "spectral.scc_dag.self_s": (per_round(st.get("spectral.scc_dag", 0.0)), "s"),
        "spectral.scc_dag.calls": (per_round(scc_calls), "count"),
        "spectral.scc_dag.reuse": (
            len(trace.scc_keys) / scc_calls if scc_calls else 0.0, "ratio"),
        "spectral.incidence_matrix.calls": (
            per_round(calls.get("incidence_matrix", 0)), "count"),
        "spectral.perron_value.calls": (per_round(calls.get("perron_value", 0)), "count"),
        "certify.self_s": (per_round(st.get("certify", 0.0)), "s"),
        "certify.fit.self_s": (per_round(st.get("certify.fit", 0.0)), "s"),
        "certify.fit_points": (per_round(trace.fit_points), "count"),
    }
