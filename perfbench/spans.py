"""Spans around the program's public calls, installed from the benchmark.

The program has no tracing of its own, so `Tracer.install` rebinds each
traced public function, in every proxitop module that holds a reference
to it, to a wrapper that opens a span around the call. Spans nest on a
stack: a span's inclusive time is its duration, its self time is that
duration minus the durations of its direct child spans. Only per-name
totals are kept, so memory stays flat however many calls a run makes.
Calls made per element, such as `ProximityRelation.near`, are counted
rather than spanned: the relation's own `eval_count` is summed over
every relation created during an operation.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, function, span name). The span name is the layer's metric stem.
SPANS = (
    ("modelfile", "parse", "modelfile.parse"),
    ("modelfile", "serialize", "modelfile.serialize"),
    ("report", "render_json", "report.render"),
    ("report", "render_text", "report.render"),
    ("spaces", "validate_topology", "spaces.validate_topology"),
    ("spaces", "closure", "spaces.closure"),
    ("proximity", "is_compatible", "proximity.is_compatible"),
    ("strong", "strongly_far", "strong.strongly_far"),
    ("strong", "hat_strongly_far", "strong.hat"),
    ("hyperspace", "hit_set", "hyperspace.hit_miss"),
    ("hyperspace", "miss_set", "hyperspace.hit_miss"),
    ("hyperspace", "far_miss_set", "hyperspace.far_miss"),
    ("hyperspace", "sf_miss_set", "hyperspace.sf_miss"),
    ("hyperspace", "refines", "hyperspace.refines"),
)

MODULES = ("cli", "modelfile", "report", "spaces", "proximity", "strong", "hyperspace", "search")

AXIOMS = ("P0", "P1", "P2", "P3", "P4", "P5", "EF", "EF-betweenness")

# Per-layer metrics: name -> (unit, how it is read from one round's totals).
LAYER_METRICS: dict[str, tuple[str, tuple[str, str]]] = {
    "modelfile.parse_s": ("s", ("total", "modelfile.parse")),
    "modelfile.serialize_s": ("s", ("total", "modelfile.serialize")),
    "report.render_s": ("s", ("total", "report.render")),
    "spaces.validate_topology_s": ("s", ("total", "spaces.validate_topology")),
    "spaces.validate_topology_calls": ("count", ("calls", "spaces.validate_topology")),
    "spaces.closure_s": ("s", ("total", "spaces.closure")),
    "spaces.closure_calls": ("count", ("calls", "spaces.closure")),
    "proximity.check_axioms_s": ("s", ("total", "proximity.check_axioms")),
    "proximity.near_calls": ("count", ("count", "proximity.near_calls")),
    **{f"proximity.axiom.{a}_s": ("s", ("total", f"proximity.axiom.{a}")) for a in AXIOMS},
    "proximity.is_compatible_s": ("s", ("total", "proximity.is_compatible")),
    "strong.strongly_far_s": ("s", ("total", "strong.strongly_far")),
    "strong.strongly_far_calls": ("count", ("calls", "strong.strongly_far")),
    "strong.hat_s": ("s", ("total", "strong.hat")),
    "strong.hat_calls": ("count", ("calls", "strong.hat")),
    "hyperspace.build_s": ("s", ("total", "hyperspace.build")),
    "hyperspace.base_s": ("s", ("self", "hyperspace.build")),
    "hyperspace.base_size": ("count", ("count", "hyperspace.base_size")),
    "hyperspace.subbase_size": ("count", ("count", "hyperspace.subbase_size")),
    "hyperspace.hit_miss_s": ("s", ("total", "hyperspace.hit_miss")),
    "hyperspace.far_miss_s": ("s", ("total", "hyperspace.far_miss")),
    "hyperspace.sf_miss_s": ("s", ("total", "hyperspace.sf_miss")),
    "hyperspace.refines_s": ("s", ("total", "hyperspace.refines")),
    "hyperspace.cap_exceeded": ("count", ("count", "hyperspace.cap_exceeded")),
    "search.search_s": ("s", ("total", "search.search")),
    "search.candidates_s": ("s", ("total", "search.candidates")),
    "search.evaluations": ("count", ("count", "search.evaluations")),
    "search.topologies_s": ("s", ("total", "search.topologies")),
}


class Tracer:
    """Span stack plus per-name inclusive time, self time, calls and counts."""

    def __init__(self):
        self.total: Counter = Counter()  # inclusive, outermost span of a name only
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._open: Counter = Counter()
        self._relations: list = []
        self._searches: list = []
        self._patches: list = []
        self.paused = False

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])
        self._open[name] += 1
        try:
            yield
        finally:
            _, start, children = self._stack.pop()
            duration = time.perf_counter() - start
            self._open[name] -= 1
            if not self._open[name]:
                self.total[name] += duration
            self.self_time[name] += duration - children
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def snapshot(self) -> dict:
        return {
            "total": Counter(self.total), "self": Counter(self.self_time),
            "calls": Counter(self.calls), "count": Counter(self.counts),
        }

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        # Import by module path: the package's own `search` name is the function.
        errors, hyperspace, proximity, search = (
            importlib.import_module(f"proxitop.{m}")
            for m in ("errors", "hyperspace", "proximity", "search")
        )
        mods = [importlib.import_module(f"proxitop.{m}") for m in MODULES]

        def rebind(module, attr, wrapper):
            original = getattr(module, attr)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

        for mod_name, attr, span_name in SPANS:
            module = importlib.import_module(f"proxitop.{mod_name}")
            rebind(module, attr, self.wrap(span_name, getattr(module, attr)))

        check_axioms = proximity.check_axioms
        rebind(proximity, "check_axioms", self._per_axiom(check_axioms, proximity))

        build = hyperspace.build_topology

        def traced_build(*args, **kwargs):
            if self.paused:
                return build(*args, **kwargs)
            try:
                with self.span("hyperspace.build"):
                    topo = build(*args, **kwargs)
            except errors.CapExceededError:
                self.counts["hyperspace.cap_exceeded"] += 1
                raise
            self.counts["hyperspace.base_size"] += len(topo.base)
            self.counts["hyperspace.subbase_size"] += len(topo.subbase)
            return topo

        rebind(hyperspace, "build_topology", traced_build)

        run_search = search.search

        def traced_search(target, **kwargs):
            with self.span("search.search"):
                outcome = run_search(target, **kwargs)
            self.counts["search.evaluations"] += outcome.evaluations
            self._searches.append((outcome.target, outcome.seed))
            return outcome

        rebind(search, "search", traced_search)

        relation_init = proximity.ProximityRelation.__init__
        relations = self._relations

        def registering_init(rel, *args, **kwargs):
            relation_init(rel, *args, **kwargs)
            relations.append(rel)

        self._patches.append((proximity.ProximityRelation, "__init__", relation_init))
        proximity.ProximityRelation.__init__ = registering_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _per_axiom(self, check_axioms, proximity):
        """check_axioms as one call per axiom on the same relation.

        The first axiom (P0) sweeps every pair, so it carries the rule
        evaluations; later axioms read the relation's memo. The merged
        report equals the one a single call returns.
        """

        def traced(prox, *, cap=None, sample=None, seed=0, axioms=AXIOMS):
            kwargs = {} if cap is None else {"cap": cap}
            requested = [a for a in AXIOMS if a in set(axioms)]
            if self.paused or sample is not None or not requested:
                return check_axioms(prox, sample=sample, seed=seed, axioms=axioms, **kwargs)
            verdicts = {}
            with self.span("proximity.check_axioms"):
                for name in requested:
                    with self.span(f"proximity.axiom.{name}"):
                        verdicts.update(check_axioms(prox, axioms=[name], **kwargs).verdicts)
            full = all(p in verdicts for p in ("P0", "P1", "P2", "P3", "P4", "EF"))
            return proximity.ProximityAxiomReport(
                verdicts=verdicts,
                classification=proximity._classify(verdicts) if full else "partial",
                exhaustive=True,
                checked_axioms=tuple(requested),
            )

        return traced

    # -- per-operation bookkeeping -------------------------------------------------

    def begin_op(self) -> None:
        self._relations.clear()
        self._searches.clear()

    def end_op(self) -> None:
        """Sum near calls of the op's relations; time one candidate pass per search."""
        from proxitop.search import candidate_models

        self.counts["proximity.near_calls"] += sum(r.eval_count for r in self._relations)
        self._relations.clear()
        self.paused = True
        try:
            for target, seed in self._searches:
                start = time.perf_counter()
                for _ in candidate_models(target, seed):
                    pass
                self.total["search.candidates"] += time.perf_counter() - start
        finally:
            self.paused = False
        self._searches.clear()

    def time_topologies(self) -> None:
        """enumerate_topologies from a cold cache, as set-up pays it."""
        from proxitop.search import enumerate_topologies

        enumerate_topologies.cache_clear()
        start = time.perf_counter()
        for n in range(1, 5):
            enumerate_topologies(n, True)
        self.total["search.topologies"] += time.perf_counter() - start


def round_metrics(before: dict, after: dict) -> dict[str, float]:
    """Per-layer metric values of one round, from two snapshots."""
    out = {}
    for metric, (_, (table, key)) in LAYER_METRICS.items():
        out[metric] = after[table][key] - before[table][key]
    return out
