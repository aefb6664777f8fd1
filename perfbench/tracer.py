"""A layer trace of genlab, applied from outside the program.

The tracer wraps the public functions and methods at each layer boundary
by patching them where they live *and* in every genlab module that
imported them by name (``census.geodesic_representative`` is the same
function object as ``balls.geodesic_representative``).  ``uninstall``
puts every original back.  The program itself is not instrumented.

A boundary is traced in one of three modes.  ``span`` (the experiment
entry points and the word-metric searches) records calls, inclusive time
(outermost calls only), self time (its duration minus the time its timed
callees cover) and one span (name, start, end, parent) per call.
``time`` (the hot leaves, up to millions of calls per run) records the
same totals but no spans.  ``count`` records calls only, with no clock
reads: it is used for ``groups.mul_keys`` alone, which runs about ten
million times in one ``fibers`` pass; its time is counted in its caller's
self time.

Every call is also counted against its nearest timed caller, which gives
the per-call ratios (``alignment.project.distance_per_call`` counts the
``spaces.distance`` calls that ``project`` makes itself), and an observer
sees how many count-only calls its own call made directly.

The tallies are plain, unlocked counters: trace a program run with
``--workers 1``, so that ``enumerate_ball`` starts no worker threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

SPAN, TIME, COUNT = "span", "time", "count"


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: a module function, or a method on every class
    of ``module`` that defines it."""

    name: str
    module: str
    function: Optional[str] = None
    methods: tuple = ()
    mode: str = SPAN
    observe: Optional[Callable] = None  # (extras, args, kwargs, result, counted) -> None


def _observe_ball(extras, args, kwargs, result, counted):
    nodes = sum(result.sphere_counts)
    extras["nodes"] += nodes
    extras["new"] += nodes - 1


def _observe_word_distance(extras, args, kwargs, result, counted):
    # no search: at most the one product g^-1 h, then the closed form (or g == h)
    extras["closed_form"] += counted <= 1


def _observe_element(extras, args, kwargs, result, counted):
    extras["raw_len"] += len(result.word)
    extras["key_len"] += len(result.model.key_word(result.key))


def _observe_aligned(extras, args, kwargs, result, counted):
    extras["aligned"] += bool(result.aligned)


def _observe_found(extras, args, kwargs, result, counted):
    extras["found"] += bool(result.found)


def _observe_certified(extras, args, kwargs, result, counted):
    extras["certified"] += bool(result.certified)


_LEMMA_FUNCTIONS = (
    "appendix_suite_tree",
    "random_chain_instance",
    "random_quadratic_instance",
    "verify_midpoint_capture",
    "verify_chain_capture",
    "verify_distance_sum",
    "verify_quadratic_length",
)

BOUNDARIES = (
    Boundary("groups.mul_keys", "genlab.groups", methods=("mul_keys",), mode=COUNT),
    Boundary("groups.normalize", "genlab.groups", methods=("normalize",), mode=TIME),
    Boundary("groups.element_mul", "genlab.groups", methods=("GroupElement.__mul__", "GroupElement.__pow__"),
             observe=_observe_element, mode=TIME),
    Boundary("balls.enumerate_ball", "genlab.balls", "enumerate_ball", observe=_observe_ball),
    Boundary("balls.word_distance", "genlab.balls", "word_distance", observe=_observe_word_distance, mode=TIME),
    Boundary("balls.geodesic_representative", "genlab.balls", "geodesic_representative"),
    Boundary("spaces.distance", "genlab.spaces", methods=("distance",), mode=TIME),
    Boundary("spaces.OrbitSegment", "genlab.spaces", methods=("OrbitSegment.__init__",), mode=TIME),
    Boundary("alignment.project", "genlab.alignment", "project", mode=TIME),
    Boundary("alignment.check_alignment", "genlab.alignment", "check_alignment", observe=_observe_aligned, mode=TIME),
    Boundary("contraction.measure_scaled_ledger", "genlab.contraction", "measure_scaled_ledger"),
    Boundary("census.a_thick_search", "genlab.census", "a_thick_search", observe=_observe_found),
    Boundary("census.a_thick_certify", "genlab.census", "a_thick_certify", observe=_observe_certified),
    Boundary("census.replacement_map", "genlab.census", "replacement_map"),
    Boundary("census.fiber_census", "genlab.census", "fiber_census"),
    Boundary("census.genericity_experiment", "genlab.census", "genericity_experiment"),
    Boundary("census.exponential_negligibility_probe", "genlab.census", "exponential_negligibility_probe"),
    Boundary("census.classify", "genlab.census", "classify"),
    *(Boundary(f"lemmas.{f}", "genlab.lemmas", f) for f in _LEMMA_FUNCTIONS),
    Boundary("cli.run", "genlab.cli", "run"),
)

# extra per-boundary ratios: metric -> (boundary, numerator, denominator).
# A numerator or denominator is an observer tally, "calls", or the name of
# a boundary whose calls made directly under this one are counted.
RATIOS = {
    "groups.element_mul.word_len_ratio": ("groups.element_mul", "raw_len", "key_len"),
    "balls.enumerate_ball.dedup_ratio": ("balls.enumerate_ball", "new", "groups.mul_keys"),
    "balls.word_distance.closed_form_ratio": ("balls.word_distance", "closed_form", "calls"),
    "balls.geodesic_representative.mul_keys_per_call": ("balls.geodesic_representative", "groups.mul_keys", "calls"),
    "alignment.project.distance_per_call": ("alignment.project", "spaces.distance", "calls"),
    "alignment.check_alignment.aligned_ratio": ("alignment.check_alignment", "aligned", "calls"),
    "census.a_thick_search.found_ratio": ("census.a_thick_search", "found", "calls"),
    "census.a_thick_certify.certified_ratio": ("census.a_thick_certify", "certified", "calls"),
    "census.replacement_map.alignments_per_call": ("census.replacement_map", "alignment.check_alignment", "calls"),
}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, as BENCHMARK.json lists it."""
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith((".calls", ".nodes")) else "ratio"


def _genlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "genlab" or name.startswith("genlab.")]


def _method_owners(module, qualname):
    """(class, attribute) pairs a method spec names: ``Class.attr`` for one
    class, a bare ``attr`` for every class of the module defining it."""
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return [(getattr(module, cls_name), attr)]
    return [
        (obj, qualname)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and qualname in vars(obj)
    ]


class Tracer:
    """Install with ``install()``, run the program, then ``uninstall()``
    and read ``results()`` and ``spans``."""

    def __init__(self):
        self.index = {b.name: i for i, b in enumerate(BOUNDARIES)}
        n = len(BOUNDARIES)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.extras = [Counter() for _ in range(n)]  # observer tallies
        self.edges: dict = {}  # (caller index or -1, callee index) -> calls
        self.spans: list = []  # (span id, boundary index, start, end, enclosing span id or -1)
        self._active = [0] * n
        self._stack: list = []  # frames: [boundary index, child seconds, nearest span id, count-only calls]
        self._span_ids = itertools.count(1)
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------

    def _timed(self, idx, fn, observe, keep_spans):
        stack, active, calls, total_s, self_s = self._stack, self._active, self.calls, self.total_s, self.self_s
        edges, spans, extras, next_id = self.edges, self.spans, self.extras[idx], self._span_ids.__next__
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [idx, 0.0, next_id() if keep_spans else (parent[2] if parent else -1), 0]
            stack.append(frame)
            active[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[idx] -= 1
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if not active[idx]:
                    total_s[idx] += dur
                key = (parent[0] if parent else -1, idx)
                edges[key] = edges.get(key, 0) + 1
                if parent:
                    parent[1] += dur
                if keep_spans:
                    spans.append((frame[2], idx, start, end, parent[2] if parent else -1))
            if observe is not None:
                observe(extras, args, kwargs, result, frame[3])
            return result

        return wrapper

    def _counted(self, idx, fn):
        stack, calls, edges = self._stack, self.calls, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if stack:
                parent = stack[-1]
                parent[3] += 1
                key = (parent[0], idx)
            else:
                key = (-1, idx)
            edges[key] = edges.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, idx, b: Boundary, fn):
        if b.mode == COUNT:
            return self._counted(idx, fn)
        return self._timed(idx, fn, b.observe, b.mode == SPAN)

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _genlab_modules()
        for idx, b in enumerate(BOUNDARIES):
            home = importlib.import_module(b.module)
            if b.function is not None:
                original = getattr(home, b.function)
                wrapper = self._wrap(idx, b, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
            for qualname in b.methods:
                for cls, attr in _method_owners(home, qualname):
                    original = vars(cls)[attr]
                    self._patch(cls, attr, self._wrap(idx, b, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    @property
    def patched(self) -> list:
        return list(self._patches)

    # -- results --------------------------------------------------------

    def results(self) -> dict:
        """Per-layer metrics by name: calls for every boundary, total and
        self seconds for timed ones, the ratios above and the BFS nodes.  A
        ratio whose denominator is zero reads 0."""
        out = {}
        for idx, b in enumerate(BOUNDARIES):
            out[f"{b.name}.calls"] = self.calls[idx]
            if b.mode != COUNT:
                out[f"{b.name}.total_s"] = self.total_s[idx]
                out[f"{b.name}.self_s"] = self.self_s[idx]
        for metric, (name, num, den) in RATIOS.items():
            top, bottom = self._term(name, num), self._term(name, den)
            out[metric] = top / bottom if bottom else 0.0
        out["balls.enumerate_ball.nodes"] = self._term("balls.enumerate_ball", "nodes")
        return out

    def _term(self, name, term):
        idx = self.index[name]
        if term == "calls":
            return self.calls[idx]
        if term in self.index:  # calls of that boundary whose nearest timed caller is this one
            return self.edges.get((idx, self.index[term]), 0)
        return self.extras[idx][term]

    def span_records(self) -> list:
        names = [b.name for b in BOUNDARIES]
        return [{"id": sid, "name": names[idx], "start": s, "end": e, "parent": p}
                for sid, idx, s, e, p in self.spans]
