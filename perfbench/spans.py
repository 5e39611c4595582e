"""Span recorder for the benchmark's traced runs.

The tracer wraps ringlab's public functions from outside the program.
Each wrapped call is a span; a span's self time is its duration minus
the time its child spans cover. Because several ringlab modules import
functions by name (``from .construct import build_quotient``), wrapping
the defining module alone would miss those calls, so every ringlab
module attribute bound to a wrapped function is rebound as well.

A declared target that the program no longer has is skipped and listed
in ``Tracer.skipped``; its metrics then read 0.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

BUILDERS = (
    "build_zmod",
    "build_gf",
    "build_matrix",
    "build_triangular",
    "build_product",
    "build_quotient",
    "build_corner",
    "build_trivial_extension",
    "build_group_ring",
    "build_truncated_skew_poly",
)

SUBSET_FNS = (
    "units",
    "idempotents",
    "nilpotents",
    "center",
    "jacobson_radical",
    "jsharp",
    "prime_radical",
    "jacobson_radical_maximal_ideal_oracle",
    "prime_radical_ideal_oracle",
)

PREDICATE_FNS = (
    "is_ujsharp",
    "is_uj",
    "is_uu",
    "is_boolean",
    "is_local",
    "is_division",
    "is_dedekind_finite",
    "is_2primal",
    "is_semipotent",
    "is_potent",
    "is_regular",
    "is_exchange",
    "is_semiregular",
    "is_semiboolean",
    "clean_family",
)

CONTEXT_FNS = ("verdicts", "radical_quotient", "radical_ideals", "corners", "bundle_of")

# The check registry as of the commit that defined this benchmark. A check
# added later is traced but not reported; a removed one reads 0.
CHECK_IDS = (
    "L1.2.1", "L1.2.2", "L1.2.3", "L1.2.4", "L1.2.5", "L1.2.6", "L1.2.7",
    "L1.2.8", "X-1.3", "P3.8", "P3.7", "P3.4", "L-prod", "L1.5", "L-corner",
    "T3.5", "L-closeprod", "L-equUQ", "P2.2", "P2.3", "L-matrix", "L-munits",
    "L-dedekind", "C-1ab", "L-2inJ", "C-Zn", "L-division", "L-local",
    "L-semisimple", "C-uclean", "T-m", "C-J0", "C-Jnil", "T2.4", "C2.5",
    "C2.7", "T3.16", "C3.17", "C3.18", "P-clean", "C-equclean", "C-sjc",
    "C1.6", "P-2primal", "P3.2", "P-triv", "G-seq", "G-ext", "G-torsion",
    "G-2grp", "G-delta", "G-locfin", "G-artinian", "G-exp2", "G-3grp",
    "O-jac", "O-nilstar", "P2.10", "T-skew", "T-2primal", "X-UU-inf",
)


def _check_label(check, *_args, **_kwargs) -> str:
    return "checks." + check.id


def _count_sampled(tracer: "Tracer", result) -> None:
    if result[1] == "sampled":
        tracer.counts["core.scan_axioms.sampled"] += 1


def _count_lookup(tracer: "Tracer", result) -> None:
    tracer.counts["cache.lookups"] += 1
    if result is not None:
        tracer.counts["cache.hits"] += 1


# (module, attribute, span label or a function of the call's arguments,
#  hook called with the result). An attribute "Class.name" is patched on
# the class, so every instance sees it.
TARGETS = (
    [
        ("ringlab.expr", "parse", "expr.parse", None),
        ("ringlab.expr", "compile_text", "expr.compile_text", None),
    ]
    + [("ringlab.construct", b, "construct." + b, None) for b in BUILDERS]
    + [
        ("ringlab.core", "validate_ring", "core.validate_ring", None),
        ("ringlab.core", "scan_axioms", "core.scan_axioms", _count_sampled),
    ]
    + [("ringlab.subsets", f, "subsets." + f, None) for f in SUBSET_FNS]
    + [("ringlab.subsets", "compute_bundle", "subsets.compute_bundle", None)]
    + [("ringlab.predicates", f, "predicates." + f, None) for f in PREDICATE_FNS]
    + [("ringlab.predicates", "classify", "predicates.classify", None)]
    + [
        ("ringlab.cache", "load_bundle", "cache.load", _count_lookup),
        ("ringlab.cache", "save_bundle", "cache.save", None),
        ("ringlab.cache", "table_checksum", "cache.table_checksum", None),
        ("ringlab.checks", "_evaluate", _check_label, None),
    ]
    + [("ringlab.checks", "CheckContext." + f, "checks.context." + f, None) for f in CONTEXT_FNS]
)


def _incl(label):
    return lambda t: t.incl_s[label]


def _self(label):
    return lambda t: t.self_s[label]


def _calls(label):
    return lambda t: t.calls[label]


def _hit_ratio(t) -> float:
    lookups = t.counts["cache.lookups"]
    return t.counts["cache.hits"] / lookups if lookups else 0.0


# (metric, unit, better, value from the tracer). A name ending in ".self_s"
# is self time; any other "_s" is inclusive time, a recursive call counted once.
_LAYER_SOURCES = (
    [("expr.parse_s", "s", "lower", _incl("expr.parse")), ("expr.compile_text_s", "s", "lower", _incl("expr.compile_text"))]
    + [
        m
        for b in BUILDERS
        for m in (
            (f"construct.{b}.self_s", "s", "lower", _self("construct." + b)),
            (f"construct.{b}.calls", "count", "lower", _calls("construct." + b)),
        )
    ]
    + [
        ("core.validate_ring.self_s", "s", "lower", _self("core.validate_ring")),
        ("core.scan_axioms_s", "s", "lower", _incl("core.scan_axioms")),
        ("core.scan_axioms.calls", "count", "lower", _calls("core.scan_axioms")),
        ("core.scan_axioms.sampled", "count", "lower", lambda t: t.counts["core.scan_axioms.sampled"]),
    ]
    + [(f"subsets.{f}_s", "s", "lower", _incl("subsets." + f)) for f in SUBSET_FNS]
    + [
        ("subsets.compute_bundle.self_s", "s", "lower", _self("subsets.compute_bundle")),
        ("subsets.compute_bundle.calls", "count", "lower", _calls("subsets.compute_bundle")),
    ]
    + [(f"predicates.{f}_s", "s", "lower", _incl("predicates." + f)) for f in PREDICATE_FNS]
    + [
        ("predicates.classify.calls", "count", "lower", _calls("predicates.classify")),
        ("predicates.is_semipotent.calls", "count", "lower", _calls("predicates.is_semipotent")),
    ]
    + [(f"checks.{c}.self_s", "s", "lower", _self("checks." + c)) for c in CHECK_IDS]
    + [(f"checks.context.{f}_s", "s", "lower", _incl("checks.context." + f)) for f in CONTEXT_FNS]
    + [
        ("cache.load_s", "s", "lower", _incl("cache.load")),
        ("cache.save_s", "s", "lower", _incl("cache.save")),
        ("cache.table_checksum_s", "s", "lower", _incl("cache.table_checksum")),
        ("cache.hit_ratio", "ratio", "higher", _hit_ratio),
    ]
)

# Every per-layer metric, in report order: (name, unit, better).
METRICS = [(name, unit, better) for name, unit, better, _ in _LAYER_SOURCES] + [
    ("bench.unattributed_s", "s", "lower"),  # pass time no top-level span covers
    ("bench.trace_overhead", "ratio", "lower"),  # traced over untraced pass time
]


class Tracer:
    """Records spans of wrapped ringlab calls and sums them per label.

    ``install`` wraps every target and ``uninstall`` restores the
    originals, so untraced passes run the program untouched.
    """

    def __init__(self):
        self.skipped: list[str] = []
        self.bindings: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [label, child seconds]
        self._open: Counter = Counter()  # open spans per label
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self._stack.clear()
        self._open.clear()

    def _wrap(self, fn, label, hook):
        stack, opened, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            stack.append([name, 0.0])
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                _, child = stack.pop()
                opened[name] -= 1
                self.self_s[name] += elapsed - child
                if not opened[name]:  # a recursive call counts once inclusively
                    self.incl_s[name] += elapsed
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.skipped = []
        self.bindings = []
        modules = [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "ringlab" or name.startswith("ringlab."))]
        for module_name, attr, label, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *class_path, name = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, property):
                self._set(owner, name, property(self._wrap(original.fget, label, hook)), attr)
                continue
            wrapper = self._wrap(original, label, hook)
            if class_path:
                self._set(owner, name, wrapper, attr)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, f"{module.__name__.removeprefix('ringlab.')}.{key}")

    def _set(self, owner, name: str, value, binding: str) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)
        self.bindings.append(binding)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer values for the spans recorded since the last reset."""
        values = {name: value(self) for name, _, _, value in _LAYER_SOURCES}
        values["bench.unattributed_s"] = pass_s - self.top_s
        return values


def median_metrics(per_pass: list[dict[str, float]], trace_overhead: float) -> dict[str, dict]:
    """Median of each per-layer metric over the traced passes, with units."""
    out = {}
    for name, unit, _ in METRICS:
        if name == "bench.trace_overhead":
            value = trace_overhead
        else:
            value = statistics.median(p[name] for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out
