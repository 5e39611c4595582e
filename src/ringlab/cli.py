"""Command-line surface: inspect rings, dump subsets, run the suite.

Exit codes: 0 = success / all checks passed; 1 = at least one check
failed; 2 = usage, parse or construction error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cache as cache_mod
from . import predicates as P
from .checks import CorpusError, UnknownCheckError, registry, run_check, run_suite
from .core import DEFAULT_MAX_ORDER, MAX_TABLE_ORDER, RingError
from .expr import ParseError, RangeError, compile_text
from .groups import GroupError, UnsupportedGroupError
from .subsets import NotAGroupRingError, augmentation_ideal

# (label, bundle attribute), in the order `inspect` prints the sizes
_BUNDLE_SETS = (
    ("U", "units"),
    ("J", "jacobson"),
    ("Jsharp", "jsharp"),
    ("Nil", "nilpotents"),
    ("NilStar", "prime_radical"),
    ("Id", "idempotents"),
    ("Center", "center"),
)
_SET_LABELS = [label for label, _ in _BUNDLE_SETS] + ["Delta"]


def _cap(args) -> int:
    """The order cap from --max-order, else RINGLAB_MAX_ORDER, else the default.

    A cap above MAX_TABLE_ORDER is refused: the tables of a larger ring do
    not fit in their 16-bit storage.
    """
    value, source = getattr(args, "max_order", None), "--max-order"
    if value is None:
        value, source = os.environ.get("RINGLAB_MAX_ORDER"), "RINGLAB_MAX_ORDER"
        if value is None:
            return DEFAULT_MAX_ORDER
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"{source} must be a positive integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {value}")
    if value > MAX_TABLE_ORDER:
        raise ValueError(f"{source} must be at most {MAX_TABLE_ORDER}, the limit of 16-bit table storage, got {value}")
    return value


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(human, end="")


def _bundle_for(args, ring):
    if getattr(args, "no_cache", False):
        from .subsets import compute_bundle

        return compute_bundle(ring)
    return cache_mod.get_or_compute(ring)


def cmd_inspect(args) -> int:
    ring = compile_text(args.expr, _cap(args))
    bundle = _bundle_for(args, ring)
    verdicts = P.classify(ring, bundle)
    sizes = {label: len(getattr(bundle, attr)) for label, attr in _BUNDLE_SETS}
    payload = {
        "expr": ring.expr_text,
        "order": ring.order,
        "validation": ring.validation,
        "sizes": sizes,
        "predicates": {
            name: {"verdict": v.value, **({"witness": v.witness} if v.witness else {})} for name, v in verdicts.items()
        },
    }
    width = max(len(name) for name in verdicts) + 2
    lines = [
        "ring".ljust(width) + str(ring.expr_text),
        "order".ljust(width) + str(ring.order),
        "validation".ljust(width) + ring.validation,
    ]
    for key, value in sizes.items():
        lines.append(f"|{key}|".ljust(width) + str(value))
    for name, v in verdicts.items():
        lines.append(name.ljust(width) + ("yes" if v.value else "no"))
    _emit(payload, args.json, "\n".join(lines) + "\n")
    return 0


def _resolve_set(ring, bundle, name: str):
    key = name.lower().replace("*", "star").replace("#", "sharp")
    if key == "delta":
        return augmentation_ideal(ring)
    for label, attr in _BUNDLE_SETS:
        if key == label.lower():
            return getattr(bundle, attr)
    raise ValueError(f"unknown set {name!r}; choose from {', '.join(_SET_LABELS)}")


def cmd_sets(args) -> int:
    ring = compile_text(args.expr, _cap(args))
    bundle = _bundle_for(args, ring)
    subset = _resolve_set(ring, bundle, args.set_name)
    indices = subset.indices()
    payload = {
        "expr": ring.expr_text,
        "set": args.set_name,
        "size": len(indices),
        "elements": [{"index": i, "name": ring.name_of(i)} for i in indices],
    }
    human = "".join(f"{i}\t{ring.name_of(i)}\n" for i in indices)
    _emit(payload, args.json, human)
    return 0


def cmd_elements(args) -> int:
    ring = compile_text(args.expr, _cap(args))
    payload = {
        "expr": ring.expr_text,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "elements": [{"index": i, "name": ring.names[i]} for i in range(ring.order)],
    }
    human = "".join(f"{i}\t{ring.names[i]}\n" for i in range(ring.order))
    _emit(payload, args.json, human)
    return 0


def cmd_check(args) -> int:
    result = run_check(args.check_id, args.expr, deep=args.deep_oracle, cap=_cap(args))
    payload = {
        "id": result.check_id,
        "ring": result.ring,
        "status": result.status,
        **({"witness": result.witness} if result.witness else {}),
        **({"note": result.note} if result.note else {}),
        "millis": result.millis,
    }
    human = f"{result.check_id} on {result.ring}: {result.status}\n"
    if result.witness:
        human += f"  witness: {result.witness}\n"
    if result.note:
        human += f"  note: {result.note}\n"
    _emit(payload, args.json, human)
    return 1 if result.status == "fail" else 0


def _load_corpus_file(path: str) -> list[str]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                out.append(text)
    return out


def cmd_verify(args) -> int:
    corpus = _load_corpus_file(args.corpus) if args.corpus else None
    report = run_suite(corpus, filter_glob=args.filter, deep=args.deep_oracle, cap=_cap(args))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for entry in report.checks:
            statuses = [r.status for r in entry["results"]]
            line = (
                f"{entry['id']:<12} pass={statuses.count('pass'):<3} "
                f"fail={statuses.count('fail'):<3} skip={statuses.count('skip'):<3}"
            )
            print(line)
            for r in entry["results"]:
                if r.status == "fail":
                    print(f"    FAIL {r.ring}: {r.witness}")
        for check_id, ring_text, note in report.notes():
            print(f"note [{check_id} @ {ring_text}]: {note}")
        s = report.summary
        print(f"pass: {s['pass']}, fail: {s['fail']}, skip: {s['skip']}")
    return 1 if report.summary["fail"] else 0


def cmd_corpus(args) -> int:
    from .checks import default_corpus

    for text in default_corpus():
        print(text)
    return 0


def cmd_registry(args) -> int:
    payload = [
        {"id": c.id, "statement": c.paper_ref, "applies": c.applies_text, "deep": c.needs_deep}
        for c in registry()
    ]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for c in registry():
            deep = " [deep-oracle]" if c.needs_deep else ""
            print(f"{c.id:<12} ({c.applies_text}){deep}: {c.paper_ref}")
    return 0


def cmd_cache(args) -> int:
    if args.action == "path":
        print(cache_mod.cache_dir())
    elif args.action == "stats":
        info = cache_mod.stats()
        print(f"path: {info['path']}\nentries: {info['entries']}\nbytes: {info['bytes']}")
    elif args.action == "clear":
        removed = cache_mod.clear()
        print(f"removed {removed} entries")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ring` parser, built once per process: `main` may run many
    times in one process, and the parser holds no state between calls
    (the order cap is read per command, in `_cap`)."""
    parser = argparse.ArgumentParser(prog="ring", description="Finite-ring structure explorer and claim checker")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, no_cache_help="skip the persistent invariant cache"):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-order", type=int, default=None, help="construction order cap (default 4096)")
        if no_cache_help:
            p.add_argument("--no-cache", action="store_true", help=no_cache_help)

    ignored = "accepted and ignored: check and verify never read the cache"

    p = sub.add_parser("inspect", help="order, subset sizes and predicate verdicts")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("sets", help="list one structural subset")
    p.add_argument("expr")
    p.add_argument("set_name", metavar="set", help=" | ".join(_SET_LABELS))
    common(p)
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("elements", help="index/description table of a ring")
    p.add_argument("expr")
    common(p, no_cache_help=None)
    p.set_defaults(func=cmd_elements)

    p = sub.add_parser("check", help="run one registered check against one ring")
    p.add_argument("check_id")
    p.add_argument("expr")
    p.add_argument("--deep-oracle", action="store_true", help="enable ideal-enumeration oracles")
    common(p, ignored)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run the check suite over a corpus")
    p.add_argument("--corpus", help="file with one expression per line (# comments)")
    p.add_argument("--filter", default="*", help="glob over check ids (default *)")
    p.add_argument("--deep-oracle", action="store_true", help="enable ideal-enumeration oracles")
    common(p, ignored)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="print the default corpus")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("registry", help="list all registered checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_registry)

    p = sub.add_parser("cache", help="manage the invariant cache")
    p.add_argument("action", choices=("stats", "clear", "path"))
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorpusError as exc:
        print(f"error compiling corpus entry {exc.expr_text!r}: {exc.cause}", file=sys.stderr)
        return 2
    except UnknownCheckError as exc:
        print(f"error: unknown check id {exc}", file=sys.stderr)
        return 2
    except (RingError, GroupError, UnsupportedGroupError, NotAGroupRingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
