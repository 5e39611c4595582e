"""Construction DSL: parsing, canonical printing, hashing and compilation.

Grammar (case-insensitive keywords, whitespace ignored between tokens):

    ring   := "z(" INT ")" | "gf(" INT ")"
            | "m(" INT "," ring ")" | "t(" INT "," ring ")"
            | "prod(" ring {"," ring} ")"
            | "quot(" ring ",[" INT {"," INT} "])"
            | "corner(" ring "," INT ")"
            | "triv(" ring ")"
            | "group(" ring "," grp ")"
            | "poly(" ring "," INT ")"
            | "skew(" ring "," endo "," INT ")"
    grp    := gatom {"x" gatom}
    gatom  := "c(" INT ")" | "d(" INT ")" | "q8" | "s(" INT ")" | "@" FILE
    endo   := "id" | "frob" | "@" FILE

File tokens run over [A-Za-z0-9._/~-]. The canonical form is lowercase
with no whitespace, except that a group-product `x` following a file
token is preceded by one space (the file token would swallow it
otherwise); printing then reparsing is the identity.

A parsed expression is a plain tuple `(keyword, *args)`: `z(8)` is
`("z", 8)`, `group(z(2),c(2)xc(2))` is
`("group", ("z", 2), ("x", (("c", 2), ("c", 2))))`, `skew(gf(4),frob,2)`
is `("skew", ("gf", 4), ("frob",), 2)`, and a group or endomorphism file
is `("@", path)`. Tuples compare and hash by value, and the keyword comes
first, so `("m", 2, b) != ("t", 2, b)`. The argument kinds of each ring
keyword and group atom are listed once, in `_RING_SIGNATURES` and
`_GROUP_SIGNATURES`; the parser and the printer both read them, and an
integer is range-checked as soon as it is read.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import construct, groups
from .core import ElemSet, TableRing

MAX_EXPR_LENGTH = 4096


class ParseError(ValueError):
    """Syntax error with a byte offset and the expected-token set."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = ""):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(f"at offset {offset}: expected {' | '.join(self.expected)}{what}")


class RangeError(ValueError):
    """An integer argument violated its range, caught at parse time."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"at offset {offset}: {message}")


class BadElementRefError(ValueError):
    """A quot/corner element index does not exist in the child ring."""


# --- nodes ------------------------------------------------------------------
#
# Argument kinds: "ring", "rings" (one or more, comma-separated), "ints" (a
# bracketed list), "group", "endo", "int", or (low, high, message) for an int
# that must lie in low..high (high None: unbounded), checked as it is read.

_RING_SIGNATURES = {
    "z": ((2, None, "z(n) requires n >= 2"),),
    "gf": ((2, None, "gf(q) requires q >= 2"),),
    "m": ((1, None, "k must be >= 1"), "ring"),
    "t": ((1, None, "k must be >= 1"), "ring"),
    "prod": ("rings",),
    "quot": ("ring", "ints"),
    "corner": ("ring", "int"),
    "triv": ("ring",),
    "group": ("ring", "group"),
    "poly": ("ring", (1, None, "truncation exponent must be >= 1")),
    "skew": ("ring", "endo", (1, None, "truncation exponent must be >= 1")),
}

_GROUP_SIGNATURES = {
    "c": ((1, None, "c(n) requires n >= 1"),),
    "d": ((1, None, "d(n) requires n >= 1"),),
    "q8": (),
    "s": ((1, 4, "s(n) supports 1 <= n <= 4"),),
}

_ENDO_NAMES = ("id", "frob")

# the printer's view: every keyword of every namespace (they are disjoint)
_SIGNATURES = {**_RING_SIGNATURES, **_GROUP_SIGNATURES, **dict.fromkeys(_ENDO_NAMES, ())}

_FILE_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/~-")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, expected: tuple[str, ...]):
        self.skip_ws()
        found = self.text[self.pos : self.pos + 8]
        raise ParseError(self.pos, expected, found)

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text[self.pos : self.pos + len(lit)].lower() == lit:
            self.pos += len(lit)
            return True
        return False

    def literal(self, lit: str) -> None:
        if not self.try_literal(lit):
            self.fail((repr(lit),))

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos].lower(), start

    def integer(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":  # ASCII only: str.isdigit takes "²"
            self.pos += 1
        if self.pos == start:
            self.fail(("INT",))
        return int(self.text[start : self.pos]), start

    def file_token(self) -> str:
        self.literal("@")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _FILE_CHARS:
            self.pos += 1
        if self.pos == start:
            self.fail(("FILE",))
        return self.text[start : self.pos]


def _parse_args(sc: _Scanner, kinds: tuple) -> tuple:
    """The arguments of one keyword, `(` kind {`,` kind} `)`; none when `kinds` is empty."""
    if not kinds:
        return ()
    sc.literal("(")
    args = []
    for i, kind in enumerate(kinds):
        if i:
            sc.literal(",")
        if kind == "ring":
            args.append(_parse_ring(sc))
        elif kind == "rings":
            factors = [_parse_ring(sc)]
            while sc.try_literal(","):
                factors.append(_parse_ring(sc))
            args.append(tuple(factors))
        elif kind == "ints":
            sc.literal("[")
            gens = [sc.integer()[0]]
            while sc.try_literal(","):
                gens.append(sc.integer()[0])
            sc.literal("]")
            args.append(tuple(gens))
        elif kind == "group":
            args.append(_parse_group(sc))
        elif kind == "endo":
            args.append(_parse_endo(sc))
        else:
            n, offset = sc.integer()
            if kind != "int":
                low, high, message = kind
                if n < low or (high is not None and n > high):
                    raise RangeError(offset, message)
            args.append(n)
    sc.literal(")")
    return tuple(args)


def _parse_ring(sc: _Scanner) -> tuple:
    word, start = sc.ident()
    if word not in _RING_SIGNATURES:
        sc.pos = start
        sc.fail(tuple(_RING_SIGNATURES))
    return (word, *_parse_args(sc, _RING_SIGNATURES[word]))


def _parse_gatom(sc: _Scanner) -> tuple:
    # prefix-matched keywords: a following group-product `x` must not be
    # swallowed, so greedy identifier lexing is wrong here (q8xq8)
    if sc.peek() == "@":
        return ("@", sc.file_token())
    for word, kinds in _GROUP_SIGNATURES.items():
        if sc.try_literal(word):
            return (word, *_parse_args(sc, kinds))
    sc.fail((*_GROUP_SIGNATURES, "@FILE"))


def _parse_group(sc: _Scanner) -> tuple:
    factors = [_parse_gatom(sc)]
    while sc.peek().lower() == "x":
        sc.pos += 1
        factors.append(_parse_gatom(sc))
    return factors[0] if len(factors) == 1 else ("x", tuple(factors))


def _parse_endo(sc: _Scanner) -> tuple:
    if sc.peek() == "@":
        return ("@", sc.file_token())
    word, start = sc.ident()
    if word in _ENDO_NAMES:
        return (word,)
    sc.pos = start
    sc.fail((*_ENDO_NAMES, "@FILE"))


def parse(text: str) -> tuple:
    """Parse one construction expression into its `(keyword, *args)` tuple."""
    if len(text) > MAX_EXPR_LENGTH:
        raise ParseError(MAX_EXPR_LENGTH, ("shorter input",))
    sc = _Scanner(text)
    expr = _parse_ring(sc)
    if not sc.at_end():
        sc.fail(("end of input",))
    return expr


# --- canonical printing -----------------------------------------------------


def print_canonical(expr: tuple) -> str:
    """Lowercase, whitespace-free form of a ring, group or endomorphism node; reparsing it rebuilds `expr`."""
    word, *args = expr
    if word == "@":
        return "@" + args[0]
    if word == "x":
        factors = args[0]
        out = print_canonical(factors[0])
        for prev, factor in zip(factors, factors[1:]):
            # a file token would swallow the `x` that follows it
            out += (" x" if prev[0] == "@" else "x") + print_canonical(factor)
        return out
    kinds = _SIGNATURES[word]
    if not kinds:
        return word
    parts = []
    for kind, arg in zip(kinds, args):
        if kind == "rings":
            parts.append(",".join(map(print_canonical, arg)))
        elif kind == "ints":
            parts.append("[" + ",".join(map(str, arg)) + "]")
        elif kind in ("ring", "group", "endo"):
            parts.append(print_canonical(arg))
        else:
            parts.append(str(arg))
    return f"{word}(" + ",".join(parts) + ")"


def canonical_hash(expr: tuple) -> str:
    """Stable digest of the canonical printed form (SHA-256 hex)."""
    return hashlib.sha256(print_canonical(expr).encode("ascii")).hexdigest()


# --- compilation -------------------------------------------------------------


def _resolve(path: str, base_dir: Path | None) -> Path:
    out = Path(path)
    if base_dir is not None and not out.is_absolute():
        out = base_dir / out
    return out


def compile_group(expr: tuple, base_dir: Path | None = None) -> groups.GroupTable:
    match expr:
        case ("c", n):
            return groups.cyclic(n)
        case ("d", n):
            return groups.dihedral(n)
        case ("q8",):
            return groups.quaternion8()
        case ("s", n):
            return groups.symmetric(n)
        case ("x", factors):
            return groups.direct_product([compile_group(f, base_dir) for f in factors])
        case ("@", path):
            return groups.group_from_file(_resolve(path, base_dir))
    raise TypeError(f"not a group expression: {expr!r}")


def compile_expr(expr: tuple, cap: int | None = None, base_dir: Path | None = None) -> TableRing:
    """Compile a parsed expression to a validated TableRing, tagging it with its text."""
    ring = _compile(expr, cap, base_dir)
    ring.expr_text = print_canonical(expr)
    return ring


def _compile(expr: tuple, cap, base_dir) -> TableRing:
    # Each branch looks its builder up on `construct` at call time, so a
    # tracer that rebinds `construct.build_*` sees every call.
    match expr:
        case ("z", n):
            return construct.build_zmod(n, cap)
        case ("gf", q):
            return construct.build_gf(q, cap)
        case ("m", k, base):
            return construct.build_matrix(_compile(base, cap, base_dir), k, cap)
        case ("t", k, base):
            return construct.build_triangular(_compile(base, cap, base_dir), k, cap)
        case ("prod", factors):
            return construct.build_product([_compile(f, cap, base_dir) for f in factors], cap)
        case ("quot", base, gens):
            base = _compile(base, cap, base_dir)
            for g in gens:
                if not 0 <= g < base.order:
                    raise BadElementRefError(f"generator index {g} not in ring of order {base.order}")
            ideal = construct.ideal_closure(base, ElemSet.of(base, gens))
            return construct.build_quotient(base, ideal)[0]
        case ("corner", base, idem):
            base = _compile(base, cap, base_dir)
            if not 0 <= idem < base.order:
                raise BadElementRefError(f"idempotent index {idem} not in ring of order {base.order}")
            return construct.build_corner(base, idem)[0]
        case ("triv", base):
            return construct.build_trivial_extension(_compile(base, cap, base_dir), cap)
        case ("group", base, group):
            base = _compile(base, cap, base_dir)
            return construct.build_group_ring(base, compile_group(group, base_dir), cap)
        case ("poly", base, k):
            base = _compile(base, cap, base_dir)
            return construct.build_truncated_skew_poly(base, construct.identity_endo(base), k, cap)
        case ("skew", base, endo, k):
            base = _compile(base, cap, base_dir)
            if endo == ("id",):
                alpha = construct.identity_endo(base)
            elif endo == ("frob",):
                alpha = construct.frobenius_endo(base)
            else:
                alpha = construct.endomorphism_from_file(base, _resolve(endo[1], base_dir), f"@{endo[1]}")
            return construct.build_truncated_skew_poly(base, alpha, k, cap)
    raise TypeError(f"not a ring expression: {expr!r}")


def compile_text(text: str, cap: int | None = None, base_dir: Path | None = None) -> TableRing:
    return compile_expr(parse(text), cap, base_dir)
