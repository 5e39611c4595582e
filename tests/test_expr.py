import hashlib

import numpy as np
import pytest

from ringlab import canonical_hash, compile_text, construct, parse, print_canonical
from ringlab import expr as E
from ringlab.checks import default_corpus
from ringlab.expr import BadElementRefError, ParseError, RangeError

from astgen import generate
from ringtables import tables_equal

RING_KEYWORDS = ("z", "gf", "m", "t", "prod", "quot", "corner", "triv", "group", "poly", "skew")
EXPECTED_RING = "expected " + " | ".join(RING_KEYWORDS)

# (text, exception class, offset, message after "at offset N: ")
MALFORMED = (
    ("", ParseError, 0, EXPECTED_RING),
    ("z", ParseError, 1, "expected '('"),
    ("z()", ParseError, 2, "expected INT, found ')'"),
    ("z(1)", RangeError, 2, "z(n) requires n >= 2"),
    ("gf(1)", RangeError, 3, "gf(q) requires q >= 2"),
    ("w(3)", ParseError, 0, EXPECTED_RING + ", found 'w(3)'"),
    ("m(0,z(2))", RangeError, 2, "k must be >= 1"),
    ("t(0,z(2))", RangeError, 2, "k must be >= 1"),
    ("prod()", ParseError, 5, EXPECTED_RING + ", found ')'"),
    ("prod(z(2),", ParseError, 10, EXPECTED_RING),
    ("quot(z(8),4)", ParseError, 10, "expected '[', found '4)'"),
    ("quot(z(8),[])", ParseError, 11, "expected INT, found '])'"),
    ("quot(z(8),[4)", ParseError, 12, "expected ']', found ')'"),
    ("corner(m(2,z(2)))", ParseError, 16, "expected ',', found ')'"),
    ("group(z(2))", ParseError, 10, "expected ',', found ')'"),
    ("group(z(2),)", ParseError, 11, "expected c | d | q8 | s | @FILE, found ')'"),
    ("group(z(2),s(5))", RangeError, 13, "s(n) supports 1 <= n <= 4"),
    ("skew(gf(4),bogus,2)", ParseError, 11, "expected id | frob | @FILE, found 'bogus,2)'"),
    ("skew(gf(4),frob)", ParseError, 15, "expected ',', found ')'"),
    ("poly(z(2),0)", RangeError, 10, "truncation exponent must be >= 1"),
    ("z(8", ParseError, 3, "expected ')'"),
    ("z(8))", ParseError, 4, "expected end of input, found ')'"),
    ("z(2)x", ParseError, 4, "expected end of input, found 'x'"),
    ("c(4)", ParseError, 0, EXPECTED_RING + ", found 'c(4)'"),
    # a range error followed by a syntax error: the range is checked as
    # soon as the integer is read, so the earlier error is the one reported
    ("z(0", RangeError, 2, "z(n) requires n >= 2"),
    ("gf(1])", RangeError, 3, "gf(q) requires q >= 2"),
    ("m(0,zz)", RangeError, 2, "k must be >= 1"),
    # only ASCII digits are integers: "²" passes str.isdigit and "١٢" int()
    ("z(\u00b2)", ParseError, 2, "expected INT, found '\u00b2)'"),
    ("z(\u0661\u0662)", ParseError, 2, "expected INT, found '\u0661\u0662)'"),
)

HANDPICKED = (
    "z(8)",
    "gf(9)",
    "m(2,z(2))",
    "t(3,z(2))",
    "prod(z(2),gf(4),z(3))",
    "quot(z(8),[4])",
    "corner(m(2,z(2)),1)",
    "triv(z(4))",
    "group(z(2),c(2)xc(2))",
    "group(z(2),d(4)xq8)",
    "poly(z(2),3)",
    "skew(gf(4),frob,2)",
    "skew(gf(4),@a.endo,2)",
    "group(z(2),@tbl/g1.tbl)",
    "group(z(2),@tbl/g1.tbl xc(2))",  # the space keeps the file token from eating the x
)


def test_parse_examples():
    assert parse("Z(8)") == ("z", 8)
    assert parse("group(Z(2), C(2) x C(2))") == ("group", ("z", 2), ("x", (("c", 2), ("c", 2))))
    with pytest.raises(RangeError):
        parse("M(0, Z(2))")
    # the keyword is part of the node, so same-shaped nodes stay distinct
    assert parse("m(2,z(2))") != parse("t(2,z(2))")
    assert hash(parse("m(2,z(2))")) == hash(("m", 2, ("z", 2)))


def test_parse_whitespace_and_case_insensitive():
    spaced = parse("  QUOT( z(8) , [ 4 , 6 ] )  ")
    assert spaced == ("quot", ("z", 8), (4, 6))
    assert parse("group(z(2),Q8)") == ("group", ("z", 2), ("q8",))


def test_print_canonical_examples():
    assert print_canonical(("z", 8)) == "z(8)"
    assert print_canonical(("prod", (("z", 2), ("z", 4)))) == "prod(z(2),z(4))"
    assert print_canonical(("group", ("z", 2), ("c", 4))) == "group(z(2),c(4))"
    assert print_canonical(("skew", ("gf", 4), ("frob",), 2)) == "skew(gf(4),frob,2)"
    assert print_canonical(("group", ("z", 2), ("@", "g.tbl"))) == "group(z(2),@g.tbl)"


def test_roundtrip_handpicked():
    for text in HANDPICKED:
        ast = parse(text)
        assert print_canonical(ast) == text
        assert parse(print_canonical(ast)) == ast


def test_roundtrip_generated_asts():
    samples = generate(200, seed=0xBEEF)
    for ast in samples:
        assert parse(print_canonical(ast)) == ast


def test_malformed_inputs_have_offsets():
    for text, cls, offset, message in MALFORMED:
        with pytest.raises((ParseError, RangeError)) as err:
            parse(text)
        assert type(err.value) is cls, text
        assert err.value.offset == offset, text
        assert str(err.value) == f"at offset {offset}: {message}", text


def test_parse_error_reports_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse("w(3)")
    assert err.value.expected == RING_KEYWORDS
    with pytest.raises(ParseError) as err:
        parse("z(8")
    assert "')'" in err.value.expected


def test_canonical_hash_properties():
    assert canonical_hash(parse("Z(8)")) == canonical_hash(parse("z( 8 )"))
    assert canonical_hash(parse("z(8)")) != canonical_hash(parse("z(4)"))
    assert canonical_hash(parse("prod(z(2),z(2))")) != canonical_hash(parse("z(2)"))
    # frozen digest: stable across runs and platforms
    assert canonical_hash(parse("z(8)")) == "c986e5717f1649c79894d8f58e0cea0b74c901854b1075b0691d0191ba5cde79"
    # cache entries are named by the digest of the canonical text, so the
    # printed form of every construction is frozen too
    texts = "\n".join(print_canonical(parse(t)) for t in default_corpus() + HANDPICKED)
    assert hashlib.sha256(texts.encode()).hexdigest() == "62ad1a95e266a3338b5178bd45c24d73a5322c1342de3344100937f0db05018a"


def test_compile_examples():
    assert compile_text("quot(z(8),[4])").order == 4
    corner = compile_text("corner(m(2,z(2)),1)")
    assert corner.order == 2
    triv = compile_text("triv(z(4))")
    assert triv.order == 16


def test_compile_sets_expr_text():
    ring = compile_text("Z( 8 )")
    assert ring.expr_text == "z(8)"


def test_compile_calls_builders_through_the_construct_module(monkeypatch):
    # a tracer that rebinds `construct.build_*` must see every build
    calls = {"build_zmod": 0, "build_matrix": 0}
    for name in calls:
        real = getattr(construct, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(construct, name, counted)
    assert compile_text("m(2,z(2))").order == 16
    assert calls == {"build_zmod": 1, "build_matrix": 1}


def test_compile_determinism():
    a = compile_text("group(z(2),c(2)xc(2))")
    b = compile_text("group(z(2),c(2)xc(2))")
    assert tables_equal(a, b)
    assert np.array_equal(a.neg, b.neg)
    assert a.names == b.names


def test_bad_element_refs():
    with pytest.raises(BadElementRefError):
        compile_text("quot(z(8),[9])")
    with pytest.raises(BadElementRefError):
        compile_text("corner(m(2,z(2)),99)")


def test_compile_group_and_endo_files(tmp_path):
    gpath = tmp_path / "c3.tbl"
    gpath.write_text("order 3\nidentity 0\n0 1 2\n1 2 0\n2 0 1\n")
    ring = E.compile_expr(parse(f"group(z(2),@{gpath.name})"), base_dir=tmp_path)
    assert ring.order == 8

    epath = tmp_path / "frob.endo"
    epath.write_text("order 4\n0 -> 0\n1 -> 1\n2 -> 3\n3 -> 2\n")
    ring = E.compile_expr(parse(f"skew(gf(4),@{epath.name},2)"), base_dir=tmp_path)
    assert ring.order == 16


def test_expression_length_cap():
    with pytest.raises(ParseError):
        parse("prod(" + "z(2)," * 1200 + "z(2))")
