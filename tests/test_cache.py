import ast
import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import ringlab
from ringlab import ElemSet, RingError, cache, compile_text, compute_bundle
from ringlab import predicates as P
from ringlab.cache import (
    FORMAT_VERSION,
    cache_dir,
    clear,
    deserialize_bundle,
    get_or_compute,
    load_bundle,
    save_bundle,
    serialize_bundle,
    stats,
    table_checksum,
)
from ringlab.cli import main
from ringlab.construct import build_zmod
from ringlab.core import TableRing

from ringtables import without_basis

CAP_RINGS = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path))
    yield tmp_path


def test_serialize_roundtrip():
    ring = compile_text("group(z(2),c(2))")
    bundle = compute_bundle(ring)
    data = serialize_bundle(bundle)
    back = deserialize_bundle(data, ring)
    assert back is not None
    for name in ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp", "prime_radical"):
        assert getattr(back, name).members == getattr(bundle, name).members


@pytest.mark.parametrize("text", ["z(12)", "group(z(2),c(2))", "m(2,z(2))", "t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "m(2,gf(8))", "t(3,z(4))"])
def test_loaded_sets_compare_and_list_as_computed_ones(text):
    # a loaded mask is the cache's unpacked bits, wrapped as it is; `==`
    # reads its bytes and `index_array` its nonzero cells. `classify` gives
    # the same verdicts and witnesses on both, the loaded bundle with no
    # squares or R/J kept from a computation
    ring = compile_text(text)
    bundle = compute_bundle(ring)
    save_bundle(bundle)
    loaded = load_bundle(ring)
    assert bundle._squares is not None and loaded._squares is None and loaded._radical_quotient is None
    assert list(P.classify(ring, loaded).items()) == list(P.classify(ring, bundle).items())
    names = ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp")
    for name in names:
        got, want = getattr(loaded, name), getattr(bundle, name)
        assert got.mask() is not want.mask() and not got.mask().flags.writeable
        assert got == want and hash(got) == hash(want)
        assert np.array_equal(got.index_array(), np.flatnonzero(want.mask()))
        for other in names:
            assert (got == getattr(bundle, other)) == np.array_equal(got.mask(), getattr(bundle, other).mask())
            assert (got <= getattr(bundle, other)) == (got.members <= getattr(bundle, other).members)


def test_save_load_through_files():
    ring = compile_text("z(12)")
    bundle = compute_bundle(ring)
    assert load_bundle(ring) is None  # cold
    save_bundle(bundle)
    loaded = load_bundle(ring)
    assert loaded is not None
    assert loaded.jacobson.members == bundle.jacobson.members
    assert stats()["entries"] == 1


def test_checksum_guards_against_builder_drift():
    ring = compile_text("z(8)")
    data = serialize_bundle(compute_bundle(ring))
    rebuilt = compile_text("z(8)")
    assert table_checksum(ring) == table_checksum(rebuilt)
    assert deserialize_bundle(data, rebuilt) is not None  # identical tables: hit
    assert deserialize_bundle(data, compile_text("gf(8)")) is None  # same order, other tables
    # an entry recorded against different tables must be a silent miss
    corrupted = bytearray(data)
    corrupted[12] ^= 0xFF  # inside the stored table checksum
    assert deserialize_bundle(bytes(corrupted), ring) is None


def test_version_mismatch_is_silent_miss():
    ring = compile_text("z(8)")
    data = bytearray(serialize_bundle(compute_bundle(ring)))
    data[4] = (FORMAT_VERSION + 1) & 0xFF  # bump the little-endian version field
    assert deserialize_bundle(bytes(data), ring) is None


def test_truncated_or_garbage_files_are_misses(tmp_path):
    ring = compile_text("z(8)")
    save_bundle(compute_bundle(ring))
    (entry,) = [p for p in cache_dir().iterdir() if p.suffix == ".bin"]
    entry.write_bytes(b"garbage")
    assert load_bundle(ring) is None
    entry.write_bytes(serialize_bundle(compute_bundle(ring))[:20])
    assert load_bundle(ring) is None


def test_anonymous_rings_are_not_cached():
    ring = build_zmod(8)  # no expr_text
    assert ring.expr_text is None
    save_bundle(compute_bundle(ring))
    assert stats()["entries"] == 0
    assert load_bundle(ring) is None


def test_get_or_compute_populates_once():
    ring = compile_text("t(2,z(2))")
    first = get_or_compute(ring)
    assert stats()["entries"] == 1
    second = get_or_compute(ring)
    assert second.jsharp.members == first.jsharp.members
    assert clear() == 1
    assert stats()["entries"] == 0


def test_flipped_bit_is_a_miss_not_a_false_verdict(capsys):
    ring = compile_text("z(8)")
    bundle = compute_bundle(ring)
    save_bundle(bundle)
    (entry,) = [p for p in cache_dir().iterdir() if p.suffix == ".bin"]
    data = bytearray(entry.read_bytes())
    data[42] ^= 1 << 2  # the units bitset follows the 42-byte header: add 2 to U
    entry.write_bytes(bytes(data))
    assert load_bundle(ring) is None
    # accepted, the corrupted entry would make inspect report z(8) not UJ#
    corrupt = dataclasses.replace(bundle, units=ElemSet.of(ring, [1, 2, 3, 5, 7]))
    assert not P.classify(ring, corrupt)["ujsharp"]
    assert main(["inspect", "z(8)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"]["U"] == 4 and payload["predicates"]["ujsharp"]["verdict"] is True
    assert load_bundle(ring) is not None  # the miss wrote a sound entry back


def _imports_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "ringlab.cache" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = ("." * node.level) + (node.module or "")
        if module in (".cache", "ringlab.cache"):
            return True
        return module in (".", "ringlab") and any(alias.name == "cache" for alias in node.names)
    return False


def test_only_cli_imports_the_cache():
    # verify and check always compute their bundles; only inspect and sets,
    # through cli, read the cache
    importers = set()
    for path in sorted(Path(ringlab.__file__).parent.glob("*.py")):
        if any(_imports_cache(node) for node in ast.walk(ast.parse(path.read_text()))):
            importers.add(path.name)
    assert importers == {"cli.py"}


@pytest.mark.parametrize("text", ["m(2,z(2))", "m(2,z(8))"])  # a corpus ring, a ring at the order cap
def test_a_cold_write_equals_the_sequential_entry(text):
    ring = compile_text(text)
    before = threading.active_count()
    bundle = get_or_compute(ring)
    assert threading.active_count() == before
    (entry,) = cache_dir().glob("*.bin")
    sequential = serialize_bundle(compute_bundle(ring))
    assert entry.read_bytes() == sequential == serialize_bundle(bundle)
    assert load_bundle(ring) is not None


def test_a_failing_hash_is_raised_on_the_caller_and_writes_nothing(monkeypatch):
    class HashFailed(Exception):
        pass

    def fail(ring):
        raise HashFailed("hash failed")

    monkeypatch.setattr(cache, "table_checksum", fail)
    with pytest.raises(HashFailed, match="hash failed"):
        get_or_compute(compile_text("z(12)"))
    assert stats()["entries"] == 0


def test_a_cold_write_starts_no_thread_and_a_failing_bundle_writes_nothing(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    before = threading.active_count()
    get_or_compute(compile_text("t(2,z(2))"))
    assert started == [] and threading.active_count() == before and stats()["entries"] == 1

    def fail(ring):
        raise RingError("bundle failed")

    monkeypatch.setattr(cache, "compute_bundle", fail)
    with pytest.raises(RingError, match="bundle failed"):
        get_or_compute(compile_text("z(12)"))
    assert stats()["entries"] == 1


def rebuild_tables(order, zero, add_rows, mul_rows):
    """add and mul of a ring of order 2^K rebuilt from their rows at its bit
    generators 1, 2, ..., 2^(K-1) alone (`add_rows[b]` is the row of 2^b)."""
    sums = np.empty(order, dtype=np.intp)  # sums[x]: the sum of the generators at the bits of x
    add = np.empty((order, order), dtype=add_rows.dtype)
    mul = np.empty_like(add)
    sums[0], add[zero], mul[zero] = zero, np.arange(order), zero
    for b, add_g in enumerate(add_rows):
        g = 1 << b
        sums[g : 2 * g] = add_g[sums[:g]]  # g + x, a new element for each x < g
        add[sums[g : 2 * g]] = add_g[add[sums[:g]]]  # associativity: (g + x) + y = g + (x + y)
    for b, mul_g in enumerate(mul_rows):  # needs every row of add
        g = 1 << b
        mul[sums[g : 2 * g]] = add[mul[sums[:g]], mul_g]  # right distributivity: (x + g)y = xy + gy
    return add, mul


def test_the_basis_rows_fix_both_tables(basis_text):
    ring = compile_text(basis_text)
    rows = list(ring.basis)
    add, mul = rebuild_tables(ring.order, ring.zero, ring.add[rows], ring.mul[rows])
    assert np.array_equal(add, ring.add) and np.array_equal(mul, ring.mul), basis_text


def test_a_basis_checksum_is_not_the_whole_table_one(basis_text):
    ring = compile_text(basis_text)
    whole = without_basis(ring)
    whole.expr_text = ring.expr_text
    assert table_checksum(ring) != table_checksum(whole)
    assert deserialize_bundle(serialize_bundle(compute_bundle(whole)), ring) is None
    assert deserialize_bundle(serialize_bundle(compute_bundle(ring)), whole) is None


# rings that keep the same basis: the cap rings, and three of order 128
# with equal zero and one, the last two also with equal additions
@pytest.mark.parametrize("texts", [CAP_RINGS, ("z(128)", "group(z(2),c(7))", "poly(z(2),7)")], ids=["cap", "128"])
def test_an_entry_is_a_miss_on_another_ring_with_its_basis(texts):
    # builder drift: each ring's entry, under another ring's text, is a
    # silent miss
    rings = [compile_text(text) for text in texts]
    for ring in rings:
        clear()
        save_bundle(compute_bundle(ring))
        (entry,) = cache_dir().glob("*.bin")
        for other in rings:
            text, other.expr_text = other.expr_text, ring.expr_text
            try:
                assert (load_bundle(other) is None) == (other is not ring), (ring, other)
            finally:
                other.expr_text = text
        data = bytearray(entry.read_bytes())
        data[12] ^= 0xFF  # inside the stored table checksum
        entry.write_bytes(bytes(data))
        assert load_bundle(ring) is None, ring


@pytest.mark.parametrize("text", CAP_RINGS + ("m(2,gf(8))",))
def test_a_deferred_addition_table_caches_as_the_filled_one(text):
    # the entry of a ring whose add is not filled, hashed from the word formula,
    # is byte for byte the entry of the same ring over its filled table
    ring = compile_text(text)
    bundle = compute_bundle(ring)
    entry = serialize_bundle(bundle)
    assert ring.top_bits is not None and ring._add[0] is None
    filled = TableRing(ring.order, ring.add, ring.mul, ring.neg, ring.zero, ring.one, ring.name_of, ring.meta, ring.validation, ring.basis)
    assert filled.top_bits is None and filled.basis == ring.basis
    assert serialize_bundle(bundle.on_copy(filled)) == entry


# table checksums recorded on the build that kept half tables, before the
# quarter tables replaced them: entries written then stay valid
PINNED_CHECKSUMS = {
    "t(2,z(16))": "573ee2eae3507edbf7e8031537785bb9cd37c6707016a48587f34710ca62d6ab",
    "m(2,z(8))": "11a515680daf16ea80228e4d147a3d56013c9c71f322aa10b78bcacbdc3c397c",
    "group(z(2),c(12))": "bee8f73909e909195e5e1ba4d233ae5a2572059a1f3ccdb50d0c6051f626211c",
    "m(2,gf(8))": "0aa10185ea4d2a141018078171c2aab1103e568bf2d728447602f8165f3fcbb2",
}


@pytest.mark.parametrize("text", PINNED_CHECKSUMS)
def test_the_table_checksum_bytes_are_pinned(text):
    ring = compile_text(text)
    assert table_checksum(ring).hex() == PINNED_CHECKSUMS[text] and ring._mul[0] is None, text
