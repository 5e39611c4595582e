import ast
import dataclasses
import json
import threading
import time
from pathlib import Path
from types import SimpleNamespace

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

    monkeypatch.setattr(cache, "_table_digest", fail)
    before = threading.active_count()
    with pytest.raises(HashFailed, match="hash failed"):
        get_or_compute(compile_text("z(12)"))
    assert threading.active_count() == before
    assert stats()["entries"] == 0


def test_a_failing_bundle_still_joins_the_worker_and_writes_nothing(monkeypatch):
    ring = compile_text("z(12)")
    hashed = []

    def slow_digest(ring):
        time.sleep(0.05)  # still hashing when the bundle fails
        hashed.append(ring)
        return bytes(32)

    def fail(ring):
        raise RingError("bundle failed")

    monkeypatch.setattr(cache, "_table_digest", slow_digest)
    monkeypatch.setattr(cache, "compute_bundle", fail)
    before = threading.active_count()
    with pytest.raises(RingError, match="bundle failed"):
        get_or_compute(ring)
    assert hashed == [ring]  # the worker had finished when the call returned
    assert threading.active_count() == before
    assert stats()["entries"] == 0


def test_only_a_cold_write_of_a_named_ring_starts_a_thread(monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(cache, "threading", SimpleNamespace(Thread=Recorded))
    get_or_compute(build_zmod(8))  # anonymous: computed, never written
    assert started == [] and stats()["entries"] == 0
    ring = compile_text("z(8)")
    get_or_compute(ring)
    get_or_compute(ring)  # warm: read on the calling thread
    assert len(started) == 1 and stats()["entries"] == 1


def test_only_the_hash_helpers_run_on_the_worker():
    # The benchmark's tracer keeps one span stack that is not thread-safe,
    # so no traced ringlab function may run on the hashing thread.
    package = str(Path(ringlab.__file__).parent)
    seen: dict[str, set[str]] = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            seen.setdefault(threading.current_thread().name, set()).add(frame.f_code.co_name)

    ring = compile_text("t(2,z(2))")
    threading.setprofile(profile)  # every thread started from here on; not this one
    try:
        get_or_compute(ring)
    finally:
        threading.setprofile(None)
    assert seen == {"ringlab-table-checksum": {"_digest_into", "_table_digest"}}
