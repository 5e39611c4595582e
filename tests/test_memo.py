"""The table-keyed bundle memo that `run_suite` and `run_check` open for
one call (`subsets.bundle_memo`), against fresh bundles."""

import contextlib
import sys

import numpy as np
import pytest

from ringlab import checks, compile_text, compute_bundle, subsets
from ringlab.checks import default_corpus, run_check, run_suite
from ringlab.core import EXHAUSTIVE_LIMIT

from ringtables import EXTRA_RINGS


def table_key(ring):
    return (ring.order, ring.zero, ring.one, ring.add.tobytes(), ring.mul.tobytes())


class Log:
    """Every `compute_bundle` call as (ring, bundle), every bundle that was
    computed (a miss, or a call with no memo open), and each memo's size
    in bytes as its call ends."""

    def __init__(self):
        self.calls, self.computed, self.memo_bytes, self.memos = [], [], [], []

    def hits(self):
        fresh = {id(bundle) for bundle in self.computed}
        return [(ring, bundle) for ring, bundle in self.calls if id(bundle) not in fresh]


@pytest.fixture
def log(monkeypatch):
    """Record the memo's traffic. `compute_bundle` is imported by name in
    several modules, so every ringlab binding of it is wrapped."""
    out = Log()
    compute, inner, memo = subsets.compute_bundle, subsets._compute_bundle, subsets.bundle_memo

    def recording(ring):
        bundle = compute(ring)
        out.calls.append((ring, bundle))
        return bundle

    def computing(ring):
        bundle = inner(ring)
        out.computed.append(bundle)
        return bundle

    @contextlib.contextmanager
    def measured():
        with memo() as entries:
            out.memos.append(entries)
            yield entries
            out.memo_bytes.append(sum(len(k[-2]) + len(k[-1]) for k in entries) + sum(m.nbytes for v in entries.values() for m in v))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ringlab" and getattr(module, "compute_bundle", None) is compute:
            monkeypatch.setattr(module, "compute_bundle", recording)
    monkeypatch.setattr(subsets, "_compute_bundle", computing)
    monkeypatch.setattr(checks, "bundle_memo", measured)
    return out


def test_every_hit_equals_a_fresh_bundle(log):
    run_suite([*default_corpus(), *EXTRA_RINGS], deep=True)
    hits = log.hits()
    assert len(hits) > len(log.computed) > 0
    for ring, bundle in hits:
        assert ring.order <= EXHAUSTIVE_LIMIT and bundle.ring is ring
        fresh = subsets._compute_bundle(ring)  # no memo is open here
        for name in subsets._SETS:
            got = getattr(bundle, name)
            assert got.ring is ring and np.array_equal(got.mask(), getattr(fresh, name).mask()), (ring.expr_text, name)


def test_a_deep_pass_computes_one_bundle_per_distinct_small_table(log):
    run_suite(deep=True)
    small = [ring for ring, _ in log.calls if ring.order <= EXHAUSTIVE_LIMIT]
    large = [ring for ring, _ in log.calls if ring.order > EXHAUSTIVE_LIMIT]
    computed = [bundle.ring for bundle in log.computed]
    assert len([r for r in computed if r.order <= EXHAUSTIVE_LIMIT]) == len({table_key(r) for r in small}) < len(small)
    assert [r for r in computed if r.order > EXHAUSTIVE_LIMIT] == large != []  # every call above 64 computes
    assert len(log.memo_bytes) == 1 and 0 < log.memo_bytes[0] < 1 << 20


def test_a_report_with_the_memo_bypassed_is_the_same(log, monkeypatch):
    memoised = run_suite(deep=True).to_json_dict(include_millis=False)
    assert len(log.computed) < len(log.calls)
    del log.calls[:], log.computed[:]
    monkeypatch.setattr(checks, "bundle_memo", contextlib.nullcontext)
    bypassed = run_suite(deep=True).to_json_dict(include_millis=False)
    assert len(log.computed) == len(log.calls) and log.hits() == []
    assert bypassed == memoised


def test_rings_over_the_same_tables_keep_their_own_names(log):
    z2, z4 = compile_text("z(2)"), compile_text("z(4)")
    with subsets.bundle_memo() as memo:
        own = compute_bundle(z2)
        quotient, _, shared = compute_bundle(z4).radical_quotient()  # z(4)/{0, 2}: z(2)'s tables
        assert table_key(quotient) == table_key(z2) and len(memo) == 2
    assert [bundle.ring for bundle in log.computed] == [z2, z4]  # R/J was a hit
    assert shared.ring is quotient and all(getattr(shared, name).ring is quotient for name in subsets._SETS)
    assert [z2.describe(u) for u in own.units] == ["1 (#1)"]
    assert [quotient.describe(u) for u in shared.units] == ["[1] (#1)"]
    assert [quotient.describe(j) for j in shared.jsharp] == ["[0] (#0)"]


def test_no_entry_outlives_its_call(log):
    for _ in range(2):
        run_suite(["z(4)", "quot(z(8),[4])"])
        assert subsets._MEMO.get() is None
    first, second = log.memos
    assert first is not second and first == second == {}
    per_call = len(log.computed) // 2
    assert per_call > 0 and [b.ring.expr_text for b in log.computed[:per_call]] == [b.ring.expr_text for b in log.computed[per_call:]]
    ring = compile_text("z(4)")  # outside a call, every bundle is computed
    del log.computed[:]
    assert compute_bundle(ring) is not compute_bundle(ring) and len(log.computed) == 2


def test_the_memo_is_gone_after_a_call_that_raises(log, monkeypatch):
    make_context = checks.make_context

    def failing(ring, **kwargs):
        ctx = make_context(ring, **kwargs)
        if ring.order == 8:
            raise RuntimeError("stop")
        return ctx

    monkeypatch.setattr(checks, "make_context", failing)
    with pytest.raises(RuntimeError):
        run_suite(["z(4)", "z(8)"])
    with pytest.raises(RuntimeError):
        run_check("T-m", "z(8)")
    assert subsets._MEMO.get() is None
    assert len(log.memos) == 2 and log.memos[0] == log.memos[1] == {} and log.memo_bytes == []
    assert [b.ring.order for b in log.computed][-2:] == [8, 8]  # the raising call left no z(8) entry


def test_run_check_shares_bundles_within_its_call(log):
    assert run_check("L1.5", "prod(z(2),z(2))").status == "pass"  # its corners at (1, 0) and (0, 1) have z(2)'s tables
    assert len(log.memos) == 1 and len(log.computed) < len(log.calls)
