import dataclasses

import numpy as np

from ringlab import ElemSet, compile_text, compute_bundle, construct
from ringlab import predicates as P
from ringlab.checks import CheckContext, run_suite
from ringlab.core import validate_ring
from test_cli import M2Z2_INSPECT


def ring_and_bundle(text):
    ring = compile_text(text)
    return ring, compute_bundle(ring)


def test_ujsharp_examples():
    ring, b = ring_and_bundle("z(8)")
    assert P.is_ujsharp(ring, b).value

    ring, b = ring_and_bundle("z(12)")
    verdict = P.is_ujsharp(ring, b)
    assert not verdict.value
    assert "u = 5" in verdict.witness  # the first failing unit is 5

    ring, b = ring_and_bundle("m(2,z(2))")
    assert not P.is_ujsharp(ring, b).value


def test_uj_uu_examples():
    ring, b = ring_and_bundle("z(8)")
    assert P.is_uj(ring, b).value and P.is_uu(ring, b).value
    ring, b = ring_and_bundle("prod(z(2),z(2))")
    assert P.is_uj(ring, b).value and P.is_uu(ring, b).value  # only unit is 1
    ring, b = ring_and_bundle("gf(4)")
    assert not P.is_uj(ring, b).value and not P.is_uu(ring, b).value


def unit_shift_oracle(ring, bundle, pool, name):
    """The per-unit loop: u - 1 looked up in the pool, unit by unit."""
    for u in bundle.units:
        if int(ring.add[u, ring.neg[ring.one]]) not in pool.members:
            return P.Verdict(False, f"unit u = {ring.describe(u)} has u-1 outside {name}")
    return P.Verdict(True)


def test_unit_shift_classes_match_the_per_unit_oracle(corpus_bundles):
    # with each pool cut to {0} only u = 1 passes, so every ring with
    # another unit reaches the failing path of all three classes
    classes = ((P.is_ujsharp, "jsharp", "J#"), (P.is_uj, "jacobson", "J"), (P.is_uu, "nilpotents", "Nil"))
    failing = 0
    for text, ring, b in corpus_bundles:
        for predicate, field, name in classes:
            assert predicate(ring, b) == unit_shift_oracle(ring, b, getattr(b, field), name), text
            zero = ElemSet.of(ring, [ring.zero])
            cut = dataclasses.replace(b, **{field: zero})
            verdict = predicate(ring, cut)
            assert verdict == unit_shift_oracle(ring, cut, zero, name), text
            failing += not verdict.value
    assert failing == 3 * sum(len(b.units) > 1 for _, _, b in corpus_bundles)


def test_boolean_local_division():
    ring, b = ring_and_bundle("prod(z(2),z(2))")
    assert P.is_boolean(ring, b).value
    ring, b = ring_and_bundle("group(z(2),c(2))")
    assert P.is_local(ring, b).value and not P.is_division(ring, b).value
    ring, b = ring_and_bundle("z(6)")
    assert not P.is_local(ring, b).value  # nonunits {0,2,3,4} exceed J = {0}
    ring, b = ring_and_bundle("gf(8)")
    assert P.is_division(ring, b).value and P.is_local(ring, b).value


def test_semipotent_on_corpus_sample():
    for text in ("z(8)", "z(12)", "m(2,z(2))", "t(3,z(2))", "group(z(2),s(3))"):
        ring, b = ring_and_bundle(text)
        assert P.is_semipotent(ring, b).value, text


def test_idempotent_lifting():
    ring, b = ring_and_bundle("z(8)")
    assert P.idempotents_lift(ring, b, b.jacobson).value
    ring, b = ring_and_bundle("t(2,z(2))")
    assert P.idempotents_lift(ring, b, b.jacobson).value
    # direct witnesses: E11 and E22 lift the two nontrivial cosets
    e11, e22 = 1, 4
    assert e11 in b.idempotents.members and e22 in b.idempotents.members


def test_regular_exchange():
    ring, b = ring_and_bundle("m(2,z(2))")
    assert P.is_regular(ring, b).value
    ring, b = ring_and_bundle("z(4)")
    verdict = P.is_regular(ring, b)
    assert not verdict.value and "a = 2" in verdict.witness
    assert P.is_exchange(ring, b).value


def regular_oracle(ring):
    """The per-element loop is_regular ran before it tested blocks of a."""
    for a in range(ring.order):
        if not (ring.mul[ring.mul[a, :], a] == a).any():
            return P.Verdict(False, f"no x with axa = a for a = {ring.describe(a)}")
    return P.Verdict(True)


def relabelled(ring, order):
    """`ring` with old element order[i] at index i."""
    new = np.argsort(order)
    cells = np.ix_(order, order)
    return validate_ring(new[ring.add[cells]], new[ring.mul[cells]], int(new[ring.zero]), int(new[ring.one]))


def test_regular_blocks_match_the_per_element_loop(corpus_bundles):
    rings = [ring for _, ring, _ in corpus_bundles]
    rings += [compile_text(t) for t in ("m(2,gf(4))", "prod(m(2,z(2)),gf(5))")]
    for ring in rings:
        got, want = P.is_regular(ring, None), regular_oracle(ring)
        assert (got.value, got.witness) == (want.value, want.witness)
    # first failing a past the first block: 70 = (0, 0, 2) in the second block, then the 20
    # non-regular elements of gf(5) x z(25) moved last, the first at 105 in the partial block
    ring = compile_text("prod(gf(5),gf(7),z(4))")
    base = compile_text("prod(gf(5),z(25))")
    regular = np.array([(base.mul[base.mul[a, :], a] == a).any() for a in range(base.order)])
    moved = relabelled(base, np.concatenate([np.flatnonzero(regular), np.flatnonzero(~regular)]))
    for ring, first in ((ring, 70), (moved, 105)):
        got, want = P.is_regular(ring, None), regular_oracle(ring)
        assert not got.value and got.witness == want.witness
        assert got.witness.endswith(f"(#{first})")


def test_semiregular_semiboolean():
    ring, b = ring_and_bundle("group(z(2),c(2))")
    assert P.is_semiregular(ring, b).value
    assert P.is_semiboolean(ring, b).value
    ring, b = ring_and_bundle("gf(4)")
    assert P.is_semiregular(ring, b).value
    assert not P.is_semiboolean(ring, b).value


def test_clean_family_z8():
    ring, b = ring_and_bundle("z(8)")
    fam = P.clean_family(ring, b)
    assert fam["clean"].value and fam["strongly_clean"].value and fam["uniquely_clean"].value
    assert fam["jsharp_clean"].value and fam["strongly_jsharp_clean"].value
    # exhaustive decomposition count: exactly one (e, u) pair per element
    for a in range(ring.order):
        assert P.clean_decomposition_count(ring, b, a) == 1


def test_clean_family_m2():
    ring, b = ring_and_bundle("m(2,z(2))")
    fam = P.clean_family(ring, b)
    assert fam["clean"].value
    assert not fam["uniquely_clean"].value
    assert any(P.clean_decomposition_count(ring, b, a) > 1 for a in range(ring.order))


def test_strongly_nil_clean_boolean():
    ring, b = ring_and_bundle("prod(z(2),z(2))")
    fam = P.clean_family(ring, b)
    assert fam["strongly_nil_clean"].value  # a = a + 0 with a idempotent


def test_dedekind_finite():
    for text in ("z(8)", "m(2,z(2))", "group(z(2),q8)"):
        ring, b = ring_and_bundle(text)
        assert P.is_dedekind_finite(ring, b).value


def test_two_primal():
    ring, b = ring_and_bundle("z(8)")
    assert P.is_2primal(ring, b).value
    ring, b = ring_and_bundle("m(2,z(2))")
    verdict = P.is_2primal(ring, b)
    assert not verdict.value and verdict.witness is not None
    ring, b = ring_and_bundle("t(2,z(2))")
    assert P.is_2primal(ring, b).value


def test_false_verdicts_carry_reevaluable_witnesses():
    ring, b = ring_and_bundle("z(12)")
    verdict = P.is_ujsharp(ring, b)
    assert not verdict.value
    # independent re-evaluation: u = 5, u - 1 = 4, whose power orbit never meets J
    assert 5 in b.units.members
    orbit = {4}
    x = 4
    for _ in range(ring.order):
        x = int(ring.mul[x, 4])
        orbit.add(x)
    assert not orbit & b.jacobson.members


def test_classify_reports_all_predicates_and_lattice():
    for text in ("z(8)", "z(12)", "gf(4)", "m(2,z(2))", "t(2,z(2))", "prod(z(2),z(2))"):
        ring, b = ring_and_bundle(text)
        report = P.classify(ring, b)
        # every predicate, in the order the pinned `ring inspect` output prints them
        assert list(report) == [line.split()[0] for line in M2Z2_INSPECT.splitlines()[10:]]
        if report["uj"].value or report["uu"].value:
            assert report["ujsharp"].value
        if report["boolean"].value:
            assert report["uu"].value
        if report["local"].value:
            assert report["clean"].value


def test_ujsharp_check_against_structural_second_route(corpus_bundles):
    # set-equality route: U(R) = {1 + j : j in J#} exactly when UJ#
    for text, ring, b in corpus_bundles:
        one_plus_jsharp = {int(ring.add[ring.one, j]) for j in b.jsharp}
        set_equal = one_plus_jsharp == b.units.members
        assert set_equal == P.is_ujsharp(ring, b).value, text


def test_implication_suite_over_the_corpus(corpus_bundles):
    # Boolean => UU => UJ#; UJ => UJ#; UJ# => 2 in J and Dedekind-finite
    for text, ring, b in corpus_bundles:
        ujsharp = P.is_ujsharp(ring, b).value
        if P.is_boolean(ring, b).value:
            assert P.is_uu(ring, b).value, text
        if P.is_uu(ring, b).value or P.is_uj(ring, b).value:
            assert ujsharp, text
        if ujsharp:
            two = int(ring.add[ring.one, ring.one])
            assert two in b.jacobson.members, text
            assert P.is_dedekind_finite(ring, b).value, text


def semipotent_oracle(ring, bundle):
    """The definitional per-element scan: Ra, then aR, for each a outside J."""
    idem = bundle.idempotents.mask().copy()  # the stored mask is read-only
    idem[ring.zero] = False
    for a in range(ring.order):
        if a in bundle.jacobson.members:
            continue
        if not idem[ring.mul[:, a]].any():
            return P.Verdict(False, f"left ideal R*{ring.describe(a)} has no nonzero idempotent")
        if not idem[ring.mul[a, :]].any():
            return P.Verdict(False, f"right ideal {ring.describe(a)}*R has no nonzero idempotent")
    return P.Verdict(True)


def test_semipotent_matches_the_per_element_oracle(corpus_bundles):
    # Every finite ring is semipotent, so the failing path is reached by
    # pretending J = 0: a nonzero j in the true J then needs a nonzero
    # idempotent in Rj, which lies inside J and so has none.
    failing = 0
    for text, ring, b in corpus_bundles:
        assert P.is_semipotent(ring, b) == semipotent_oracle(ring, b), text
        no_radical = dataclasses.replace(b, jacobson=ElemSet.of(ring, [ring.zero]))
        verdict = P.is_semipotent(ring, no_radical)
        assert verdict == semipotent_oracle(ring, no_radical), text
        failing += not verdict.value
    assert failing == sum(len(b.jacobson) > 1 for _, _, b in corpus_bundles)


def test_classify_builds_the_radical_quotient_once(monkeypatch):
    # R/J is built by the unchecked builder behind `build_quotient`, as J
    # is already proved an ideal; every quotient passes through it
    calls = []
    real = construct._build_quotient

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(construct, "_build_quotient", counting)
    for text in ("z(8)", "m(2,z(2))", "t(3,z(2))", "group(z(2),s(3))"):
        ring, b = ring_and_bundle(text)
        calls.clear()
        P.classify(ring, b)
        assert len(calls) == 1, text
        CheckContext(ring, b).radical_quotient()  # the check context shares it
        assert len(calls) == 1, text


def clean_family_oracle(ring, bundle):
    """The per-element searches: one `*_witness` call per class and element."""
    searches = {
        "clean": P.clean_witness,
        "strongly_clean": P.strongly_clean_witness,
        "jsharp_clean": P.jsharp_clean_witness,
        "strongly_jsharp_clean": P.strongly_jsharp_clean_witness,
        "strongly_nil_clean": P.strongly_nil_clean_witness,
    }
    out = {}
    for name, search in searches.items():
        bad = next((a for a in range(ring.order) if search(ring, bundle, a) is None), None)
        if bad is None:
            out[name] = P.Verdict(True)
        else:
            out[name] = P.Verdict(False, f"{ring.describe(bad)} has no {name.replace('_', ' ')} decomposition")
    counts = [P.clean_decomposition_count(ring, bundle, a) for a in range(ring.order)]
    bad = next((a for a, k in enumerate(counts) if k != 1), None)
    if bad is None:
        out["uniquely_clean"] = P.Verdict(True)
    else:
        out["uniquely_clean"] = P.Verdict(False, f"{ring.describe(bad)} has {counts[bad]} clean decompositions")
    return out


def exchange_oracle(ring, bundle):
    """For each a, walk the idempotents e for e in aR with 1 - e in (1-a)R."""
    for a in range(ring.order):
        in_aR = set(ring.mul[a, :].tolist())
        in_bR = set(ring.mul[int(ring.add[ring.one, ring.neg[a]]), :].tolist())
        if not any(e in in_aR and int(ring.add[ring.one, ring.neg[e]]) in in_bR for e in bundle.idempotents):
            return P.Verdict(False, f"no exchange idempotent for a = {ring.describe(a)}")
    return P.Verdict(True)


def _trivial_idempotents(ring, bundle):
    # Id cut to {0, 1}: the clean classes then need a or a - 1 in the pool,
    # and exchange needs a or 1 - a to be a unit, which fails off local rings
    return dataclasses.replace(bundle, idempotents=ElemSet.of(ring, [ring.zero, ring.one]))


def decomposition_oracle(ring, bundle, a, pool, commuting):
    """The per-idempotent loop the `*_witness` searches replaced."""
    for e in sorted(bundle.idempotents.members):
        w = int(ring.add[a, ring.neg[e]])
        if w not in getattr(bundle, pool).members:
            continue
        if commuting and int(ring.mul[e, a]) != int(ring.mul[a, e]):
            continue
        return e, w
    return None


def test_witness_searches_match_the_per_idempotent_loop(corpus_bundles):
    searches = {
        P.clean_witness: ("units", False),
        P.strongly_clean_witness: ("units", True),
        P.jsharp_clean_witness: ("jsharp", False),
        P.strongly_jsharp_clean_witness: ("jsharp", True),
        P.strongly_nil_clean_witness: ("nilpotents", True),
    }
    found = set()
    for text, ring, b in corpus_bundles:
        for bundle in (b, _trivial_idempotents(ring, b)):
            for a in range(ring.order):
                for search, (pool, commuting) in searches.items():
                    got = search(ring, bundle, a)
                    assert got == decomposition_oracle(ring, bundle, a, pool, commuting), (text, a)
                    found.add(got is None)
                units = bundle.units.members
                count = sum(int(ring.add[a, ring.neg[e]]) in units for e in bundle.idempotents.members)
                assert P.clean_decomposition_count(ring, bundle, a) == count, (text, a)
    assert found == {True, False}


def test_clean_family_matches_the_per_element_oracle(corpus_bundles):
    failed = set()
    for text, ring, b in corpus_bundles:
        for bundle in (b, _trivial_idempotents(ring, b)):
            family = P.clean_family(ring, bundle)
            assert family == clean_family_oracle(ring, bundle), text
            failed |= {name for name, verdict in family.items() if not verdict.value}
    assert failed == set(clean_family_oracle(ring, b))  # every class reaches its failing path


def test_exchange_matches_the_per_element_oracle(corpus_bundles):
    failing = 0
    for text, ring, b in corpus_bundles:
        assert P.is_exchange(ring, b) == exchange_oracle(ring, b), text
        cut = _trivial_idempotents(ring, b)
        verdict = P.is_exchange(ring, cut)
        assert verdict == exchange_oracle(ring, cut), text
        failing += not verdict.value
    assert failing == sum(not P.is_local(ring, b).value for _, ring, b in corpus_bundles)


def test_exchange_witness_past_the_first_block():
    # the remaining a are tested 64 at a time; on a Boolean ring only e = a
    # serves a (e <= a and a <= e), so Id cut below index k makes the first
    # a >= k other than 0 and 1 the witness, on either side of a block edge
    ring, b = ring_and_bundle("prod(" + ",".join(["z(2)"] * 8) + ")")
    rest = [a for a in range(ring.order) if a not in (ring.zero, ring.one)]  # U = {1}, 1 - a in U only at a = 0
    positions = []
    for k in (0, 64, 65, 129, 200):
        cut = dataclasses.replace(b, idempotents=ElemSet.of(ring, [ring.zero, ring.one, *range(k)]))
        verdict = P.is_exchange(ring, cut)
        assert verdict == exchange_oracle(ring, cut), k
        positions.append(next(i for i, a in enumerate(rest) if verdict.witness.endswith(f"(#{a})")))
    assert positions == [0, 63, 64, 128, 199]
    for text in ("m(2,z(4))", "t(2,z(8))"):  # orders 256 and 512
        ring, b = ring_and_bundle(text)
        assert P.is_exchange(ring, b) == exchange_oracle(ring, b) == P.Verdict(True), text
        cut = _trivial_idempotents(ring, b)
        verdict = P.is_exchange(ring, cut)
        assert not verdict.value and verdict == exchange_oracle(ring, cut), text


# the classes every finite ring has, each with the search `classify` no longer runs
THEOREM_SEARCHES = {
    "exchange": P.is_exchange,
    "semipotent": P.is_semipotent,
    "potent": P.is_potent,
    "semiregular": P.is_semiregular,
    "clean": lambda ring, b: P.clean_family(ring, b)["clean"],
    "strongly_clean": lambda ring, b: P.clean_family(ring, b)["strongly_clean"],
    "dedekind_finite": P.is_dedekind_finite,
}


def test_classify_searches_no_class_every_finite_ring_has(monkeypatch, corpus_bundles):
    calls = []
    for name in ("is_exchange", "is_semipotent", "is_potent", "is_semiregular", "is_dedekind_finite", "idempotents_lift"):
        monkeypatch.setattr(P, name, lambda *args, _name=name: calls.append(_name))
    for text, ring, b in corpus_bundles:
        report = P.classify(ring, b)
        assert all(report[name] == P.Verdict(True) for name in THEOREM_SEARCHES), text
    assert calls == []


def test_theorem_verdicts_equal_their_searches(corpus_bundles):
    big = [(text, compile_text(text)) for text in ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "m(2,gf(8))")]
    for text, ring, b in [*corpus_bundles, *((t, r, compute_bundle(r)) for t, r in big)]:
        report = P.classify(ring, b)
        for name, search in THEOREM_SEARCHES.items():
            assert report[name] == search(ring, b) == P.Verdict(True), (text, name)


def test_regular_shortcut_agrees_with_the_search_on_j_zero_rings(monkeypatch, corpus_bundles):
    # every R/J has J = 0, and so have the semisimple corpus rings themselves
    rings = [(text, ring, b) for text, ring, b in corpus_bundles if len(b.jacobson) == 1]
    rings += [(text, *b.radical_quotient()[::2]) for text, _, b in corpus_bundles]
    assert len(rings) > len(corpus_bundles)
    searched = {text: P.is_regular(ring, b) for text, ring, b in corpus_bundles}
    real, calls = P.is_regular, []
    monkeypatch.setattr(P, "is_regular", lambda ring, b: calls.append(ring) or real(ring, b))
    for text, ring, b in rings:
        assert len(b.jacobson) == 1, text
        assert P.classify(ring, b)["regular"] == real(ring, b) == P.Verdict(True), text
    assert calls == []  # settled by J = 0, not searched
    for text, ring, b in corpus_bundles:  # and with J != 0 the search's verdict, witness and all
        assert P.classify(ring, b)["regular"] == searched[text], text


def test_classify_proves_the_radical_an_ideal_once(monkeypatch):
    # jacobson_radical proves J two-sided; R/J does not check it again
    from ringlab import subsets

    seen = []
    real = subsets.is_two_sided_ideal

    def counting(on, subset):
        seen.append((on, subset.members))
        return real(on, subset)

    monkeypatch.setattr(subsets, "is_two_sided_ideal", counting)
    monkeypatch.setattr(construct, "is_two_sided_ideal", counting)
    ring, b = ring_and_bundle("t(2,z(4))")
    P.classify(ring, b)
    assert [members for on, members in seen if on is ring] == [b.jacobson.members]
    quotient = b.radical_quotient()[0]
    assert [members for on, members in seen if on is not ring] == [frozenset({quotient.zero})]  # J(R/J), in its bundle


def dedekind_finite_oracle(ring):
    """The pairs ab = 1 from `np.nonzero(mul == one)`, row-major, without
    the word scan of `product_one_pairs`."""
    a, b = np.nonzero(ring.mul == ring.one)
    bad = np.flatnonzero(ring.mul[b, a] != ring.one)
    if len(bad):
        a, b = int(a[bad[0]]), int(b[bad[0]])
        return P.Verdict(False, f"ab = 1 but ba != 1 for a = {ring.describe(a)}, b = {ring.describe(b)}")
    return P.Verdict(True)


def test_dedekind_finite_matches_its_oracle(corpus_bundles):
    big = compile_text("t(2,z(16))")
    for text, ring, b in [*corpus_bundles, ("t(2,z(16))", big, compute_bundle(big))]:
        assert P.is_dedekind_finite(ring, b) == dedekind_finite_oracle(ring), text


def test_dedekind_finite_witness_on_a_one_sided_inverse():
    # Raw tables, not a ring: 2 * 4 = 1 and 3 * 2 = 1, but 4 * 2 = 2 * 3 = 0.
    # Row-major, (2, 4) is the first one-sided pair; column-major, (3, 2).
    from ringlab.core import TableRing
    from ringlab.subsets import InvariantBundle, unit_inverses, units

    n = 5
    add = np.add.outer(np.arange(n), np.arange(n)).astype(np.int32) % n
    mul = np.zeros((n, n), dtype=np.int32)
    mul[1, :] = mul[:, 1] = np.arange(n)
    mul[2, 4] = mul[3, 2] = 1
    ring = TableRing(n, add, mul, (-np.arange(n)) % n, 0, 1, tuple("01234"), None, "raw")
    u = units(ring)
    assert u.members == {1} and unit_inverses(ring) == {1: 1}
    empty = ElemSet.of(ring, [0])
    bundle = InvariantBundle(ring, u, empty, empty, empty, empty, empty, empty)
    expected = P.Verdict(False, "ab = 1 but ba != 1 for a = 2 (#2), b = 4 (#4)")
    assert dedekind_finite_oracle(ring) == expected
    assert P.is_dedekind_finite(ring, bundle) == expected


def test_clean_decomposable_gathers_once_per_bundle(monkeypatch):
    # classify (through clean_family), C2.7, P-clean and C-equclean all read it
    gathered = []
    masks = P._clean_masks
    monkeypatch.setattr(P, "_clean_masks", lambda ring, b: gathered.append(b) or masks(ring, b))
    corpus = ["z(8)", "t(2,z(2))", "group(z(2),c(2))"]
    report = run_suite(corpus)
    ran = {e["id"]: [r.status for r in e["results"]] for e in report.checks if e["id"] in ("C2.7", "P-clean", "C-equclean")}
    assert ran == {"C2.7": ["pass"] * 3, "P-clean": ["pass"] * 3, "C-equclean": ["pass"] * 3}
    assert len({id(b) for b in gathered}) == len(gathered)  # no bundle gathered twice
    assert {b.ring.expr_text for b in gathered} >= set(corpus)
    decomposable, counts = P.clean_decomposable(gathered[0].ring, gathered[0])
    assert not counts.flags.writeable and not any(mask.flags.writeable for mask in decomposable.values())
