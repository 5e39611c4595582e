import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ringlab import ElemSet, compile_text, compute_bundle, power_orbit
from ringlab.core import rows_equal_columns
from ringlab.construct import additive_closure, build_matrix, build_triangular, build_zmod, ideal_closure, matrix_unit_index
from ringlab.subsets import (
    NotAGroupRingError,
    _prime_rows,
    additive_generators,
    augmentation_ideal,
    center,
    idempotents,
    is_two_sided_ideal,
    jacobson_radical,
    jacobson_radical_maximal_ideal_oracle,
    jsharp,
    nilpotents,
    prime_radical,
    prime_radical_ideal_oracle,
    principal_ideals,
    product_one_pairs,
    prune_nil,
    unit_inverses,
    units,
)

from ringtables import BITWISE_RINGS, CAP_RINGS, EXTRA_RINGS, ideal_masks, join_closure_oracle, joined_ideals, two_sided_ideals, without_basis

M2 = build_matrix(build_zmod(2), 2)
T2 = build_triangular(build_zmod(2), 2)
E12 = matrix_unit_index(M2, 0, 1)
E21 = matrix_unit_index(M2, 1, 0)
ONES = 1 + 2 + 4 + 8


def test_units_examples():
    z8 = build_zmod(8)
    u = units(z8)
    assert u.indices() == (1, 3, 5, 7)
    a, b = product_one_pairs(z8)
    assert list(zip(a.tolist(), b.tolist())) == [(1, 1), (3, 3), (5, 5), (7, 7)]  # every ab = 1, row-major
    assert unit_inverses(z8) == {x: x for x in u}  # odd residues self-inverse mod 8

    u, inverse = units(M2), unit_inverses(M2)
    assert len(u) == 6 and set(inverse) == u.members
    for a in u:
        assert int(M2.mul[a, inverse[a]]) == M2.one
        assert int(M2.mul[inverse[a], a]) == M2.one

    fc2 = compile_text("group(z(2),c(2))")
    u = units(fc2)
    assert u.indices() == (1, 2)  # 1 and g


def test_idempotents_z12():
    assert idempotents(build_zmod(12)).indices() == (0, 1, 4, 9)


def test_nilpotents_m2():
    assert nilpotents(M2).indices() == (0, E12, E21, ONES)


def test_center_m2():
    assert center(M2).indices() == (0, M2.one)


def test_jacobson_examples():
    z8 = build_zmod(8)
    assert jacobson_radical(z8).indices() == (0, 2, 4, 6)
    assert jacobson_radical(M2).indices() == (0,)
    assert jacobson_radical(T2).indices() == (0, 2)


def test_jacobson_matches_maximal_ideal_oracle():
    for text in ("z(8)", "z(12)", "z(16)", "m(2,z(2))", "t(2,z(2))", "t(3,z(2))",
                 "group(z(2),c(2))", "group(z(2),c(2)xc(2))", "group(z(2),s(3))",
                 "prod(z(2),gf(4))", "triv(z(4))", "gf(9)"):
        ring = compile_text(text)
        assert jacobson_radical(ring).members == jacobson_radical_maximal_ideal_oracle(ring).members, text


def test_jsharp_examples():
    z8 = build_zmod(8)
    assert jsharp(z8, jacobson_radical(z8)).indices() == (0, 2, 4, 6)
    # the 2x2 matrix ring over Z/2 has a 4-element J#, the all-ones matrix included
    sharp = jsharp(M2, jacobson_radical(M2))
    assert sharp.indices() == (0, E12, E21, ONES)
    boole = compile_text("prod(z(2),z(2))")
    assert jsharp(boole, jacobson_radical(boole)).indices() == (0,)


def test_prime_radical_examples():
    assert prime_radical(build_zmod(8)).indices() == (0, 2, 4, 6)
    assert prime_radical(M2).indices() == (0,)
    assert prime_radical(T2).indices() == (0, 2)


def test_prime_radical_matches_ideal_oracle():
    for text in ("z(8)", "z(12)", "m(2,z(2))", "t(2,z(2))", "prod(z(2),z(2))",
                 "triv(z(4))", "group(z(2),c(2))", "gf(9)"):
        ring = compile_text(text)
        assert prime_radical(ring).members == prime_radical_ideal_oracle(ring).members, text


def prime_loop_oracle(ring, ideal):
    """The per-pair prime test the gathered one replaced (kept as oracle):
    P is prime unless some a, b outside P have a*r*b in P for every r."""
    n, mul = ring.order, ring.mul
    outside = [a for a in range(n) if a not in ideal]
    for a in outside:
        arow = mul[a, :]
        for b in outside:
            if all(int(mul[int(ar), b]) in ideal for ar in arow):
                return False
    return True


def oracle_rings(corpus_bundles):
    """(text, ring) for every corpus ring of order <= 16, where O-nilstar
    runs, and the extra products."""
    small = [(text, ring) for text, ring, _ in corpus_bundles if ring.order <= 16]
    return small + [(text, compile_text(text)) for text in EXTRA_RINGS]


def test_principal_ideals_match_the_closure_of_each_element(corpus_bundles):
    rings = oracle_rings(corpus_bundles)
    for text, ring in rings:
        masks = principal_ideals(ring)
        for a in range(ring.order):
            want = ideal_closure(ring, ElemSet.of(ring, [a])).mask()
            assert np.array_equal(masks[a], want), (text, a)
    assert len(rings) > 20


def test_principal_ideals_of_the_rows_of_j_match_the_closure_of_each(corpus_bundles):
    # the rows `CheckContext.radical_ideals` closes: every corpus ring of
    # order <= 64, where it enumerates the ideals inside J
    rings = [(text, ring, b.jacobson) for text, ring, b in corpus_bundles if ring.order <= 64]
    rings += [(text, ring, compute_bundle(ring).jacobson) for text, ring in ((t, compile_text(t)) for t in EXTRA_RINGS)]
    for text, ring, jac in rings:
        masks = principal_ideals(ring, jac.index_array())
        assert masks.shape == (len(jac), ring.order), text
        for row, j in zip(masks, jac):
            want = ideal_closure(ring, ElemSet.of(ring, [j])).mask()
            assert np.array_equal(row, want), (text, j)
    assert {"t(3,z(2))", "z(32)", *EXTRA_RINGS} <= {text for text, *_ in rings}
    assert max(len(jac) for *_, jac in rings) >= 16


def test_principal_ideals_need_more_than_one_round_in_m3():
    # (E11) in M_3(Z/2) is every matrix, but sums of two products r E11 s
    # have rank at most 2, so the fixpoint must run a second round
    ring = compile_text("m(3,z(2))")
    gens = np.array([matrix_unit_index(ring, 0, 0), matrix_unit_index(ring, 0, 1)])
    masks = principal_ideals(ring, gens)
    for row, a in zip(masks, gens):
        assert np.array_equal(row, ideal_closure(ring, ElemSet.of(ring, [a])).mask())
    assert masks.all()


def test_the_gathered_prime_test_matches_the_pair_loop(corpus_bundles):
    verdicts = {}
    for text, ring in oracle_rings(corpus_bundles):
        proper = [ideal for ideal in two_sided_ideals(ring) if len(ideal) < ring.order]
        inside = np.array([np.isin(np.arange(ring.order), list(ideal)) for ideal in proper])
        for ideal, prime in zip(proper, _prime_rows(inside, ring.mul[ring.mul]).tolist()):
            verdicts[text, ideal] = prime
            assert prime == prime_loop_oracle(ring, ideal), (text, sorted(ideal))
    assert verdicts["z(4)", frozenset({0})] is False  # 2 * r * 2 = 0 for every r
    assert verdicts["z(4)", frozenset({0, 2})] is True
    assert set(verdicts.values()) == {True, False}


def frozenset_join_closure(ring, principal):
    """The join-closure as the mask join replaced it (kept as oracle): each
    sum I + P one |I| x |P| gather through add, keyed by its mask bytes."""

    def key(members):
        mask = np.zeros(ring.order, dtype=bool)
        mask[members] = True
        return mask.tobytes()

    arrays = [np.fromiter(j, dtype=np.int64, count=len(j)) for j in principal]
    ideals = {key(ja): ja for ja in arrays}
    frontier = arrays
    while frontier:
        nxt = []
        for ia in frontier:
            for ja in arrays:
                k = key(ring.add[ia[:, None], ja])
                if k not in ideals:
                    ideals[k] = np.flatnonzero(np.frombuffer(k, dtype=bool))
                    nxt.append(ideals[k])
        frontier = nxt
    return sorted((frozenset(a.tolist()) for a in ideals.values()), key=lambda s: (len(s), sorted(s)))


def test_the_jacobson_oracle_matches_its_definition(corpus_bundles):
    # every left ideal from the pair-by-pair join of the Ra, the maximal ones
    # by strict inclusion among the proper ones, and their intersection as sets
    rings = [(text, ring) for text, ring, _ in corpus_bundles if ring.order <= 64]  # where O-jac runs
    rings += [(text, compile_text(text)) for text in EXTRA_RINGS]
    for text, ring in rings:
        principal = {frozenset(ring.mul[:, a].tolist()) for a in range(ring.order)}
        ideals = join_closure_oracle(ring, principal)
        assert joined_ideals(ring, ideal_masks(ring, principal)) == ideals == frozenset_join_closure(ring, principal), text
        proper = [i for i in ideals if len(i) < ring.order]
        maximal = [i for i in proper if not any(i < j for j in proper)]
        assert jacobson_radical_maximal_ideal_oracle(ring).members == frozenset(range(ring.order)).intersection(*maximal), text
    assert {"t(3,z(2))", "group(z(2),s(3))", *EXTRA_RINGS} <= {text for text, _ in rings}


def test_the_prime_radical_oracle_matches_its_definition(corpus_bundles):
    # every two-sided ideal from the pair-by-pair join of the closures (a),
    # each proper one tested prime by the pair loop, and the primes' intersection
    rings = oracle_rings(corpus_bundles)
    for text, ring in rings:
        principal = {ideal_closure(ring, ElemSet.of(ring, [a])).members for a in range(ring.order)}
        ideals = join_closure_oracle(ring, principal)
        assert two_sided_ideals(ring) == ideals == frozenset_join_closure(ring, principal), text
        primes = [i for i in ideals if len(i) < ring.order and prime_loop_oracle(ring, i)]
        assert prime_radical_ideal_oracle(ring).members == frozenset(range(ring.order)).intersection(*primes), text
    assert {"m(2,z(2))", "t(2,z(2))", *EXTRA_RINGS} <= {text for text, _ in rings}


def _power_orbit_oracle(ring, target):
    """Elements some positive power of which lies in target, walking each orbit."""
    return frozenset(a for a in range(ring.order) if not target.isdisjoint(power_orbit(ring, a)[0]))


# z(128) and z(256) hold a nilpotent of index floor(log2 n) (2, of index 7 and
# 8 = 2^3), so the squaring bound is tight; z(27) and m(2,z(6)) have orders
# that are not powers of two
ORBIT_RINGS = ("t(2,z(16))", "z(64)", "group(z(4),c(4))", "z(128)", "z(256)", "z(27)", "m(2,z(6))",
               "m(2,z(8))", "group(z(2),c(12))")


def test_squaring_orbits_match_power_orbit_oracle(corpus_bundles):
    extra = [(text, compile_text(text)) for text in ORBIT_RINGS]
    for text, ring, bundle in corpus_bundles + [(text, ring, compute_bundle(ring)) for text, ring in extra]:
        nil, jsh = _power_orbit_oracle(ring, {ring.zero}), _power_orbit_oracle(ring, bundle.jacobson.members)
        assert nilpotents(ring).members == bundle.nilpotents.members == nil, text
        assert jsharp(ring, bundle.jacobson).members == bundle.jsharp.members == jsh, text
        assert bundle.idempotents == idempotents(ring), text
    for n, index in ((128, 7), (256, 8)):
        orbit, start = power_orbit(compile_text(f"z({n})"), 2)
        assert orbit[start] == 0 and start + 1 == index == n.bit_length() - 1  # orbit[i] = 2^(i+1)


def squarings(monkeypatch, text):
    """The orders of the rings on which `compute_bundle` squares every
    element, once per squaring, seen through `subsets.products`."""
    from ringlab import subsets

    ring, seen, real = compile_text(text), [], subsets.products

    def counting(on, x, y=None):
        if y is x and np.ndim(x) == 1 and len(x) == on.order:
            seen.append(on.order)
        return real(on, x, y)

    monkeypatch.setattr(subsets, "products", counting)
    compute_bundle(ring)
    monkeypatch.undo()
    return seen


def test_a_cap_ring_bundle_makes_one_short_squaring_orbit(monkeypatch):
    # Id from the first squaring, then 3 more up to a^16, 16 >= floor(log2 4096);
    # Nil and J# read the same orbit, so there is no second one, and R/J's
    # bundle waits for its first read, so R/J makes no orbit either
    for text in CAP_RINGS:
        assert squarings(monkeypatch, text) == [4096] * 4, text
    assert squarings(monkeypatch, "m(2,gf(8))") == [4096] * 4  # J = {0}: R/J is R, no second bundle
    assert squarings(monkeypatch, "z(2)") == [2]  # index <= 1: the squaring for Id alone


def test_prime_radical_is_jacobson_on_the_corpus(corpus_bundles):
    for text, ring, bundle in corpus_bundles:
        assert bundle.prime_radical.members == bundle.jacobson.members, text


def test_units_and_inverses_match_the_definition(corpus_bundles):
    for text, ring, bundle in corpus_bundles:
        one = ring.one
        inverses = {a: [b for b in range(ring.order) if ring.mul[a, b] == one == ring.mul[b, a]] for a in range(ring.order)}
        assert bundle.units.members == {a for a, bs in inverses.items() if bs}, text
        assert unit_inverses(ring) == {a: bs[0] for a, bs in inverses.items() if bs}, text


def test_lifted_units_match_the_scan():
    # U lifted from R/J, each unit with its certified inverse, against the
    # n^2 scan; rings with a basis and J != {0} take the lift in their bundle
    lifted = 0
    for text in dict.fromkeys(BITWISE_RINGS + ("group(z(2),q8)",)):
        ring = compile_text(text)
        b = compute_bundle(ring)
        if len(b.jacobson) == 1:
            assert text not in CAP_RINGS and b._modulo_radical is None, text
            continue
        assert (b._modulo_radical is not None) == (ring.basis is not None) and b._radical_quotient is None, text
        lifted += ring.basis is not None
        scan = unit_inverses(ring)
        assert unit_inverses(ring, b.radical_quotient()) == scan, text
        assert units(ring, b.radical_quotient()) == units(ring) == b.units, text
        assert set(scan) == b.units.members, text
    assert lifted >= 12


def scanned_orders(monkeypatch, text, open_fixpoint=False):
    """The orders of the rings whose `mul == one` pairs `compute_bundle`
    scans on `text`, with the pruning's fixpoint forced open if asked."""
    from ringlab import subsets

    ring, seen, real = compile_text(text), [], subsets.product_one_pairs

    def counting(on):
        seen.append(on.order)
        return real(on)

    monkeypatch.setattr(subsets, "product_one_pairs", counting)
    if open_fixpoint:
        monkeypatch.setattr(subsets, "prune_nil", lambda on, gens, nil, columns: (nil.copy(), None))
    b = compute_bundle(ring)
    monkeypatch.undo()
    assert b.units == units(ring), text
    return seen, ring.order // len(b.jacobson)


@pytest.mark.parametrize("first", [0, 1])
def test_r_mod_zero_and_its_bundle_share_the_deferred_products(first, monkeypatch):
    # R/{0} is built over R's quarter tables and mul cell, and the checks'
    # bundle of it is R's, wrapped, found by the shared cell without filling
    # mul (m(2,gf(8)) has J = {0}, so R/J is R/{0} too); the first whole
    # read, through either ring, fills one table for both
    from ringlab import checks, core
    from ringlab.construct import build_quotient

    fills, fill = [], core._bitwise_mul_table
    monkeypatch.setattr(core, "_bitwise_mul_table", lambda quarters, high: fills.append(1) or fill(quarters, high))
    ring = compile_text("m(2,gf(8))")
    bundle = compute_bundle(ring)
    quotient = build_quotient(ring, ElemSet.of(ring, [ring.zero]))[0]
    monkeypatch.setattr(checks, "compute_bundle", None)
    ctx = checks.CheckContext(ring, bundle)
    qb, (rq, _, rqb) = ctx.bundle_of(quotient), ctx.radical_quotient()
    assert quotient.shares_tables(ring) and rq.shares_tables(ring) and ctx.bundle_of(rq) is rqb
    assert qb.ring is quotient and qb.units.mask() is bundle.units.mask() is rqb.units.mask()
    assert quotient.mul_quarters is ring.mul_quarters and fills == [] and ring._mul[0] is None
    pair = (ring, quotient) if first == 0 else (quotient, ring)
    assert pair[0].mul is pair[1].mul is rq.mul and fills == [1]


def test_a_cap_ring_scans_only_its_radical_quotient(monkeypatch):
    for text in CAP_RINGS:
        seen, quotient_order = scanned_orders(monkeypatch, text)
        assert quotient_order <= 16 and seen == [quotient_order], text  # R/J's inverses; its bundle waits for a read
    assert scanned_orders(monkeypatch, "m(2,gf(8))") == ([4096], 4096)  # J = {0}
    assert scanned_orders(monkeypatch, "group(z(5),c(5))") == ([3125], 5)  # no basis
    assert scanned_orders(monkeypatch, "m(2,z(8))", open_fixpoint=True) == ([4096, 16], 16)  # the criterion's U, then R/J's


def test_the_radical_quotients_bundle_waits_for_its_first_read(capsys, monkeypatch):
    # the unit lift keeps R/J and its projection; R/J's own bundle is computed
    # on the first `radical_quotient` read, once, and never by `ring inspect`
    from ringlab import cli, subsets

    computed, real = [], subsets._compute_bundle
    monkeypatch.setattr(subsets, "_compute_bundle", lambda ring: computed.append(ring.order) or real(ring))
    for text in CAP_RINGS:
        computed.clear()
        assert cli.main(["inspect", "--json", "--no-cache", text]) == 0
        assert computed == [4096], text
        b = compute_bundle(compile_text(text))
        quotient, projection = b.modulo_radical()
        assert b._radical_quotient is None and b.modulo_radical()[0] is quotient, text
        assert computed == [4096] * 2, text
        rq, rp, qb = b.radical_quotient()
        assert rq is quotient and rp is projection and qb.ring is quotient and computed == [4096] * 2 + [quotient.order], text
        assert b.radical_quotient()[2] is qb and len(computed) == 3, text
        assert qb.units == subsets.units(quotient) and qb.jacobson.members == {quotient.zero}, text
    capsys.readouterr()


def test_jacobson_candidate_gather_matches_the_full_gather():
    # J is gathered only over the columns j with 1 - j a unit, in row slabs;
    # in prod(z(512),z(3)) the candidates (b, 2) with b even fail only at
    # the rows (r, 2), the last slab, as the z(3) coordinate is the high digit.
    # The cap rings keep a basis, so their gather runs on a copy without one.
    for text in ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "prod(z(512),z(3))"):
        ring = compile_text(text)
        unit_mask = units(ring).mask()
        quasi = unit_mask[ring.add[ring.one, ring.neg]]
        full = np.flatnonzero(quasi[ring.mul].all(axis=0))
        assert jacobson_radical(without_basis(ring), unit_mask).indices() == tuple(full.tolist()), text
        assert jacobson_radical(ring, unit_mask).indices() == tuple(full.tolist()), text


def unit_criterion_mask(ring, unit_mask):
    """{j : 1 - r*j is a unit for every r}, `unit_mask[1 - r*j].all(axis=0)`
    in slabs of 256 rows r."""
    out = np.ones(ring.order, dtype=bool)
    for r in range(0, ring.order, 256):
        out &= unit_mask[ring.add[ring.one, ring.neg[ring.mul[r : r + 256]]]].all(axis=0)
    return out


PRUNE_RINGS = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "m(2,gf(8))", "group(z(2),q8)",
               "group(z(9),c(3))", "group(z(3),c(7))", "m(2,z(3))")


def assert_pruned_jacobson_is_the_unit_criterion(text, ring):
    """Nil pruned on the basis, or on greedy generators of (R, +) when
    there is none, reaches a closed fixpoint equal to the definitional J."""
    gens = ring.basis
    if gens is None:
        gens, span = additive_generators(ring, np.arange(ring.order))
        assert span.all() and len(gens) <= (ring.order - 1).bit_length(), text  # each one at least doubles the span
    unit_mask, nil_mask = units(ring).mask(), nilpotents(ring).mask()
    pruned, generators = prune_nil(ring, gens, nil_mask)
    assert generators == additive_generators(ring, np.flatnonzero(pruned))[0], text  # closed: its greedy generators
    want = unit_criterion_mask(ring, unit_mask)
    assert np.array_equal(pruned, want), text
    assert np.array_equal(jacobson_radical(ring, unit_mask, nil_mask, gens).mask(), want), text


def test_pruned_jacobson_matches_the_unit_criterion_on_the_corpus(corpus_bundles):
    for text, ring, _ in corpus_bundles:
        assert_pruned_jacobson_is_the_unit_criterion(text, ring)


@pytest.mark.parametrize("text", PRUNE_RINGS)
def test_pruned_jacobson_matches_the_unit_criterion(text):
    ring = compile_text(text)
    assert (ring.basis is not None) == (ring.validation == "exhaustive"), text  # the last three are sampled
    assert_pruned_jacobson_is_the_unit_criterion(text, ring)


def test_additive_generators_span_the_members():
    z32 = build_zmod(32)
    gens, span = additive_generators(z32, np.arange(32))
    assert gens == [1] and span.all()
    gens, span = additive_generators(z32, np.array([0, 12, 20]))
    assert gens == [12] and np.array_equal(np.flatnonzero(span), np.arange(0, 32, 4))  # <12> = <4>; 20 is in it
    gens, span = additive_generators(M2, np.array([E12, E21]))
    assert gens == [E12, E21] and len(np.flatnonzero(span)) == 4


def test_an_open_fixpoint_falls_back_to_the_unit_criterion(monkeypatch):
    # Nil of m(2,z(8)) holds E12 and E21 but not their sum, so it is not
    # closed; injected as the fixpoint, J comes from the slab search over
    # the quasi-regular candidates in it and the ideal guard
    from ringlab import subsets

    ring = compile_text("m(2,z(8))")
    nil_mask = nilpotents(ring).mask()
    e12, e21 = matrix_unit_index(ring, 0, 1), matrix_unit_index(ring, 1, 0)
    assert nil_mask[e12] and nil_mask[e21] and not nil_mask[ring.add[e12, e21]]
    assert not np.array_equal(additive_generators(ring, np.flatnonzero(nil_mask))[1], nil_mask)
    want = jacobson_radical(without_basis(ring))
    seen, guards, real_guard = [], [], subsets.is_two_sided_ideal

    def open_fixpoint(on, gens, nil, columns):
        seen.append(tuple(gens))
        return nil.copy(), None

    def guard(on, subset):
        guards.append(subset)
        return real_guard(on, subset)

    monkeypatch.setattr(subsets, "prune_nil", open_fixpoint)
    monkeypatch.setattr(subsets, "is_two_sided_ideal", guard)
    got = jacobson_radical(ring)
    assert seen == [ring.basis] and guards == [got]
    assert got == ElemSet.from_mask(ring, want.mask()) and 1 < len(got) < np.count_nonzero(nil_mask)


def test_is_two_sided_ideal():
    z8 = build_zmod(8)
    ok, witness = is_two_sided_ideal(z8, ElemSet.of(z8, [0, 2, 4, 6]))
    assert ok and witness is None
    ok, witness = is_two_sided_ideal(z8, ElemSet.of(z8, [0]))
    assert ok
    # J# of the matrix ring is not even additively closed: E12 + E21 is a unit
    sharp = jsharp(M2, jacobson_radical(M2))
    ok, witness = is_two_sided_ideal(M2, sharp)
    assert not ok
    kind = witness[0]
    assert kind == "add"
    _, a, b = witness
    assert int(M2.add[a, b]) not in sharp.members


def test_center_and_jacobson_match_the_definitions(corpus_bundles):
    extra = compile_text("t(2,z(16))")
    for text, ring, bundle in corpus_bundles + [("t(2,z(16))", extra, compute_bundle(extra))]:
        mul = ring.mul
        assert np.array_equal(center(ring).mask(), (mul == mul.T).all(axis=1)), text
        unit_mask = bundle.units.mask()
        one_minus = ring.add[ring.one, ring.neg[mul]]  # (r, j) -> 1 - r*j, three n x n gathers
        assert np.array_equal(jacobson_radical(ring, unit_mask).mask(), unit_mask[one_minus].all(axis=0)), text


def _ideal_witness_oracle(ring, subset):
    """The witness scans run unconditionally: the first failure in each test."""
    members = sorted(subset.members)
    if ring.zero not in subset.members:
        return False, ("zero", ring.zero)
    mask = subset.mask()
    arr = np.array(members, dtype=np.int64)
    bad = np.argwhere(~mask[ring.add[np.ix_(arr, arr)]])
    if len(bad):
        return False, ("add", members[bad[0][0]], members[bad[0][1]])
    bad = np.argwhere(~mask[ring.mul[:, arr]])
    if len(bad):
        return False, ("left", int(bad[0][0]), members[bad[0][1]])
    bad = np.argwhere(~mask[ring.mul[arr, :]])
    if len(bad):
        return False, ("right", members[bad[0][0]], int(bad[0][1]))
    return True, None


def test_is_two_sided_ideal_witnesses_match_the_oracle():
    kinds = set()
    for text in ("m(2,z(2))", "t(2,z(2))", "t(3,z(2))", "group(z(2),s(3))", "z(12)"):
        ring = compile_text(text)
        candidates = []
        for a in range(ring.order):
            candidates.append(ElemSet.of(ring, ring.mul[:, a]))  # R*a: a left ideal
            candidates.append(ElemSet.of(ring, ring.mul[a, :]))  # a*R: a right ideal
            candidates.append(ElemSet.of(ring, {ring.zero, a}))
            candidates.append(ElemSet.of(ring, {a}))
        for subset in candidates:
            got = is_two_sided_ideal(ring, subset)
            assert got == _ideal_witness_oracle(ring, subset), (text, subset.indices())
            kinds.add(got[1][0] if got[1] else None)
    assert kinds == {"zero", "add", "left", "right", None}


def test_generator_forms_match_the_full_forms(basis_text):
    # the centre and the ideal check on the bit generators against
    # rows_equal_columns and the full left/right scan, on J, on J with one
    # element added or removed, on {0, g1, g2}, on R*g and g*R for each
    # generator g, and on additive subgroups
    text = basis_text
    ring = compile_text(text)
    assert ring.basis is not None and ring.validation == "exhaustive"
    plain = without_basis(ring)
    assert np.array_equal(center(ring).mask(), rows_equal_columns(ring.mul)), text
    jac = jacobson_radical(ring)
    rng = np.random.default_rng(ring.order)
    outside, jac = np.flatnonzero(~jac.mask()), jac.index_array()
    subsets = [jac, np.union1d(jac, rng.choice(outside, 1)), [ring.zero, *ring.basis[:2]]]  # g1 + g2 left out
    if len(jac) > 1:  # J = 0 on a semisimple ring such as m(2,gf(8))
        subsets.append(np.setdiff1d(jac, rng.choice(jac[1:], 1)))
    subsets += [ring.mul[:, g] for g in ring.basis] + [ring.mul[g, :] for g in ring.basis]  # R*g and g*R
    subsets += [additive_closure(ring, [a]).index_array() for a in rng.choice(ring.order, 4, replace=False)]
    distinct = {ElemSet.of(ring, members).mask().tobytes(): members for members in subsets}  # R*g = R for a unit g
    kinds = set()
    for members in distinct.values():
        got = is_two_sided_ideal(ring, ElemSet.of(ring, members))
        assert got == is_two_sided_ideal(plain, ElemSet.of(plain, members)), (text, got)
        kinds.add(got[1][0] if got[1] else None)
    if text == "z(128)":  # every additive subgroup of z(n) is an ideal
        assert kinds == {None, "add"}
    else:
        assert {None, "add", "left"} <= kinds, (text, kinds)


def test_augmentation():
    fc2 = compile_text("group(z(2),c(2))")
    assert augmentation_ideal(fc2).indices() == (0, 3)
    z4c2 = compile_text("group(z(4),c(2))")
    assert len(augmentation_ideal(z4c2)) == 4  # 16 / 4


def test_augmentation_requires_group_ring():
    with pytest.raises(NotAGroupRingError):
        augmentation_ideal(build_zmod(8))


def test_bundle_invariants_across_sample():
    for text in ("z(2)", "z(12)", "gf(9)", "m(2,z(2))", "t(3,z(2))", "triv(z(4))",
                 "group(z(2),c(4))", "group(z(2),s(3))"):
        ring = compile_text(text)
        b = compute_bundle(ring)
        assert ring.one in b.units and ring.zero in b.idempotents and ring.one in b.idempotents
        assert ring.zero in b.nilpotents and ring.zero in b.jacobson and ring.zero in b.jsharp
        assert b.jacobson.members <= b.jsharp.members
        assert b.nilpotents.members <= b.jsharp.members
        assert b.prime_radical.members <= b.nilpotents.members
        one_plus_j = {int(ring.add[ring.one, j]) for j in b.jacobson}
        assert one_plus_j <= b.units.members
        assert set(unit_inverses(ring)) == set(b.units.members)


GUARD_SCRIPT = """
import dataclasses, sys
from ringlab import ElemSet, compile_text, compute_bundle, validate_ring
from ringlab import predicates
from ringlab.construct import NotAnIdealError, build_quotient, matrix_unit_index
from ringlab.core import RingError, RingValidationError, TableRing, bitwise_ring, field_top_bits
from ringlab.subsets import _assert_bundle_sanity

assert sys.flags.optimize >= 1
ring = compile_text("z(5)")
bundle = compute_bundle(ring)
corrupt = dataclasses.replace(bundle, units=ElemSet.of(ring, [2, 3, 4]))  # 1 dropped from U
try:
    _assert_bundle_sanity(corrupt)
    sys.exit("corrupt bundle accepted")
except RingError as exc:
    print("bundle:", exc)
predicates.is_uj = lambda ring, bundle: predicates.Verdict(True)  # UJ without UJ# breaks the lattice
try:
    predicates.classify(ring, bundle)
    sys.exit("broken implication lattice accepted")
except RingError as exc:
    print("classify:", exc)
from ringlab.construct import _reindex, build_corner
ring = compile_text("t(3,z(2))")  # order 64: its corner at E11 + E22 is proved by the embedding
corner, embedding = build_corner(ring, 9)
add, mul, back = _reindex(ring, embedding)
mul[6, 7] = 1  # (E12 + E22)(E11 + E12 + E22) is E12 + E22, corner index 6, parent index 10
try:
    validate_ring(add, mul, int(back[ring.zero]), int(back[9]), parent=ring, embedding=embedding)
    sys.exit("corrupt corner table accepted")
except RingValidationError as exc:
    print("derived:", exc)
ring = compile_text("m(2,z(8))")  # order 4096: proved on its bit generators
mul = ring.mul.copy()
mul[3000, 7] = 0  # row 3000 = 952 + 2048 is no longer the sum of rows 952 and 2048
try:
    validate_ring(ring.add, mul, ring.zero, ring.one, neg=ring.neg)
    sys.exit("corrupt table accepted")
except RingValidationError as exc:
    print("proof:", exc)
rows = ring.mul[[1 << b for b in range(12)]]  # its bit-generator rows, copied
rows[11, 7] = 1  # 2048 * 7 is 0
try:
    bitwise_ring(field_top_bits(ring.add), rows, ring.one, ring.neg)
    sys.exit("corrupt generator row accepted")
except RingValidationError as exc:
    print("generator rows:", exc)
# a wrong neg entry, a wrong one and a corrupt generator row below the split
# at order 4096, where bitwise_ring leaves add and mul unfilled: its checks
# on the word formula and the quarter tables fail, and the whole-table
# fallback, on both tables filled, names the witness
import ringlab.core as core
whole = core.validate_ring
core.validate_ring = lambda add, mul, *a, **k: print("whole tables:", add.shape, mul.shape) or whole(add, mul, *a, **k)
rows, neg = ring.mul[[1 << b for b in range(12)]], ring.neg.copy()
neg[4095] = 0  # 4095 + 0 is not 0
low = rows.copy()
low[2, 9] = 0  # 4 * 9 is 36
for label, args in (("neg", (rows, ring.one, neg)), ("one", (rows, 2, ring.neg)), ("low row", (low, ring.one, ring.neg))):
    try:
        bitwise_ring(field_top_bits(ring.add), *args)
        sys.exit(f"wrong {label} accepted")
    except RingValidationError as exc:
        print(f"{label}:", exc)
core.validate_ring = whole
# mul corrupted after validation: 8*256 (E12 * 4E21) leaves J, and the
# pruning closes on {0}, short of the central nilpotents; 1*2 = 1 leaves
# an open fixpoint, and the slab search's J fails the ideal check
for cell, value in (((8, 256), 3161), ((1, 2), ring.one)):
    mul = ring.mul.copy()
    mul[cell] = value
    corrupt = TableRing(ring.order, ring.add, mul, ring.neg, ring.zero, ring.one, ring.name_of, ring.meta, ring.validation, ring.basis)
    try:
        compute_bundle(corrupt)
        sys.exit("corrupt table gave a radical")
    except RingError as exc:
        print("radical:", exc)
# mul corrupted after validation where only the lift of U reads it: u = 73
# ([[1,1],[1,0]]) has the inverse v = 3656, and v*u = 0 fails the
# certificate; u = 74 ([[2,1],[1,0]]) starts from the preimage 72, and
# u*72 = 0 makes x = 1 - u*72 = 1, whose squares never reach 0
for cell in ((3656, 73), (74, 72)):
    mul = ring.mul.copy()
    mul[cell] = ring.zero
    corrupt = TableRing(ring.order, ring.add, mul, ring.neg, ring.zero, ring.one, ring.name_of, ring.meta, ring.validation, ring.basis)
    try:
        compute_bundle(corrupt)
        sys.exit("corrupt table gave a unit group")
    except RingError as exc:
        print("units:", exc)
left = ElemSet.of(ring, ring.mul[:, matrix_unit_index(ring, 0, 0)])  # R*E11, a left ideal only
try:
    build_quotient(ring, left)
    sys.exit("one-sided ideal accepted")
except NotAnIdealError as exc:
    print("ideal:", exc)
"""


def test_internal_guards_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", GUARD_SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "bundle: inconsistent invariant bundle: 1 in U and 0 not in U" in proc.stdout
    assert "classify: classification bug: uj holds but ujsharp does not" in proc.stdout
    assert "derived: NotMultiplicative(10, 11)\n" in proc.stdout
    assert "proof: NonDistributive(7, 952, 2048)" in proc.stdout
    assert "generator rows: NonAssociative(2075, 3778, 7); NonDistributive(2075, 3778, 7); NonDistributive(7, 1721, 3168)\n" in proc.stdout
    whole = "whole tables: (4096, 4096) (4096, 4096)\n"
    assert f"{whole}neg: NotAbelianGroup(4095, 0)\n{whole}one: NoIdentity(1,)\n" in proc.stdout
    assert f"{whole}low row: NonAssociative(349, 9, 3243); NonDistributive(1007, 1520, 9); NonDistributive(9, 321, 903)\n" in proc.stdout
    assert "radical: inconsistent invariant bundle: Nil & Z <= J fails\n" in proc.stdout
    assert "radical: radical failed the ideal check at ('add', 4, 6)\n" in proc.stdout
    assert "units: unit lifted from R/J failed its inverse check at 73\n" in proc.stdout
    assert "units: unit lifted from R/J failed its inverse check at 74\n" in proc.stdout
    assert "ideal: generating set is not a two-sided ideal: ('right', 1, 8)" in proc.stdout


def assert_pairs_match_nonzero(ring, label):
    """The block scan against `np.nonzero(mul == one)` on the whole table."""
    got, want = product_one_pairs(ring), np.nonzero(ring.mul == ring.one)
    assert len(got) == 2 and all(g.dtype == w.dtype for g, w in zip(got, want)), label
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), label


def test_word_scan_matches_nonzero_on_rings(corpus_bundles):
    # a whole table of at most _CHUNK_CELLS cells (order <= 512) is read in one
    # step; the bitwise rings above order 512 keep quarter tables and are scanned
    # in blocks of rows, and so is a larger whole table (m(2,z(6)), 1296 x 1296)
    for text, ring, _ in corpus_bundles:
        assert_pairs_match_nonzero(ring, text)
    for text in ("z(3)", "z(27)", "m(2,z(6))", *BITWISE_RINGS):
        ring = compile_text(text)
        assert_pairs_match_nonzero(ring, text)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 11])
def test_word_scan_matches_nonzero_on_raw_tables(n, monkeypatch):
    # with blocks of 16 and 8 cells too, so row 0 of each block but the first
    # is offset; at 1 << 18 cells, and at 16 for n <= 4, the table is read in
    # one step
    from ringlab import subsets

    for chunk in (1 << 18, 16, 8):
        monkeypatch.setattr(subsets, "_CHUNK_CELLS", chunk)
        assert_word_scan_matches_nonzero_on_raw_tables(n)


def assert_word_scan_matches_nonzero_on_raw_tables(n):
    rng = np.random.default_rng(n)
    cases = {
        "none": np.zeros((n, n), dtype=np.int32),
        "a row of ones": np.zeros((n, n), dtype=np.int32),
        "last cell": np.zeros((n, n), dtype=np.int32),
        "scattered": rng.integers(0, 3, size=(n, n)).astype(np.int32),
    }
    cases["a row of ones"][n // 2, ::2] = 1
    cases["a row of ones"][0, 1:] = 1
    cases["last cell"][n - 1, n - 1] = 1
    for label, mul in cases.items():
        assert_pairs_match_nonzero(SimpleNamespace(mul=mul, mul_quarters=None, one=1, order=n), (n, label))
    assert not len(product_one_pairs(SimpleNamespace(mul=cases["none"], mul_quarters=None, one=1, order=n))[0])


SET_FIELDS = ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp", "prime_radical")


def test_r_mod_zero_shares_the_bundle_of_r(corpus_bundles, monkeypatch):
    from ringlab import checks, subsets
    from ringlab.construct import build_quotient

    semisimple = 0
    for text, ring, b in corpus_bundles:
        quotient, projection = build_quotient(ring, ElemSet.of(ring, [ring.zero]))
        assert quotient.add is ring.add and quotient.mul is ring.mul and quotient.neg is ring.neg, text
        assert quotient.validation == ring.validation and np.array_equal(projection, np.arange(ring.order)), text
        assert quotient.names == tuple(f"[{name}]" for name in ring.names), text
        shared, computed = b.on_copy(quotient), compute_bundle(quotient)
        for name in SET_FIELDS:
            got, want = getattr(shared, name), getattr(computed, name)
            assert got.ring is quotient and got.mask() is getattr(b, name).mask(), (text, name)
            assert np.array_equal(got.mask(), want.mask()), (text, name)
        if len(b.jacobson) == 1:
            semisimple += 1
            fresh = compute_bundle(ring)
            monkeypatch.setattr(subsets, "compute_bundle", None)  # R/J = R/{0} must not compute a bundle
            rq, _, qb = fresh.radical_quotient()
            monkeypatch.undo()
            assert rq.mul is ring.mul and qb.units.mask() is fresh.units.mask(), text
        monkeypatch.setattr(checks, "compute_bundle", None)  # neither may the {0} entry of the checks
        ctx = checks.CheckContext(ring, b)
        zero_ideal, zq, _ = ctx.radical_quotients()[0]
        assert len(zero_ideal) == 1 and ctx.bundle_of(zq).jsharp.mask() is b.jsharp.mask(), text
        monkeypatch.undo()
    assert semisimple >= 5
