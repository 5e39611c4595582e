import hashlib
import struct

import numpy as np
import pytest

from ringlab import ElemSet, OutOfCapError, compile_text, construct, core
from ringlab.checks import CheckContext, _ring_from_subset
from ringlab.construct import (
    GF_MODULI,
    Endomorphism,
    InvalidEndomorphismError,
    NotAnIdealError,
    NotIdempotentError,
    UnsupportedOrderError,
    ZeroCornerError,
    additive_closure,
    build_corner,
    build_gf,
    build_group_ring,
    build_matrix,
    build_product,
    build_quotient,
    build_triangular,
    build_trivial_extension,
    build_truncated_skew_poly,
    build_zmod,
    endomorphism_from_text,
    frobenius_endo,
    ideal_closure,
    identity_endo,
    matrix_unit_index,
    validate_endomorphism,
)
from ringlab.core import (
    GaloisMeta,
    GroupRingMeta,
    MatrixMeta,
    ProductMeta,
    SkewPolyMeta,
    TriangularMeta,
    TrivialExtMeta,
    bitwise_high_bits,
    field_top_bits,
    scan_axioms,
    validate_ring,
)
from ringlab.groups import cyclic, quaternion8
from ringlab.subsets import compute_bundle, is_two_sided_ideal

from ringtables import BITWISE_RINGS, CAP_RINGS, tables_equal


def brute_force_units(ring):
    """Independent unit scan: two-sided inverse by direct pair search."""
    out = set()
    for a in range(ring.order):
        for b in range(ring.order):
            if int(ring.mul[a, b]) == ring.one and int(ring.mul[b, a]) == ring.one:
                out.add(a)
                break
    return out


def test_zmod_basics():
    z2 = build_zmod(2)
    assert z2.order == 2 and z2.zero == 0 and z2.one == 1
    z8 = build_zmod(8)
    assert brute_force_units(z8) == {1, 3, 5, 7}


def test_zmod_unit_count_matches_euler_phi():
    # phi(12) = 4, cross-checked by the brute-force inverse search
    z12 = build_zmod(12)
    units = brute_force_units(z12)
    assert len(units) == 4
    assert units == {1, 5, 7, 11}


def test_zmod_range():
    with pytest.raises(ValueError):
        build_zmod(1)
    with pytest.raises(OutOfCapError):
        build_zmod(100, cap=64)


def test_gf_orders_and_units():
    assert tables_equal(build_gf(2), build_zmod(2))
    gf4 = build_gf(4)
    assert gf4.order == 4
    assert brute_force_units(gf4) == {1, 2, 3}
    # every nonidentity unit u has u - 1 invertible again
    for u in (2, 3):
        um1 = int(gf4.add[u, gf4.neg[1]])
        assert um1 in brute_force_units(gf4)
    for q in (8, 9):
        gfq = build_gf(q)
        assert gfq.order == q
        assert len(brute_force_units(gfq)) == q - 1


def test_gf_moduli_are_fixed():
    assert GF_MODULI[4] == (2, (1, 1, 1))
    gf4 = build_gf(4)
    assert gf4.names == ("0", "1", "a", "a+1")
    # a * a = a + 1 under x^2 + x + 1
    assert int(gf4.mul[2, 2]) == 3


def test_gf_unsupported():
    with pytest.raises(UnsupportedOrderError):
        build_gf(6)
    with pytest.raises(UnsupportedOrderError):
        build_gf(16)


def test_matrix_ring():
    m2 = build_matrix(build_zmod(2), 2)
    assert m2.order == 16
    u = 2 + 4 + 8  # [[0,1],[1,1]]
    assert u in brute_force_units(m2)
    assert len(brute_force_units(m2)) == 6  # |GL_2(F_2)|


def test_matrix_units_identity():
    for base, k in ((build_zmod(2), 2), (build_zmod(3), 2)):
        ring = build_matrix(base, k)
        for i in range(k):
            for j in range(k):
                for s in range(k):
                    for t in range(k):
                        eij = matrix_unit_index(ring, i, j)
                        est = matrix_unit_index(ring, s, t)
                        expected = matrix_unit_index(ring, i, t) if j == s else ring.zero
                        assert int(ring.mul[eij, est]) == expected


def test_triangular_ring():
    t2 = build_triangular(build_zmod(2), 2)
    assert t2.order == 8
    bundle = compute_bundle(t2)
    e12 = matrix_unit_index(t2, 0, 1)
    assert bundle.jacobson.indices() == (t2.zero, e12) == (0, 2)


def test_product_ring():
    boole = build_product([build_zmod(2), build_zmod(2)])
    assert boole.order == 4
    idx = np.arange(4)
    assert np.array_equal(boole.mul[idx, idx], idx)  # Boolean: x^2 = x
    mixed = build_product([build_zmod(2), build_gf(4)])
    assert mixed.order == 8
    assert len(brute_force_units(mixed)) == 3


def q2_gf_tables(q):
    """Oracle: the q^2 fill of gf(p^d) over coefficient tuples, one cell at a time."""
    p, modulus = GF_MODULI[q]
    d = len(modulus) - 1
    reduction = [(-m) % p for m in modulus[:-1]]  # x^d = -(m_0 + ... + m_{d-1} x^{d-1})

    def index(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def mul_polys(a, b):
        raw = [0] * (2 * d - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                raw[i + j] = (raw[i + j] + ca * cb) % p
        for k in range(2 * d - 2, d - 1, -1):
            for t, m in enumerate(reduction):
                raw[k - d + t] = (raw[k - d + t] + raw[k] * m) % p
        return raw[:d]

    elements = [[x // p**i % p for i in range(d)] for x in range(q)]
    add = [[index((ca + cb) % p for ca, cb in zip(a, b)) for b in elements] for a in elements]
    mul = [[index(mul_polys(a, b)) for b in elements] for a in elements]
    return add, mul, 0, 1, tuple(construct._poly_name(e) for e in elements)


def per_row_product_tables(factors):
    """Oracle: the product's tables filled row by row, componentwise over decoded factor digits."""
    order = int(np.prod([f.order for f in factors]))

    def decode(x):
        out = []
        for f in factors:
            x, r = divmod(x, f.order)
            out.append(r)
        return out

    def encode(parts):
        return sum(c * int(np.prod([f.order for f in factors[:i]])) for i, c in enumerate(parts))

    decoded = np.array([decode(x) for x in range(order)], dtype=np.int64)
    tables = []
    for kind in ("add", "mul"):
        out = np.zeros((order, order), dtype=np.int64)
        for a in range(order):
            comps = [getattr(f, kind)[decoded[a, i], decoded[:, i]] for i, f in enumerate(factors)]
            out[a] = encode(comps)
        tables.append(out)
    names = tuple("(" + ", ".join(f.names[c] for f, c in zip(factors, decoded[x])) + ")" for x in range(order))
    return tables[0], tables[1], 0, encode([f.one for f in factors]), names


@pytest.mark.parametrize(
    "text",
    [
        "gf(4)",
        "gf(8)",
        "gf(9)",
        "prod(z(6))",
        "prod(z(2),gf(4))",
        "prod(t(2,z(2)),z(3))",
        "prod(m(2,z(4)),z(16))",  # order 4096, built bitwise
    ],
)
def test_gf_and_product_match_their_former_fills(text):
    ring = compile_text(text)
    if isinstance(ring.meta, GaloisMeta):
        add, mul, zero, one, names = q2_gf_tables(ring.order)
    else:
        add, mul, zero, one, names = per_row_product_tables(list(ring.meta.factors))
    assert np.array_equal(ring.add, add) and np.array_equal(ring.mul, mul)
    assert (ring.zero, ring.one, ring.names) == (zero, one, names)

def test_ideal_closure_zmod():
    z8 = build_zmod(8)
    closed = ideal_closure(z8, ElemSet.of(z8, [2]), "two-sided")
    assert closed.indices() == (0, 2, 4, 6)


def test_ideal_closure_matrix():
    def fixpoint_oracle(ring, gens, left, right):
        members = {ring.zero} | set(gens)
        while True:
            new = set(members)
            for x in list(members):
                for y in members:
                    new.add(int(ring.add[x, y]))
                for r in range(ring.order):
                    if left:
                        new.add(int(ring.mul[r, x]))
                    if right:
                        new.add(int(ring.mul[x, r]))
            if new == members:
                return frozenset(members)
            members = new

    m2 = build_matrix(build_zmod(2), 2)
    e12 = matrix_unit_index(m2, 0, 1)
    two_sided = ideal_closure(m2, ElemSet.of(m2, [e12]), "two-sided")
    assert two_sided.members == fixpoint_oracle(m2, [e12], True, True)
    assert len(two_sided) == 16  # simple ring
    left = ideal_closure(m2, ElemSet.of(m2, [e12]), "left")
    assert left.members == fixpoint_oracle(m2, [e12], True, False)
    assert left.indices() == (0, 2, 8, 10)  # column ideal of order 4
    right = ideal_closure(m2, ElemSet.of(m2, [e12]), "right")
    assert right.members == fixpoint_oracle(m2, [e12], False, True)


def frontier_closure_oracle(ring, gens, side):
    """The one-frontier-element-at-a-time closure `ideal_closure` replaced."""
    members = {ring.zero, *gens}
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        new = set()
        arr = np.array(sorted(members), dtype=np.int64)
        new.update(int(v) for v in ring.add[x, arr])
        if side in ("left", "two-sided"):
            new.update(int(v) for v in ring.mul[:, x])
        if side in ("right", "two-sided"):
            new.update(int(v) for v in ring.mul[x, :])
        fresh = new - members
        members |= fresh
        frontier.extend(fresh)
        if len(members) == ring.order:
            break
    return additive_closure(ring, members).members


def test_ideal_closure_matches_the_frontier_loop(corpus_bundles):
    # every element at order <= 16 (the O-nilstar oracle's principal
    # ideals), every element of J at order <= 64 (the radical ideals)
    closed = 0
    for text, ring, bundle in corpus_bundles:
        if ring.order <= 16:
            gens = [[a] for a in range(ring.order)]
        elif ring.order <= 64:
            gens = [[j] for j in bundle.jacobson]
        else:
            continue
        gens.append(sorted(bundle.idempotents.members)[:3])
        for side in ("left", "right", "two-sided"):
            for g in gens:
                want = frontier_closure_oracle(ring, g, side)
                assert ideal_closure(ring, ElemSet.of(ring, g), side).members == want, (text, g, side)
                closed += 1
    assert closed > 800


def test_quotient_z8():
    z8 = build_zmod(8)
    ideal = ideal_closure(z8, ElemSet.of(z8, [4]), "two-sided")
    quotient, projection = build_quotient(z8, ideal)
    assert quotient.order == 4
    assert projection[0] == projection[4]
    jac = compute_bundle(z8).jacobson
    small, _ = build_quotient(z8, jac)
    assert small.order == 2


def test_quotient_t2_is_boolean():
    t2 = build_triangular(build_zmod(2), 2)
    bundle = compute_bundle(t2)
    quotient, _ = build_quotient(t2, bundle.jacobson)
    assert quotient.order == 4
    idx = np.arange(4)
    assert np.array_equal(quotient.mul[idx, idx], idx)


def test_quotient_rejects_non_ideals():
    z8 = build_zmod(8)
    with pytest.raises(NotAnIdealError) as err:
        build_quotient(z8, ElemSet.of(z8, [0, 1]))
    assert str(err.value) == "generating set is not a two-sided ideal: ('add', 1, 1)"
    m2 = build_matrix(build_zmod(2), 2)
    jsharp = compute_bundle(m2).jsharp
    ok, witness = is_two_sided_ideal(m2, jsharp)
    assert not ok and witness is not None
    with pytest.raises(NotAnIdealError) as err:
        build_quotient(m2, jsharp)
    assert str(err.value) == f"generating set is not a two-sided ideal: {witness}"


def test_quotient_by_whole_ring_rejected():
    from ringlab.construct import ImproperIdealError

    z8 = build_zmod(8)
    everything = ideal_closure(z8, ElemSet.of(z8, [1]), "two-sided")
    assert len(everything) == 8
    with pytest.raises(ImproperIdealError):
        build_quotient(z8, everything)


def test_quotient_by_zero_is_identity():
    z8 = build_zmod(8)
    quotient, projection = build_quotient(z8, ElemSet.of(z8, [0]))
    assert tables_equal(quotient, z8)
    assert np.array_equal(projection, np.arange(8))


def test_unit_counts_saturate_radical_fibers(corpus_bundles):
    # |U(R/I)| = |U(R)| / |I| whenever I sits inside J, over the whole corpus
    for text, ring, bundle in corpus_bundles:
        for members in ({ring.zero}, bundle.jacobson.members):
            ideal = ElemSet.of(ring, members)
            quotient, _ = build_quotient(ring, ideal)
            qunits = compute_bundle(quotient).units
            assert len(qunits) * len(ideal) == len(bundle.units), text


def per_cell_ring(ring, elems, back, one, names):
    """Re-index through a dict back-map, one table cell at a time: the
    oracle for the derived-ring builders' shared table gather."""
    m = len(elems)
    add = np.zeros((m, m), dtype=np.int32)
    mul = np.zeros((m, m), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            add[i, j] = back[int(ring.add[p, q])]
            mul[i, j] = back[int(ring.mul[p, q])]
    return validate_ring(add, mul, back[ring.zero], back[one], names=names)


def assert_same_ring(got, want, text):
    assert tables_equal(got, want), text
    assert (got.names, got.zero, got.one) == (want.names, want.zero, want.one), text


def test_reindexed_rings_match_the_per_cell_oracle(corpus_bundles):
    corners = 0
    for text, ring, b in corpus_bundles:
        n = ring.order
        for e in sorted(b.idempotents.members - {ring.zero}):
            elems = sorted({int(ring.mul[ring.mul[e, x], e]) for x in range(n)})
            back = {p: i for i, p in enumerate(elems)}
            corner, embedding = build_corner(ring, e)
            assert_same_ring(corner, per_cell_ring(ring, elems, back, e, [ring.names[p] for p in elems]), text)
            assert embedding.tolist() == elems and corner.meta.embedding is embedding, text
            corners += 1
        elems = sorted(b.center.members)
        back = {p: i for i, p in enumerate(elems)}
        centre = per_cell_ring(ring, elems, back, ring.one, [ring.names[p] for p in elems])
        assert_same_ring(_ring_from_subset(ring, b.center), centre, text)
        for ideal in ({ring.zero}, b.jacobson.members):
            cosets = sorted({frozenset(int(ring.add[x, i]) for i in ideal) for x in range(n)}, key=min)
            back = {x: k for k, coset in enumerate(cosets) for x in coset}
            reps = [min(coset) for coset in cosets]
            want = per_cell_ring(ring, reps, back, ring.one, [f"[{ring.names[r]}]" for r in reps])
            quotient, projection = build_quotient(ring, ElemSet.of(ring, ideal))
            assert_same_ring(quotient, want, text)
            assert projection.tolist() == [back[x] for x in range(n)], text
            assert quotient.meta.projection is projection, text
    assert corners == 88


def test_quotient_cosets_past_one_slab_of_the_ideal():
    # |J| = 128 and 1024: the smallest member of each coset is taken over
    # several 64-row slabs of add[J]
    for text in ("t(2,z(8))", "t(2,z(16))"):
        ring = compile_text(text)
        jac = compute_bundle(ring).jacobson
        quotient, projection = build_quotient(ring, jac)
        reps, want = np.unique(ring.add[jac.index_array()].min(axis=0), return_inverse=True)
        assert projection.tolist() == want.tolist(), text
        assert quotient.names == tuple(f"[{ring.name_of(int(r))}]" for r in reps), text


def test_corner_at_identity_is_the_ring():
    m2 = build_matrix(build_zmod(2), 2)
    corner, embedding = build_corner(m2, m2.one)
    assert tables_equal(corner, m2)
    assert np.array_equal(embedding, np.arange(16))


def test_corner_at_e11():
    m2 = build_matrix(build_zmod(2), 2)
    e11 = matrix_unit_index(m2, 0, 0)
    corner, embedding = build_corner(m2, e11)
    assert corner.order == 2
    assert set(map(int, embedding)) == {0, e11}
    t2 = build_triangular(build_zmod(2), 2)
    ce, _ = build_corner(t2, matrix_unit_index(t2, 0, 0))
    assert ce.order == 2


def test_corner_errors():
    z8 = build_zmod(8)
    with pytest.raises(NotIdempotentError):
        build_corner(z8, 2)
    with pytest.raises(ZeroCornerError):
        build_corner(z8, 0)


def test_trivial_extension():
    t = build_trivial_extension(build_zmod(2))
    assert t.order == 4
    x = 1  # (0, 1)
    assert int(t.mul[x, x]) == t.zero  # x^2 = 0
    z4 = build_zmod(4)
    t4 = build_trivial_extension(z4)
    units = brute_force_units(t4)
    assert units == {r * 4 + m for r in (1, 3) for m in range(4)}  # U(T(R,R)) = T(U(R), R)


def test_group_ring_f2c2():
    ring = build_group_ring(build_zmod(2), cyclic(2))
    assert ring.order == 4
    bundle = compute_bundle(ring)
    assert bundle.jacobson.indices() == (0, 3)  # {0, 1+g}
    one_plus_g = 3
    assert int(ring.mul[one_plus_g, one_plus_g]) == ring.zero


def test_group_ring_trivial_group_is_base():
    z4 = build_zmod(4)
    ring = build_group_ring(z4, cyclic(1))
    assert tables_equal(ring, z4)


def test_group_ring_q8_order():
    ring = build_group_ring(build_zmod(2), quaternion8())
    assert ring.order == 256
    assert ring.validation == "exhaustive" and ring.basis == tuple(1 << b for b in range(8))


def test_group_ring_with_nonzero_identity_index():
    from ringlab.groups import group_from_text

    # C3 presented with its identity at index 1
    g = group_from_text("order 3\nidentity 1\n2 0 1\n0 1 2\n1 2 0\n")
    ring = build_group_ring(build_zmod(2), g)
    assert ring.order == 8
    assert ring.one == 2  # coefficient 1 on the identity group element
    bundle = compute_bundle(ring)
    # canonical embedding r -> r * |R|^identity meets J(RG) in J(R) = {0}
    embedded = {r * 2**g.identity for r in range(2)}
    assert embedded & bundle.jacobson.members == {0}


def test_skew_poly_k1_is_base():
    gf4 = build_gf(4)
    ring = build_truncated_skew_poly(gf4, identity_endo(gf4), 1)
    assert tables_equal(ring, gf4)


def test_skew_poly_frobenius_relation():
    gf4 = build_gf(4)
    frob = frobenius_endo(gf4)
    ring = build_truncated_skew_poly(gf4, frob, 2)
    x = gf4.order  # coefficient 1 at degree 1
    for a in range(gf4.order):
        assert int(ring.mul[x, a]) == int(ring.mul[int(frob.map[a]), x])


def test_poly_quotient_matches_trivial_extension_invariants():
    z2 = build_zmod(2)
    poly = build_truncated_skew_poly(z2, identity_endo(z2), 2)
    triv = build_trivial_extension(z2)
    assert poly.order == triv.order
    assert len(brute_force_units(poly)) == len(brute_force_units(triv))


def test_frobenius_requires_galois_field():
    with pytest.raises(InvalidEndomorphismError):
        frobenius_endo(build_zmod(6))


def test_validate_endomorphism_rejects_non_hom():
    z4 = build_zmod(4)
    with pytest.raises(InvalidEndomorphismError):
        validate_endomorphism(z4, [0, 1, 3, 2])  # 2 -> 3 breaks additivity
    ident = validate_endomorphism(z4, [0, 1, 2, 3])
    assert isinstance(ident, Endomorphism)


def test_validate_endomorphism_rejects_images_that_would_wrap():
    # each bad image is the identity's image of 3 plus a multiple of 2^16 or 2^32, or
    # negative; a narrowing cast before the range check would accept the identity
    z4 = build_zmod(4)
    for bad in (3 + 2**16, 3 + 2**32, -1, -(2**32) + 3):
        for images in ([0, 1, 2, bad], np.array([0, 1, 2, bad], dtype=np.int64)):
            with pytest.raises(InvalidEndomorphismError, match="image out of range"):
                validate_endomorphism(z4, images)
    assert validate_endomorphism(z4, np.arange(4)).map.dtype == np.uint16


def test_endomorphism_file_format():
    gf4 = build_gf(4)
    frob = frobenius_endo(gf4)
    text = "order 4\n" + "\n".join(f"{i} -> {int(frob.map[i])}" for i in range(4))
    parsed = endomorphism_from_text(gf4, text)
    assert np.array_equal(parsed.map, frob.map)
    with pytest.raises(InvalidEndomorphismError):
        endomorphism_from_text(gf4, "order 3\n0 -> 0")


def check_alpha_compatible(ring, alpha):
    """True iff a*b = 0 exactly when a*alpha(b) = 0, else a witness pair."""
    zero_ab = ring.mul == ring.zero
    zero_aalpha = ring.mul[:, alpha.map] == ring.zero
    diff = np.argwhere(zero_ab != zero_aalpha)
    if len(diff):
        a, b = map(int, diff[0])
        return False, (a, b)
    return True, None


def test_alpha_compatibility():
    gf4 = build_gf(4)
    ok, witness = check_alpha_compatible(gf4, identity_endo(gf4))
    assert ok and witness is None
    ok, witness = check_alpha_compatible(gf4, frobenius_endo(gf4))
    assert ok
    # swap endomorphism on Z/2 x Z/2 is not compatible
    boole = build_product([build_zmod(2), build_zmod(2)])
    swap = validate_endomorphism(boole, [0, 2, 1, 3])
    ok, witness = check_alpha_compatible(boole, swap)
    assert not ok
    a, b = witness
    lhs_zero = int(boole.mul[a, b]) == boole.zero
    rhs_zero = int(boole.mul[a, int(swap.map[b])]) == boole.zero
    assert lhs_zero != rhs_zero
    assert (a, b) == (1, 1)  # (1,0) * (1,0) = (1,0) but (1,0) * (0,1) = 0


def test_caps_respected():
    z2 = build_zmod(2)
    with pytest.raises(OutOfCapError):
        build_matrix(z2, 4, cap=4096 - 1)  # 2^16 > cap
    with pytest.raises(OutOfCapError):
        build_group_ring(build_zmod(4), cyclic(8), cap=4096)


def test_every_builder_output_is_validated():
    for text in ("z(6)", "gf(9)", "m(2,z(2))", "t(2,z(2))", "prod(z(2),z(3))", "triv(z(2))", "poly(z(2),3)"):
        ring = compile_text(text)
        assert ring.validation == "exhaustive"


def definitional_ring(ring):
    """Oracle for the digit-vector builders: every product computed element by element.

    Decodes both factors into base-ring digits, multiplies them with the
    base ring's tables by the construction's own formula, and encodes the
    result; the identity is read off the resulting table.
    """
    meta = ring.meta
    base = meta.base
    badd, bmul = base.add.tolist(), base.mul.tolist()

    def total(terms):
        acc = base.zero
        for t in terms:
            acc = badd[acc][t]
        return acc

    if isinstance(meta, (MatrixMeta, TriangularMeta)):
        k = meta.size
        positions = getattr(meta, "positions", [(i, j) for i in range(k) for j in range(k)])

        def product(a, b):
            ca, cb = dict(zip(positions, a)), dict(zip(positions, b))
            return [total(bmul[ca.get((i, l), 0)][cb.get((l, j), 0)] for l in range(k)) for i, j in positions]

        width = len(positions)
    elif isinstance(meta, GroupRingMeta):
        op, width = meta.group.op.tolist(), meta.group.order

        def product(a, b):
            out = [base.zero] * width
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[op[i][j]] = badd[out[op[i][j]]][bmul[ai][bj]]
            return out

    elif isinstance(meta, SkewPolyMeta):
        width = meta.k
        alpha_pow = [list(range(base.order))]
        for _ in range(1, width):
            alpha_pow.append([int(meta.endo_map[x]) for x in alpha_pow[-1]])

        def product(a, b):  # (a_i x^i)(b_j x^j) = a_i alpha^i(b_j) x^(i+j)
            out = [base.zero] * width
            for i, ai in enumerate(a):
                for j, bj in enumerate(b[: width - i]):
                    out[i + j] = badd[out[i + j]][bmul[ai][alpha_pow[i][bj]]]
            return out

    else:
        assert isinstance(meta, TrivialExtMeta)
        width = 2

        def product(a, b):  # digits are (m, r): (r,m)(s,n) = (rs, rn + ms)
            (m, r), (n, s) = a, b
            return [badd[bmul[r][n]][bmul[m][s]], bmul[r][s]]

    def encode(digits):
        return sum(d * base.order**w for w, d in enumerate(digits))

    elems = [[x // base.order**w % base.order for w in range(width)] for x in range(base.order**width)]
    add = np.array([[encode(badd[p][q] for p, q in zip(a, b)) for b in elems] for a in elems])
    mul = np.array([[encode(product(a, b)) for b in elems] for a in elems])
    idx = np.arange(len(elems))
    (one,) = np.flatnonzero((mul == idx).all(axis=1) & (mul.T == idx).all(axis=1))
    return validate_ring(add, mul, 0, int(one))


@pytest.mark.parametrize(
    "text",
    [
        "m(2,z(3))",
        "t(3,z(2))",
        "m(2,gf(4))",
        "group(z(2),d(3))",
        "group(m(2,z(2)),c(2))",
        "group(z(4),c(3))",
        "poly(z(4),3)",
        "skew(gf(4),frob,3)",
        "triv(m(2,z(2)))",
        "triv(z(6))",
    ],
)
def test_digit_vector_builder_matches_definitional_product(text):
    ring = compile_text(text)
    assert tables_equal(ring, definitional_ring(ring))


@pytest.mark.parametrize(
    "text, prefix",
    [
        ("t(2,z(16))", "5479323f94197daf"),
        ("m(2,z(8))", "b8ec8debaa807511"),
        ("group(z(2),c(12))", "b27c31c6ce737fc3"),
        ("group(z(3),d(3))", "44770eb5d244da97"),
        ("triv(m(2,z(2)))", "afc2e5d8b41f7f97"),
        ("skew(gf(4),frob,3)", "70911f37071c16c5"),
        ("corner(m(3,z(2)),17)", "f030b5349ec595b9"),
        ("quot(t(2,z(4)),[4])", "5942bb68c1bf638d"),
        ("m(2,gf(8))", "8aaa0511cd579be3"),
        ("group(gf(4),c(6))", "22e7b570499c7c4a"),
    ],
)
def test_element_encodings_are_pinned(text, prefix):
    # witnesses index elements, so these tables must never drift; the digest is
    # taken here over the tables as little-endian int32, independent of the
    # dtype the ring stores them in and of the cache's checksum
    ring = compile_text(text)
    h = hashlib.sha256(struct.pack("<IIII", ring.order, ring.zero, ring.one, 0))
    h.update(np.ascontiguousarray(ring.add, dtype="<i4"))
    h.update(np.ascontiguousarray(ring.mul, dtype="<i4"))
    assert h.hexdigest()[:16] == prefix


def test_matrix_monomials_keep_noncommutative_coefficient_order():
    # (c E_ij)(d E_jl) = (cd) E_il with cd != dc in the base; too large for the oracle above
    base = build_triangular(build_zmod(2), 2)
    ring = build_triangular(base, 2)
    positions = list(ring.meta.positions)
    r = base.order
    assert (base.mul != base.mul.T).any()
    for w, (i, j) in enumerate(positions):
        for v, (j2, l) in enumerate(positions):
            for c in range(r):
                for d in range(r):
                    expected = int(base.mul[c, d]) * r ** positions.index((i, l)) if j == j2 else 0
                    assert int(ring.mul[c * r**w, d * r**v]) == expected


@pytest.mark.parametrize(
    "text, high",
    [
        ("z(2)", 0b1),
        ("z(4)", 0b10),
        ("z(16)", 0b1000),
        ("gf(4)", 0b11),
        ("gf(8)", 0b111),
        ("t(2,z(2))", 0b111),
        ("triv(z(4))", 0b1010),
        ("m(2,z(2))", 0b1111),
        # fields of mixed widths: z(2) in bit 0 and z(4) in bits 1-2, and the reverse
        ("prod(z(2),z(4))", 0b101),
        ("prod(z(4),z(2))", 0b110),
        ("prod(z(4),gf(8))", 0b11110),
    ],
)
def test_bitwise_addition_is_detected(text, high):
    ring = compile_text(text)
    assert bitwise_high_bits(ring.add) == high
    i = np.arange(ring.order)
    low = i & ~high
    assert np.array_equal((low[:, None] + low[None, :]) ^ ((i[:, None] ^ i[None, :]) & high), ring.add)


@pytest.mark.parametrize("text, calls", [("m(2,z(2))", 1), ("prod(z(2),z(4))", 2)])
def test_the_bitwise_test_runs_once_per_distinct_base(text, calls, monkeypatch):
    tested = []
    detect = construct.bitwise_high_bits
    monkeypatch.setattr(construct, "bitwise_high_bits", lambda add: tested.append(add) or detect(add))
    compile_text(text)
    assert len(tested) == calls


def relabelled_z4():
    # z(4) with the labels of 2 and 3 swapped: index 1 still has additive order 4
    perm = np.array([0, 1, 3, 2])
    z4 = build_zmod(4)
    return validate_ring(perm[z4.add[np.ix_(perm, perm)]], perm[z4.mul[np.ix_(perm, perm)]], 0, 1)


def relabelled_z8():
    # z(8) with the labels of 3 and 5 swapped: every 2^b + 2^b is still 2^(b+1)
    # or 0, so only the whole-table compare rejects it
    perm = np.array([0, 1, 2, 5, 4, 3, 6, 7])
    z8 = build_zmod(8)
    return validate_ring(perm[z8.add[np.ix_(perm, perm)]], perm[z8.mul[np.ix_(perm, perm)]], 0, 1)


@pytest.mark.parametrize("text", ["z(3)", "z(6)", "z(9)", "gf(9)", "relabelled z(4)", "relabelled z(8)"])
def test_bitwise_addition_is_rejected(text):
    relabelled = {"relabelled z(4)": relabelled_z4, "relabelled z(8)": relabelled_z8}
    ring = relabelled[text]() if text in relabelled else compile_text(text)
    assert bitwise_high_bits(ring.add) is None
    if text == "relabelled z(8)":
        assert field_top_bits(ring.add) == 0b100


DIGIT_VECTOR_METAS = (MatrixMeta, TriangularMeta, GroupRingMeta, SkewPolyMeta, TrivialExtMeta)


def digit_bases(ring):
    """The base ring of each digit of a digit-vector ring, or None for any other ring."""
    meta = ring.meta
    if isinstance(meta, ProductMeta):
        return list(meta.factors)
    if isinstance(meta, GaloisMeta) and meta.degree > 1:
        return [build_zmod(meta.char)] * meta.degree
    if isinstance(meta, DIGIT_VECTOR_METAS):
        width = round(np.log(ring.order) / np.log(meta.base.order))
        assert meta.base.order**width == ring.order
        return [meta.base] * width
    return None


def is_bitwise(bases):
    return len(bases) > 1 and all(bitwise_high_bits(base.add) is not None for base in bases)


def test_bitwise_row_extension_matches_the_gather(corpus_bundles, monkeypatch):
    # the tables built from the generator rows equal the gathered ones, on every
    # digit-vector ring of the corpus, BITWISE_RINGS and a few more; and the
    # whole-table proof (above order 64) or the n^3 scan (up to 64) accepts them
    rings = [(text, ring) for text, ring, _ in corpus_bundles if digit_bases(ring)]
    bitwise = [text for text, ring in rings if is_bitwise(digit_bases(ring))]
    assert 0 < len(bitwise) < len(rings)  # the corpus exercises both forms
    extended = []
    build = construct.bitwise_ring
    monkeypatch.setattr(construct, "bitwise_ring", lambda high, rows, *args: extended.append(1 << len(rows)) or build(high, rows, *args))
    extra = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "m(2,gf(8))", "group(z(4),c(6))", "prod(z(4),gf(8),z(2))")
    for text in extra:
        compile_text(text)
    # gf(8) is itself built bitwise, over three z(2) digits, inside m(2,gf(8)) and the product
    assert extended == [4096, 4096, 4096, 8, 4096, 4096, 8, 64]
    # one ring at a time, so that at most two order-4096 rings are held
    for text in [text for text, _ in rings] + list(dict.fromkeys(extra + BITWISE_RINGS)):
        ring = compile_text(text)
        if is_bitwise(digit_bases(ring)):
            assert scan_axioms(ring.add, ring.mul, ring.zero, ring.one, ring.neg) == ([], "exhaustive"), text
        with monkeypatch.context() as patch:
            patch.setattr(construct, "bitwise_high_bits", lambda add: None)
            assert tables_equal(ring, compile_text(text)), text


def bit_row_blocks(n):
    """The extension blocks (x, lo, hi) over the bit rows of order n: rows
    x + lo .. x + hi - 1 are rows lo .. hi - 1 plus row x = 2^b."""
    rows = max(1, construct._CHUNK_CELLS // n)
    return [(g, lo, min(g, lo + rows)) for g in (1 << b for b in range(n.bit_length() - 1)) for lo in range(1, g, rows)]


def test_16_bit_swar_fills_match_the_gather_forms(monkeypatch):
    # on every build over bitwise bases, the uint16 SWAR extension of mul over the
    # generator rows equals _extend_by_gather over the same rows and the same add,
    # and the uint16 word formula for add equals the np.take fill
    build, orders, latest = construct.bitwise_ring, [], []

    def checked_build(high, generator_rows, *args):
        ring = build(high, generator_rows, *args)
        gathered = np.zeros_like(ring.mul)
        gathered[[1 << b for b in range(len(generator_rows))]] = generator_rows
        construct._extend_by_gather(ring.add, gathered, bit_row_blocks(ring.order))
        assert ring.mul.dtype == ring.add.dtype == gathered.dtype == np.uint16
        assert np.array_equal(ring.mul, gathered)
        orders.append(ring.order)
        latest[:] = [ring]  # only the latest ring is held, not every order-4096 one
        return ring

    monkeypatch.setattr(construct, "bitwise_ring", checked_build)
    for text in BITWISE_RINGS:
        before = len(orders)
        ring = compile_text(text)
        assert len(orders) > before and latest[0] is ring, text  # the outermost build was bitwise, and is the ring
        assert np.array_equal(ring.add, take_filled_add(digit_bases(ring))), text
    assert orders.count(4096) >= 6


@pytest.mark.parametrize("high", [0x8000, 0xFFFF, 0xAAAA, 0x8888, 0x8080, 0x8000 | 0x0888, 0x8000 | 0x0001])
def test_swar_extension_keeps_every_field_inside_its_16_bit_lane(high):
    # random rows over the full 16-bit range, so the top field reaches bit 15 (an
    # order-65536 index) and ~high must be cut to 16 bits; compared with the formula in int64
    rng = np.random.default_rng(high)
    mul = rng.integers(0, 1 << 16, size=(4, 4096), dtype=np.uint16)
    a, b = mul[1].astype(np.int64), mul[2].astype(np.int64)
    low = 0xFFFF & ~high
    want = ((a & low) + (b & low)) ^ ((a ^ b) & high)
    core._extend_bitwise(mul, high)  # of the rows of order 4, row 3 = row 1 + row 2
    assert want.max() < 1 << 16 and np.array_equal(mul[3], want)


def test_every_table_is_uint16_read_only_and_contiguous(corpus_bundles):
    # the rings of the corpus and the cap, and the R/J, R/I and corner rings their
    # checks build
    rings = [(text, ring, bundle) for text, ring, bundle in corpus_bundles]
    rings += [(text, ring, compute_bundle(ring)) for text, ring in ((t, compile_text(t)) for t in CAP_RINGS)]
    seen = 0
    for text, ring, bundle in rings:
        ctx = CheckContext(ring, bundle)
        derived = [ring, ctx.radical_quotient()[0]]
        derived += [quotient for _, quotient, _ in ctx.radical_quotients()]
        derived += [corner for _, corner, _ in ctx.corners()]
        for r in derived:
            for table in (r.add, r.mul, r.neg):
                assert table.dtype == np.uint16, (text, r)
                assert not table.flags.writeable and table.flags.c_contiguous, (text, r)
            seen += 1
    assert seen > 3 * len(rings)


def test_builders_pass_the_negation_the_argmax_derives(corpus_bundles, monkeypatch):
    rings = [(text, ring) for text, ring, _ in corpus_bundles if digit_bases(ring)]
    given = []
    validate, build = construct.validate_ring, construct.bitwise_ring
    monkeypatch.setattr(construct, "validate_ring", lambda *a, **k: given.append(k.get("neg") is not None) or validate(*a, **k))
    monkeypatch.setattr(construct, "bitwise_ring", lambda *a: given.append(a[3] is not None) or build(*a))
    gf_and_products = ("gf(4)", "gf(5)", "gf(8)", "gf(9)", "prod(z(6))", "prod(z(2),gf(4))", "prod(t(2,z(2)),z(3))")
    for text in CAP_RINGS + ("m(2,gf(8))", "group(z(9),c(3))", "group(z(3),d(3))") + gf_and_products + ("prod(m(2,z(4)),z(16))",):
        rings.append((text, compile_text(text)))
        assert given.pop(), text  # the outermost build passed its neg
    assert len(rings) > 20
    for text, ring in rings:
        # the derivation validate_ring makes when no neg is given
        assert np.array_equal(ring.neg, np.argmax(ring.add == ring.zero, axis=1)), text


def take_filled_add(bases):
    """The addition table as the builder filled it over every base: the
    monomial rows c*e_w, then each row x' + c*e_w as add[x'][add[c*e_w]],
    one `np.take` per block."""
    radices = [base.order for base in bases]
    place = [int(np.prod(radices[:w])) for w in range(len(radices) + 1)]
    order = place[-1]
    digits = np.arange(order)[:, None] // np.array(place[:-1]) % np.array(radices)
    add = np.empty((order, order), dtype=np.int32)
    add[0] = np.arange(order)
    for w, base in enumerate(bases):
        for c in range(1, base.order):
            add[c * place[w]] = np.arange(order) + (base.add[c, digits[:, w]] - digits[:, w]) * place[w]
    rows = max(1, construct._CHUNK_CELLS // order)
    for w, base in enumerate(bases):
        for c in range(1, base.order):
            x = c * place[w]
            for lo in range(1, place[w], rows):
                hi = min(place[w], lo + rows)
                np.take(add[lo:hi], add[x], axis=1, out=add[x + lo : x + hi])
    return add


def test_bitwise_add_formula_matches_the_take_fill(corpus_bundles, monkeypatch):
    rings = [(text, ring) for text, ring, _ in corpus_bundles if digit_bases(ring)]
    filled = []
    build = construct.bitwise_ring
    monkeypatch.setattr(construct, "bitwise_ring", lambda high, rows, *args: filled.append(1 << len(rows)) or build(high, rows, *args))
    # group(triv(z(4)),c(2)): H over a digit-vector base; the product: H over bases of different field widths
    extra = CAP_RINGS + ("m(2,gf(8))", "group(triv(z(4)),c(2))", "prod(z(4),gf(8),z(2))")
    rings += [(text, compile_text(text)) for text in extra]
    assert filled == [4096, 4096, 4096, 8, 4096, 16, 256, 8, 64]  # gf(8) and triv(z(4)) are built bitwise too
    bitwise = 0
    for text, ring in rings:
        bases = digit_bases(ring)
        bitwise += is_bitwise(bases)
        assert np.array_equal(ring.add, take_filled_add(bases)), text
    assert bitwise > len(extra)  # the corpus has bitwise digit-vector rings of its own
