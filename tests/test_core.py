import ast
import random
from pathlib import Path

import numpy as np
import pytest

from ringlab import (
    ElemSet,
    RingValidationError,
    compile_text,
    elem_add,
    elem_mul,
    elem_neg,
    elem_pow,
    elem_sub,
    power_orbit,
    validate_ring,
)
from ringlab import core
from ringlab import construct
from ringlab.construct import build_matrix, build_quotient, build_zmod, matrix_unit_index
from ringlab.core import (
    MAX_TABLE_ORDER,
    ElementIndexError,
    TableRing,
    Violation,
    _generator_relations,
    _prove_bitwise,
    all_digits,
    bitwise_ring,
    encode_digits,
    field_top_bits,
    rows_equal_columns,
    scan_axioms,
    sums,
)

from ringtables import BITWISE_RINGS, bitwise_add_formula


def raw_zmod_tables(n):
    idx = list(range(n))
    add = [[(a + b) % n for b in idx] for a in idx]
    mul = [[(a * b) % n for b in idx] for a in idx]
    return add, mul


def test_validate_z2():
    add, mul = raw_zmod_tables(2)
    ring = validate_ring(add, mul, 0, 1)
    assert ring.order == 2
    assert ring.validation == "exhaustive"


def test_validate_corrupted_z4_reports_axiom_witness():
    add, mul = raw_zmod_tables(4)
    mul[2][2] = 1  # corrupt one product
    with pytest.raises(RingValidationError) as err:
        validate_ring(add, mul, 0, 1)
    kinds = {v.kind for v in err.value.violations}
    assert kinds & {"NonDistributive", "NonAssociative"}
    # re-evaluate the reported witness against the mutated tables directly
    for violation in err.value.violations:
        if violation.kind == "NonAssociative":
            a, b, c = violation.witness
            assert mul[mul[a][b]][c] != mul[a][mul[b][c]]
        if violation.kind == "NonDistributive":
            a, b, c = violation.witness
            left_broken = mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
            right_broken = mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]
            assert left_broken or right_broken


def test_validate_rejects_zero_ring():
    with pytest.raises(RingValidationError) as err:
        validate_ring([[0]], [[0]], 0, 0)
    assert err.value.violations[0].kind == "ZeroRing"


def test_validate_rejects_equal_zero_one():
    add, mul = raw_zmod_tables(4)
    with pytest.raises(RingValidationError) as err:
        validate_ring(add, mul, 0, 0)
    assert err.value.violations[0].kind == "ZeroRing"


def test_validate_rejects_noncommutative_addition():
    add, mul = raw_zmod_tables(3)
    add[1][2] = 1
    with pytest.raises(RingValidationError) as err:
        validate_ring(add, mul, 0, 1)
    # the row-major first (a, b) with a + b != b + a; (2, 1) is the mirror
    assert err.value.violations[0] == Violation("NotAbelianGroup", (1, 2))


@pytest.mark.parametrize("n", [4, 130])
def test_validate_rejects_a_row_without_zero(n):
    # 2 + (n-2) becomes 1, kept symmetric: row 2 alone lacks zero at n = 4, rows 2 and 128
    # at n = 130; the first such row is the witness, with the given neg's entry when neg is passed
    add, mul = (np.array(t) for t in raw_zmod_tables(n))
    add[2, n - 2] = add[n - 2, 2] = 1
    assert np.flatnonzero(~(add == 0).any(axis=1)).tolist() == sorted({2, n - 2})
    neg = (-np.arange(n)) % n
    for given, witness in ((None, (2,)), (neg, (2, n - 2))):
        violations, _ = scan_axioms(add, mul, 0, 1, given)
        assert Violation("NotAbelianGroup", witness) in violations
        with pytest.raises(RingValidationError) as err:
            validate_ring(add, mul, 0, 1, neg=given)
        assert Violation("NotAbelianGroup", witness) in err.value.violations


def test_noncommutative_addition_witness_on_the_sampled_path():
    # order 130 is past the exhaustive limit, and the bad entries sit past
    # column 64, so the slab compare crosses a slab edge; the row-major
    # witness (3, 100) is not the column-major one (100, 3)
    add, mul = (np.array(t) for t in raw_zmod_tables(130))
    add[3, 100] = 5
    add[70, 5] = 9
    violations, mode = scan_axioms(add, mul, 0, 1)
    assert mode == "sampled"
    assert violations[0] == Violation("NotAbelianGroup", tuple(map(int, np.argwhere(add != add.T)[0])))
    assert violations[0].witness == (3, 100)
    with pytest.raises(RingValidationError) as err:
        validate_ring(add, mul, 0, 1)
    assert err.value.violations[0] == violations[0]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_rows_equal_columns_matches_the_transpose_compare(n):
    rng = np.random.default_rng(n)
    for trial in range(4):
        table = rng.integers(0, 5, size=(n, n))
        table = np.triu(table) + np.triu(table, 1).T  # symmetric
        for _ in range(trial * 3):  # then break a few rows
            i, j = rng.integers(0, n, size=2)
            table[i, j] += 1
        assert np.array_equal(rows_equal_columns(table), (table == table.T).all(axis=1))


@pytest.mark.parametrize("n", [65, 130, 200])
def test_rows_equal_columns_finds_mismatches_below_the_diagonal(n):
    # only the upper triangle is read, so a cell below the diagonal must
    # be caught through its mirror, also when the two sit in different slabs
    rng = np.random.default_rng(n)
    base = rng.integers(0, 7, size=(n, n))
    base = np.triu(base) + np.triu(base, 1).T
    for a, b in ((64, 63), (n - 1, 0), (n - 1, 63), (64, 0), (n - 1, n - 2)):
        table = base.copy()
        table[a, b] += 1
        got = rows_equal_columns(table)
        assert np.array_equal(got, (table == table.T).all(axis=1)), (a, b)
        assert np.flatnonzero(~got).tolist() == [b, a]
    table = base.copy()
    below = [(int(a), int(b)) for a, b in zip(rng.integers(1, n, size=6), rng.integers(0, n, size=6)) if a > b]
    for a, b in below:
        table[a, b] += 1
    assert np.array_equal(rows_equal_columns(table), (table == table.T).all(axis=1))


def test_validate_rejects_broken_identity():
    add, mul = raw_zmod_tables(4)
    mul[1][3] = 2
    with pytest.raises(RingValidationError) as err:
        validate_ring(add, mul, 0, 1)
    assert any(v.kind in ("NoIdentity", "NonAssociative", "NonDistributive") for v in err.value.violations)


def test_element_names_are_formatted_on_demand():
    add, mul = raw_zmod_tables(5)
    asked = []

    def name(a):
        asked.append(a)
        return f"r{a}"

    ring = validate_ring(add, mul, 0, 1, names=name)
    assert asked == []
    assert (ring.name_of(3), ring.describe(4)) == ("r3", "r4 (#4)")
    assert asked == [3, 4]
    assert ring.names == ("r0", "r1", "r2", "r3", "r4") and ring.names is ring.names  # built once, then kept
    assert asked == [3, 4, 0, 1, 2, 3, 4]
    assert validate_ring(add, mul, 0, 1).names == ("0", "1", "2", "3", "4")
    assert validate_ring(add, mul, 0, 1, names="abcde").describe(2) == "c (#2)"
    for names in ("abcd", "abcdef"):
        with pytest.raises(ValueError, match="names length mismatch"):
            validate_ring(add, mul, 0, 1, names=names)


def test_elem_arithmetic_z8():
    z8 = build_zmod(8)
    assert elem_add(z8, 3, 7) == 2
    assert elem_mul(z8, 3, 3) == 1
    assert elem_sub(z8, 1, 3) == 6
    assert elem_neg(z8, 3) == 5
    assert elem_pow(z8, 2, 3) == 0
    assert elem_pow(z8, 3, 0) == 1


def test_elem_matrix_units():
    m2 = build_matrix(build_zmod(2), 2)
    e12 = matrix_unit_index(m2, 0, 1)
    e21 = matrix_unit_index(m2, 1, 0)
    e11 = matrix_unit_index(m2, 0, 0)
    assert elem_mul(m2, e12, e21) == e11
    assert elem_mul(m2, e12, e12) == m2.zero
    ones = elem_add(m2, elem_add(m2, e11, e12), elem_add(m2, e21, matrix_unit_index(m2, 1, 1)))
    assert elem_pow(m2, ones, 2) == m2.zero


def test_elem_pow_identity_always_identity():
    z8 = build_zmod(8)
    for k in (0, 1, 5, 17):
        assert elem_pow(z8, z8.one, k) == z8.one


def test_index_guard():
    z8 = build_zmod(8)
    with pytest.raises(ElementIndexError):
        elem_add(z8, 0, 8)
    with pytest.raises(ElementIndexError):
        elem_pow(z8, -1, 2)


def test_power_orbit_examples():
    z8 = build_zmod(8)
    orbit, cycle_start = power_orbit(z8, 2)
    assert orbit == [2, 4, 0] and cycle_start == 2  # stays at 0
    orbit, cycle_start = power_orbit(z8, 3)
    assert orbit == [3, 1] and cycle_start == 0  # 3^3 = 3 again

    m2 = build_matrix(build_zmod(2), 2)
    a = 2 + 4 + 8  # [[0,1],[1,1]]
    orbit, cycle_start = power_orbit(m2, a)
    assert len(orbit) == 3 and orbit[-1] == m2.one and cycle_start == 0


def test_power_orbit_length_bounded_by_order():
    for n in (2, 6, 12, 16):
        ring = build_zmod(n)
        for a in range(n):
            orbit, _ = power_orbit(ring, a)
            assert len(orbit) <= ring.order


def table_powers(ring, a, k):
    """(a^k, (orbit, cycle start)) read off the whole multiplication table, one product at a time."""
    mul, power, orbit = ring.mul, ring.one, [a]
    for _ in range(k):
        power = int(mul[power, a])
    while (x := int(mul[orbit[-1], a])) not in orbit:
        orbit.append(x)
    return power, (orbit, orbit.index(x))


def test_powers_fill_no_table_and_match_the_whole_table(monkeypatch):
    # elem_pow and power_orbit read through `products`, as elem_mul does, so
    # on a cap ring built bitwise no table is filled; on a small ring every
    # element, and on the cap ring a sample, matches the filled table
    fills, fill_mul = [], core._bitwise_mul_table
    monkeypatch.setattr(core, "_bitwise_mul_table", lambda quarters, high: fills.append(1) or fill_mul(quarters, high))
    cap = compile_text("t(2,z(16))")
    sample = [0, 1, 5, 7, 1234, 4095]
    got = [(elem_pow(cap, a, k), power_orbit(cap, a)) for a in sample for k in (0, 5, 7)]
    assert fills == [] and cap.mul_quarters is not None
    assert got == [table_powers(cap, a, k) for a in sample for k in (0, 5, 7)]
    for ring in (build_zmod(12), build_matrix(build_zmod(2), 2), compile_text("t(2,z(4))")):
        for a in range(ring.order):
            for k in (0, 1, 2, 5, 9):
                assert (elem_pow(ring, a, k), power_orbit(ring, a)) == table_powers(ring, a, k), (ring, a, k)


def test_elem_pow_is_additive_in_the_exponent():
    rng = random.Random(7)
    m2 = build_matrix(build_zmod(2), 2)
    for ring in (build_zmod(12), m2):
        for _ in range(50):
            a = rng.randrange(ring.order)
            j, k = rng.randrange(8), rng.randrange(8)
            assert elem_pow(ring, a, j + k) == elem_mul(ring, elem_pow(ring, a, j), elem_pow(ring, a, k))


def test_sampled_validation_above_exhaustive_limit():
    # above order 64 a bitwise addition is proved on its bit generators; any
    # other ring is still sampled there
    ring = build_zmod(128)
    assert ring.validation == "exhaustive" and ring.basis == (1, 2, 4, 8, 16, 32, 64)
    assert build_zmod(64).validation == "exhaustive" and build_zmod(64).basis is None
    for text in ("m(2,z(3))", "group(z(9),c(3))"):
        ring = compile_text(text)
        assert ring.order > 64 and ring.validation == "sampled" and ring.basis is None, text
    add, mul = raw_zmod_tables(130)
    assert scan_axioms(np.array(add), np.array(mul), 0, 1) == ([], "sampled")


def test_sampled_triples_are_drawn_once_per_order_and_read_only():
    # the triples and so the witnesses are those of a fresh draw from the seed
    samples = core._triple_samples(130)
    assert core._triple_samples(130) is samples and not samples.flags.writeable
    rng = np.random.default_rng(core._SAMPLE_SEED)
    assert np.array_equal(samples, [rng.integers(0, 130, size=core._SAMPLE_TRIPLES) for _ in range(3)])


def two_index_sampled_scan(add, mul):
    """The sampled identities in their two-index form, a+b as add[a, b]
    (kept as oracle): (identity, Violation) for each identity that fails,
    with its first failing sampled triple."""
    sa, sb, sc = core._triple_samples(len(add))
    out = []
    for identity, kind, lhs, rhs in (
        ("add-assoc", "NotAbelianGroup", add[add[sa, sb], sc], add[sa, add[sb, sc]]),
        ("assoc", "NonAssociative", mul[mul[sa, sb], sc], mul[sa, mul[sb, sc]]),
        ("ldist", "NonDistributive", mul[sa, add[sb, sc]], add[mul[sa, sb], mul[sa, sc]]),
        ("rdist", "NonDistributive", mul[add[sb, sc], sa], add[mul[sb, sa], mul[sc, sa]]),
    ):
        bad = np.where(lhs != rhs)[0]
        if len(bad):
            out.append((identity, Violation(kind, (int(sa[bad[0]]), int(sb[bad[0]]), int(sc[bad[0]])))))
    return out


def test_the_sampled_scan_reports_the_two_index_forms_witnesses():
    ring = compile_text("group(z(9),c(3))")
    n = ring.order
    assert n > 64 and ring.validation == "sampled"
    sa, sb, sc = core._triple_samples(n)
    bc = ring.add[sb, sc]
    # one corrupt cell aimed at each identity, at sampled triples past the first
    for i in (7, 1234, 19999):
        a, b, c = int(sa[i]), int(sb[i]), int(sc[i])
        for identity, table, cell in (
            ("add-assoc", "add", (a, b)),  # (a+b)+c
            ("assoc", "mul", (a, b)),  # (ab)c
            ("ldist", "mul", (a, int(bc[i]))),  # a(b+c)
            ("rdist", "mul", (int(bc[i]), a)),  # (b+c)a
        ):
            add, mul = ring.add.copy(), ring.mul.copy()
            corrupt = add if table == "add" else mul
            corrupt[cell] = (int(corrupt[cell]) + 1) % n
            want = two_index_sampled_scan(add, mul)
            violations, mode = scan_axioms(add, mul, ring.zero, ring.one)
            assert identity in dict(want), (identity, i)
            assert mode == "sampled" and [v for v in violations if len(v.witness) == 3] == [v for _, v in want]
    assert two_index_sampled_scan(ring.add, ring.mul) == [] == scan_axioms(ring.add, ring.mul, ring.zero, ring.one)[0]


def test_a_proved_ring_keeps_its_bit_generators(basis_text):
    ring = compile_text(basis_text)
    bits = ring.order.bit_length() - 1
    assert ring.order > 64 and ring.validation == "exhaustive", basis_text
    assert ring.basis == tuple(1 << b for b in range(bits)), basis_text


def test_elemset_algebra():
    z8 = build_zmod(8)
    evens = ElemSet.of(z8, [0, 2, 4, 6])
    low = ElemSet.of(z8, [0, 1, 2])
    assert (evens & low).indices() == (0, 2)
    assert (evens | low).indices() == (0, 1, 2, 4, 6)
    assert (evens - low).indices() == (4, 6)
    assert (~evens).indices() == (1, 3, 5, 7)
    assert 4 in evens and 3 not in evens
    assert list(evens) == [0, 2, 4, 6]
    assert len(evens) == 4
    mask = evens.mask()
    assert mask.dtype == bool and mask.sum() == 4


def test_elemset_rejects_cross_ring_algebra():
    a = ElemSet.of(build_zmod(4), [0, 2])
    b = ElemSet.of(build_zmod(4), [0])
    with pytest.raises(ValueError):
        a | b  # distinct ring objects, even with equal tables


def test_elemset_range_check():
    z4 = build_zmod(4)
    with pytest.raises(ElementIndexError):
        ElemSet.of(z4, [5])


def index_space(n):
    """The element indices of z(n), as a ring whose tables ElemSet never
    reads: an n x n table at n = 4096 would cost 64 MiB to no purpose."""
    return TableRing(n, None, None, None, 0, 1 % n, tuple(map(str, range(n))), None, "raw")


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 4096])
def test_elemset_algebra_matches_frozensets(n):
    ring, other = index_space(n), index_space(n)
    rng = np.random.default_rng(n)
    full = frozenset(range(n))

    def sample():
        return frozenset(np.flatnonzero(rng.random(n) < rng.choice([0.02, 0.5, 0.98])).tolist())

    pairs = [(frozenset(), frozenset()), (full, frozenset()), (frozenset(), full), (full, full)]
    pairs += [(sample(), sample()) for _ in range(12)] + [(x, x) for x in (sample(), sample())]
    for x, y in pairs:
        a, b = ElemSet.of(ring, sorted(x, reverse=True)), ElemSet.of(ring, np.array(sorted(y), dtype=np.int32))
        for got, want in ((a, x), (b, y), (a & b, x & y), (a | b, x | y), (a - b, x - y), (a ^ b, x ^ y), (~a, full - x)):
            assert got.members == want and got.indices() == tuple(sorted(want)) and list(got) == sorted(want)
            assert np.array_equal(got.index_array(), sorted(want)) and np.array_equal(got.mask(), [i in want for i in range(n)])
            assert len(got) == len(want) and bool(got) == bool(want)
            assert got.first() == (min(want) if want else None)
            assert [i in got for i in (-1, 0, n - 1, n)] == [i in want for i in (-1, 0, n - 1, n)]
        assert (a <= b) == (x <= y) and (b <= a) == (y <= x)
        assert (a == b) == (x == y) and (a != b) == (x != y)
        if x == y:
            assert hash(a) == hash(b)
        assert len({a, b, ElemSet.of(ring, x)}) == len({x, y})
        assert a != ElemSet.of(other, x)  # equal members, different ring
        for op in (lambda p, q: p & q, lambda p, q: p | q, lambda p, q: p - q, lambda p, q: p ^ q, lambda p, q: p <= q):
            with pytest.raises(ValueError):
                op(a, ElemSet.of(other, y))


def test_elemset_masks_are_read_only_and_wrapped():
    ring = index_space(130)
    a = ElemSet.of(ring, [0, 64, 129])
    for derived in (a.mask(), a.index_array()):
        with pytest.raises(ValueError):
            derived[0] = 1
    assert ElemSet.from_mask(ring, a.mask()).mask() is a.mask()  # read-only bool: wrapped as is
    writable = a.mask().copy()
    copied = ElemSet.from_mask(ring, writable)
    writable[:] = True
    assert copied == a and copied.mask() is not writable
    assert ElemSet.from_mask(ring, a.mask().astype(np.uint8)) == a
    with pytest.raises(ValueError):
        ElemSet.from_mask(ring, np.ones(129, dtype=bool))
    assert a.indices() is a.indices() and a.members is a.members  # derived once, then kept


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 63, 64, 65, 130, 1000, 4096])
def test_elemset_compares_and_lists_as_numpy_does(n):
    # `==` compares mask bytes and `index_array` is `mask.nonzero()[0]`:
    # both agree with np.array_equal and np.flatnonzero on masks made as
    # the program makes them, a compare and the cache's unpacked bits
    # (sets of two rings: test_elemset_algebra_matches_frozensets)
    ring = index_space(n)
    rng = np.random.default_rng(3500 + n)
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    masks += [rng.random(n) < p for p in (0.02, 0.5, 0.98) for _ in range(3)]
    masks += [mask.copy() for mask in masks[2:5]]  # equal masks in distinct arrays
    unpacked = [np.unpackbits(np.packbits(m, bitorder="little"), count=n, bitorder="little").view(bool) for m in masks]
    for mask in unpacked:
        mask.setflags(write=False)  # wrapped as it is, as the cache wraps it
    sets = [ElemSet.from_mask(ring, m) for m in masks] + [ElemSet.from_mask(ring, m) for m in unpacked]
    assert all(u.mask() is m for u, m in zip(sets[len(masks) :], unpacked))
    for a in sets:
        assert np.array_equal(a.index_array(), np.flatnonzero(a.mask())) and a.index_array().dtype == np.intp
        for b in sets:
            assert (a == b) == np.array_equal(a.mask(), b.mask()) and (a != b) != (a == b)
            assert (a <= b) == np.array_equal(a.mask() & b.mask(), a.mask())
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("n", [1, 2, 64, 4096])
def test_elemset_of_rejects_every_out_of_range_index(n):
    ring = index_space(n)
    for items in ([n], [-1], [0, n + 5], np.array([[0, 1 % n], [n, 0]]), range(n + 1)):
        with pytest.raises(ElementIndexError, match="out of range"):
            ElemSet.of(ring, items)
    assert ElemSet.of(ring, np.array([], dtype=float)).first() is None


DESK_ORACLES = {
    "jacobson_radical_maximal_ideal_oracle",
    "prime_radical_ideal_oracle",
}


def members_reads(name, source):
    """(readers, exempt): the `.members` reads in module `name`'s source,
    as "name:line", and the count of those in a desk oracle of subsets.py."""
    readers, exempt = [], 0
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "members":
                if name == "subsets.py" and getattr(top, "name", None) in DESK_ORACLES:
                    exempt += 1
                else:
                    readers.append(f"{name}:{node.lineno}")
    return readers, exempt


def test_only_core_reads_members():
    # every module does its set algebra through ElemSet's mask; only the
    # desk oracles of subsets.py, which may hash whole ideals, may read `.members`
    import ringlab
    from ringlab import subsets

    assert DESK_ORACLES <= set(vars(subsets))
    readers = []
    for path in sorted(Path(ringlab.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            readers += members_reads(path.name, path.read_text())[0]
    assert readers == []
    # the scan does see a read, and exempts it only inside a desk oracle of subsets.py
    probe = "def prime_radical_ideal_oracle(ring):\n    return ring.members\n\n\ndef units(ring):\n    return ring.members\n"
    assert members_reads("subsets.py", probe) == (["subsets.py:6"], 1)
    assert members_reads("checks.py", probe) == (["checks.py:2", "checks.py:6"], 0)


def unreferenced_definitions(sources):
    """The module-level `def`s and `class`es of `sources` (file name ->
    source) that no AST `Name` or `Attribute` of the sources names, outside
    the definition itself, as "file:name"."""
    defined, referenced = [], set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, own))
            for node in ast.walk(top):
                ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if ref is not None and ref != own:
                    referenced.add(ref)
    return [f"{name}:{own}" for name, own in defined if own not in referenced]


def test_every_src_definition_is_reached_from_src_or_exported():
    # a function that only the tests call is dead weight in the package
    import ringlab

    sources = {path.name: path.read_text() for path in sorted(Path(ringlab.__file__).parent.glob("*.py"))}
    assert [d for d in unreferenced_definitions(sources) if d.split(":")[1] not in ringlab.__all__] == []
    # the scan sees a definition that only calls itself, and one that is called
    probe = "def lone(n):\n    return lone(n - 1)\n\n\nclass Used:\n    pass\n\n\nx = Used()\n"
    assert unreferenced_definitions({"probe.py": probe}) == ["probe.py:lone"]


def test_tables_are_immutable():
    z4 = build_zmod(4)
    with pytest.raises(ValueError):
        z4.add[0, 0] = 1
    with pytest.raises(ValueError):
        z4.mul[0, 0] = 1


def test_records_are_immutable_named_tuples():
    from ringlab import checks
    from ringlab import predicates as P
    from ringlab.core import GaloisMeta, ZmodMeta

    records = {
        Violation("NoIdentity", (3,)): "Violation(kind='NoIdentity', witness=(3,))",
        checks.Outcome(False, witness="w", note="n"): "Outcome(ok=False, witness='w', note='n')",
        checks.CheckResult("L1.2.1", "z(4)", "pass", None, None, 0.5): (
            "CheckResult(check_id='L1.2.1', ring='z(4)', status='pass', witness=None, note=None, millis=0.5)"
        ),
        P.Verdict(True): "Verdict(value=True, witness=None)",
        ZmodMeta(4): "ZmodMeta(n=4)",
        GaloisMeta(4, 2, 2, (1, 1)): "GaloisMeta(q=4, char=2, degree=2, modulus=(1, 1))",
    }
    for record, text in records.items():
        assert repr(record) == text
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        twin = type(record)(**record._asdict())
        assert twin == record and twin is not record and hash(twin) == hash(record) == hash(tuple(record))
        assert twin != record._replace(**{name: "other"})
    assert str(Violation("NoIdentity", (3,))) == "NoIdentity(3,)"
    assert checks.Outcome(True) == checks.Outcome(True, None, None) and checks._ok() is checks._ok()
    assert checks._ok("informational") == checks.Outcome(True, note="informational")
    assert checks._fail("w") == checks.Outcome(False, "w")
    # a verdict is as true as its value, whatever its witness
    assert P.Verdict(True) and P.Verdict(True, "w") and not P.Verdict(False) and not P.Verdict(False, "w")


def test_records_that_hold_arrays_or_rings_compare_by_identity():
    from ringlab.construct import identity_endo
    from ringlab.groups import cyclic

    def pair(make):
        first, second = make(), make()
        assert first == first and first != second and not first == second and len({first, second}) == 2
        return first

    for text in ("m(2,z(2))", "t(2,z(2))", "prod(z(2),z(3))", "triv(z(2))", "group(z(2),c(2))", "poly(z(2),2)"):
        meta = pair(lambda: compile_text(text).meta)
        with pytest.raises(AttributeError):
            setattr(meta, meta.__slots__[0], None)
        copy = meta._replace()
        assert copy != meta and all(getattr(copy, name) is getattr(meta, name) for name in meta.__slots__)
    ring = build_zmod(4)
    for make in (lambda: build_quotient(ring, ElemSet.of(ring, [0, 2]))[0].meta, lambda: cyclic(3), lambda: identity_endo(ring)):
        record = pair(make)  # equal fields, arrays among them: == compares no array
        with pytest.raises(AttributeError):
            record.name = "renamed"
    group = cyclic(3)
    assert (group.exponent, group.is_2group, group.identity) == (3, False, 0)
    assert type(group)(group.order, group.op, 0, group.names).exponent == 0  # defaults fill the trailing fields
    assert identity_endo(ring).name == "id" and type(identity_endo(ring))(ring, np.arange(4)).name == "endo"
    with pytest.raises(TypeError):
        type(group)(group.order)  # a field without a default is missing
    with pytest.raises(TypeError):
        core.MatrixMeta(ring, 2, size=2)  # given twice


def cubic_scan_oracle(add, mul):
    """The whole-cube n^3 scan the slab-wise one replaced (kept as oracle).

    Returns (identity, Violation) for each identity that fails, with the
    row-major first failing triple of the full n x n x n cube.
    """
    out = []
    bad = np.argwhere(add[add, :] != add[:, add])
    if len(bad):
        out.append(("add-assoc", Violation("NotAbelianGroup", tuple(map(int, bad[0])))))
    bad = np.argwhere(mul[mul, :] != mul[:, mul])
    if len(bad):
        out.append(("assoc", Violation("NonAssociative", tuple(map(int, bad[0])))))
    bad = np.argwhere(mul[:, add] != add[mul[:, :, None], mul[:, None, :]])
    if len(bad):
        out.append(("ldist", Violation("NonDistributive", tuple(map(int, bad[0])))))
    bad = np.argwhere(mul[add, :] != add[mul[:, None, :], mul[None, :, :]])  # axes (b, c, a)
    if len(bad):
        b, c, a = map(int, bad[0])
        out.append(("rdist", Violation("NonDistributive", (a, b, c))))
    return out


def test_slab_scan_matches_the_whole_cube_scan():
    rng = np.random.default_rng(6)
    reached: dict[str, set[bool]] = {}  # identity -> {witness row beyond the first slab?}

    def compare(ring, add, mul):
        expected = cubic_scan_oracle(add, mul)
        got = [v for v in scan_axioms(add, mul, ring.zero, ring.one)[0] if len(v.witness) == 3]
        assert got == [v for _, v in expected]
        for identity, v in expected:
            row = v.witness[1] if identity == "rdist" else v.witness[0]  # the slabbed axis
            reached.setdefault(identity, set()).add(row >= 16)

    texts = ["z(2)", "z(15)", "m(2,z(2))", "z(17)", "prod(z(16),z(3))", "t(3,z(2))", "prod(z(16),z(4))"]
    for text in texts:
        ring = compile_text(text)
        n = ring.order
        assert n in (2, 15, 16, 17, 48, 64)
        compare(ring, ring.add, ring.mul)
        for table in ("add", "mul"):
            for _ in range(8):
                add, mul = ring.add.copy(), ring.mul.copy()
                i, j = (int(x) for x in rng.integers(n // 2 if n > 16 else 0, n, 2))
                if table == "add":
                    add[i, j] = add[j, i] = (add[i, j] + int(rng.integers(1, n))) % n
                else:
                    mul[i, j] = (mul[i, j] + int(rng.integers(1, n))) % n
                compare(ring, add, mul)
        if text.startswith("prod(z(16)"):
            # a product that moves only the second factor: rows 0..15 are
            # (r, 0) and annihilate it, so the first failing row is past them
            for _ in range(4):
                i, j = (int(x) for x in rng.integers(16, n, 2))
                mul = ring.mul.copy()
                mul[i, j] = (mul[i, j] + 16) % n
                compare(ring, ring.add, mul)
    assert set(reached) == {"add-assoc", "assoc", "ldist", "rdist"}
    # one wrong sum fails (a+b)+c = a+(b+c) at the least nonzero a, so only
    # the multiplicative identities can first fail past row 15
    assert all(True in reached[identity] for identity in ("assoc", "ldist", "rdist"))


def witness_fails(add, mul, zero, one, neg, violation):
    """Does the violation's witness fail on these tables?"""
    w = tuple(map(int, violation.witness))
    if violation.kind == "NonAssociative":
        a, b, c = w
        return mul[mul[a, b], c] != mul[a, mul[b, c]]
    if violation.kind == "NonDistributive":
        a, b, c = w
        return mul[a, add[b, c]] != add[mul[a, b], mul[a, c]] or mul[add[b, c], a] != add[mul[b, a], mul[c, a]]
    if violation.kind == "NoIdentity":
        return mul[one, w[0]] != w[0] or mul[w[0], one] != w[0]
    if violation.kind == "NotAbelianGroup" and len(w) == 3:
        a, b, c = w
        return add[add[a, b], c] != add[a, add[b, c]]
    if violation.kind == "NotAbelianGroup" and len(w) == 2:  # a + b != b + a, 0 + b != b, or b = -a and a + b != 0
        a, b = w
        return add[a, b] != add[b, a] or (a == zero and add[a, b] != b) or (neg is not None and neg[a] == b and add[a, b] != zero)
    return violation.kind == "NotAbelianGroup" and zero not in add[w[0]]  # a row without zero


@pytest.mark.parametrize("text", ["t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))", "m(2,gf(8))", "z(128)", "group(z(2),q8)"])
def test_one_corrupt_entry_is_rejected_above_the_exhaustive_limit(text):
    # every ring here is proved on its bit generators; one wrong product, or
    # one wrong symmetric pair of sums, must be rejected with witnesses that fail
    ring = compile_text(text)
    n = ring.order
    assert n > 64 and ring.validation == "exhaustive"
    neg = None if text == "z(128)" else ring.neg  # build_zmod passes no neg table
    rng = np.random.default_rng(n + len(text))
    for table in ("mul", "mul", "add", "add"):
        add, mul = ring.add.copy(), ring.mul.copy()
        i, j = (int(x) for x in rng.choice(n, 2, replace=False))
        if table == "mul":
            mul[i, j] = (int(mul[i, j]) + int(rng.integers(1, n))) % n
        else:
            add[i, j] = add[j, i] = (int(add[i, j]) + int(rng.integers(1, n))) % n
        with pytest.raises(RingValidationError) as err:
            validate_ring(add, mul, ring.zero, ring.one, neg=neg)
        violations = err.value.violations
        assert violations and all(witness_fails(add, mul, ring.zero, ring.one, neg, v) for v in violations), (table, i, j)


def test_bitwise_proof_matches_the_whole_cube_scan(corpus_bundles):
    # at corpus orders the proof decides exactly what the n^3 scan decides. Order 2
    # is left out: there the one wrong sum 1 + 1 = 1 gives an associative table,
    # which only the inverse check rejects, and it is no bitwise group either
    rng = np.random.default_rng(17)
    outcomes = []

    def compare(add, mul, label):
        high = field_top_bits(add)
        proved = high is not None and _prove_bitwise(add, mul, high)[0]
        assert proved == (not cubic_scan_oracle(add, mul)), label
        outcomes.append(proved)

    rings = [(text, ring) for text, ring, _ in corpus_bundles if ring.order > 2 and field_top_bits(ring.add) is not None]
    assert len(rings) >= 5
    for text, ring in rings:
        n = ring.order
        compare(ring.add, ring.mul, text)
        # whole-table twists: swapping two elements in the right argument keeps
        # right distributivity and may break left, in the left argument the
        # reverse, and x*y = (ux)y for a unit u keeps both and may break
        # associativity
        swap = np.arange(n)
        swap[[1, n - 1]] = [n - 1, 1]
        unit = next((u for u in range(n - 1, 0, -1) if (ring.mul[u] == ring.one).any() and u != ring.one), ring.one)
        for label, mul in (("right", ring.mul[:, swap]), ("left", ring.mul[swap]), ("unit", ring.mul[ring.mul[unit]])):
            compare(ring.add, mul, (text, label))
        for k in range(8):
            add, mul = ring.add.copy(), ring.mul.copy()
            i, j = (int(x) for x in rng.integers(0, n, 2))
            if k % 2:
                mul[i, j] = (int(mul[i, j]) + int(rng.integers(1, n))) % n
            else:
                add[i, j] = add[j, i] = (int(add[i, j]) + int(rng.integers(1, n))) % n
            compare(add, mul, (text, k, i, j))
    assert outcomes.count(False) >= 8 * len(rings)  # every corrupt entry at least


def one_check_fails():
    """(check, add, mul): tables on which exactly one of the proof's checks
    fails. Over z(64), every product lies in {0, 32} and 32 * 32 = 0, so
    any product of three elements is 0 and associativity holds; phi(x)
    sums 1 over bits 0 and 1 of x, so its rows add up over the bits of x
    but 2 * phi(1) != phi(2); psi marks the one non-generator 3. Over
    F2^3, the bilinear product with e0 e0 = e1 and e1 e0 = e2 is
    bi-additive and not associative."""
    x = np.arange(64)
    add = (x[:, None] + x) % 64
    phi, psi = (x & 1) + (x >> 1 & 1), x == 3
    rows_add_up = 32 * phi[:, None] * x % 64
    only_3 = 32 * x[:, None] * psi % 64
    e = np.arange(8)
    e0, e1 = e & 1, e >> 1 & 1
    nonassociative = 2 * (e0[:, None] & e0) ^ 4 * (e1[:, None] & e0)
    return [
        ("right doubling", add, rows_add_up),
        ("left doubling", add, rows_add_up.T),
        ("right rows", add, only_3.T),
        ("left rows", add, only_3),
        ("associativity", e[:, None] ^ e, nonassociative),
    ]


@pytest.mark.parametrize("case", one_check_fails(), ids=lambda case: case[0])
def test_each_proof_check_rejects_a_table_alone(case):
    check, add, mul = case
    add, mul = add.astype(np.uint16), np.ascontiguousarray(mul, dtype=np.uint16)
    proved, witness = _prove_bitwise(add, mul, field_top_bits(add))
    assert not proved and cubic_scan_oracle(add, mul), check
    assert witness_fails(add, mul, 0, 1, None, witness), check


@pytest.mark.parametrize(
    "text, cell, witness",
    [
        ("z(128)", (0, 5), (5, 0, 1)),  # row 0, read as (0 + 1)y
        ("z(128)", (100, 3), (3, 36, 64)),  # row 100 = 36 + 64
        ("z(128)", (32, 9), (9, 1, 32)),  # generator row 32: row 33 = 1 + 32 is the first off its sum
        ("group(z(2),c(10))", (0, 700), (700, 0, 1)),  # order 1024, filled split at a field boundary
        ("group(z(2),c(10))", (1000, 3), (3, 488, 512)),
        ("group(z(2),c(10))", (256, 9), (9, 1, 256)),
        ("group(z(2),c(10))", (513, 77), (77, 1, 512)),
    ],
)
def test_a_corrupt_product_row_is_reported_at_its_first_wrong_cell(text, cell, witness):
    # the first row off the table filled from the generator rows names the
    # distributivity it breaks; each witness is pinned, and fails on the tables
    ring = compile_text(text)
    mul = ring.mul.copy()
    mul[cell] = (int(mul[cell]) + 1) % ring.order
    proved, found = _prove_bitwise(ring.add, mul, field_top_bits(ring.add))
    assert not proved and found == Violation("NonDistributive", witness)
    assert witness_fails(ring.add, mul, ring.zero, ring.one, ring.neg, found)


def generator_relations_loop(left, columns, high):
    """`_generator_relations` with its left-distributivity rows checked one
    generator g at a time, over the columns y in [g, 2g): the oracle of the
    one-pass check, whose witness must be the one this loop meets first."""
    bits = left.shape[0]
    gens = 1 << np.arange(bits)
    top = (high >> np.arange(bits)) & 1 == 1
    doubles = np.where(top, 0, gens << 1)
    doubled_rows = np.where(top[:, None], 0, np.roll(left, -1, axis=0))
    bad = np.argwhere(doubled_rows != core.bitwise_sum(left, left, high))
    if len(bad):
        b, y = bad[0]
        return Violation("NonDistributive", (int(y), int(gens[b]), int(gens[b])))
    for g in gens.tolist():
        bad = np.argwhere(left[:, g : 2 * g] != core.bitwise_sum(left[:, :g], left[:, g, None], high))
        if len(bad):
            b, y = bad[0]
            return Violation("NonDistributive", (int(gens[b]), int(y), g))
    bad = np.argwhere(left[:, doubles] != core.bitwise_sum(left[:, gens], left[:, gens], high))
    if len(bad):
        b, c = bad[0]
        return Violation("NonDistributive", (int(gens[b]), int(gens[c]), int(gens[c])))
    products = left[:, gens]
    bad = np.argwhere(columns[products] != left[:, products])
    if len(bad):
        return Violation("NonAssociative", tuple(int(gens[i]) for i in bad[0]))
    return None


@pytest.mark.parametrize("text", ["z(128)", "group(z(2),q8)", "t(2,z(8))", "group(z(2),c(10))"])
def test_generator_relations_report_the_loops_first_witness(text):
    # one-cell corruptions of the generator rows: half at random, half in the
    # row of a field's lowest bit by a field's top bit, which keeps twice
    # the entry, so both doubling relations that read the row still hold
    # and the rows' own check decides; every fourth trial corrupts a second
    # such row too, so the witness must come from the smallest g, not the
    # smallest b. mul is refilled from the corrupt rows, read whole
    ring = compile_text(text)
    n, high, bits = ring.order, field_top_bits(ring.add), ring.order.bit_length() - 1
    gens = [1 << b for b in range(bits)]
    rows, tops = ring.mul[gens], [1 << b for b in range(bits) if high >> b & 1]
    lowest = [b for b in range(bits) if b == 0 or high >> (b - 1) & 1]
    assert _generator_relations(rows, ring.mul[:, gens].__getitem__, high) is None
    rng, along_rows = random.Random(n), 0
    for trial in range(40):
        corrupt, y = rows.copy(), rng.randrange(n)
        b, flip = (rng.choice(lowest), rng.choice(tops)) if trial % 2 else (rng.randrange(bits), rng.randrange(1, n))
        corrupt[b, y] = int(corrupt[b, y]) ^ flip
        if trial % 4 == 3:
            b2, y2 = rng.choice(lowest), rng.randrange(n)
            corrupt[b2, y2] = int(corrupt[b2, y2]) ^ rng.choice(tops)
        mul = core._fill_bitwise_mul(corrupt, high)
        found = _generator_relations(corrupt, mul[:, gens].__getitem__, high)
        assert found == generator_relations_loop(corrupt, mul[:, gens], high) and found is not None, (b, y, flip)
        assert witness_fails(ring.add, mul, ring.zero, ring.one, ring.neg, found), (b, y, flip)
        along_rows += found.kind == "NonDistributive" and found.witness[1] != found.witness[2]  # (2^b, y, g), y < g
    assert along_rows >= 10, along_rows


def encode_digits_loop(digits, radices):
    """The index of each digit vector, by Horner's rule in int64: the
    reference for `encode_digits`, which takes one product in float64."""
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for w in range(len(radices) - 1, -1, -1):
        out = out * radices[w] + digits[..., w]
    return out.astype(np.int32)


def all_digits_loop(radices):
    """The digits of every index by repeated divmod: the reference for
    `all_digits`, which reads them off one index grid."""
    x, columns = np.arange(np.prod(radices)), []
    for radix in radices:
        x, digit = np.divmod(x, radix)
        columns.append(digit)
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("radices", [[2] * 16, [16, 16, 16], [5] * 5, [3, 7, 2], [4096], [2, 3, 4, 5, 6, 7, 8]])
def test_encode_digits_matches_horners_rule(radices):
    # every index up to 65535 (order 2^16) and blocks of any shape
    digits = all_digits(radices)
    assert digits.dtype == np.int32 and np.array_equal(digits, all_digits_loop(radices))
    assert np.array_equal(encode_digits(digits, radices), encode_digits_loop(digits, radices))
    assert np.array_equal(encode_digits(digits, radices), np.arange(len(digits)))
    block = digits[np.random.default_rng(len(radices)).integers(len(digits), size=(3, 5))]
    assert np.array_equal(encode_digits(block, radices), encode_digits_loop(block, radices))
    assert int(encode_digits(digits[-1], radices)) == len(digits) - 1


def test_a_relabelled_bitwise_group_falls_back_to_sampling():
    # z(128) with the labels of 3 and 5 swapped is a ring on which every
    # 2^b + 2^b still looks bitwise, but whose addition is not the bitwise
    # formula: the proof cannot decide it, finds no witness, and the ring is
    # sampled as before
    perm = np.arange(128)
    perm[[3, 5]] = [5, 3]
    z = build_zmod(128)
    add, mul = perm[z.add[np.ix_(perm, perm)]], perm[z.mul[np.ix_(perm, perm)]]
    assert field_top_bits(add) == 64 and _prove_bitwise(add, mul, 64) == (False, None)
    ring = validate_ring(add, mul, 0, 1)
    assert ring.validation == "sampled" and ring.basis is None


def gathered_tables(high, generator_rows):
    """The tables `bitwise_ring` builds from `generator_rows`, made another
    way: add from the word formula, and each row x' | 2^b as the gather
    add[mul[x'], mul[2^b]], 256 rows at a time."""
    n = 1 << len(generator_rows)
    i = np.arange(n, dtype=np.uint16)
    low = i & np.uint16(~high & 0xFFFF)
    add = (low[:, None] + low) ^ ((i[:, None] ^ i) & np.uint16(high))
    mul = np.zeros((n, n), dtype=np.uint16)
    for b, row in enumerate(generator_rows):
        g = 1 << b
        mul[g] = row
        for lo in range(1, g, 256):
            mul[g + lo : g + min(g, lo + 256)] = add[mul[lo : min(g, lo + 256)], mul[g]]
    return add, mul


def assert_rejected_as_whole_tables(high, rows, one, neg, tables=None):
    """bitwise_ring rejects the rows with the text validate_ring gives on
    the tables built from them (`tables`, if the caller has them)."""
    with pytest.raises(RingValidationError) as built:
        bitwise_ring(high, rows, one, neg)
    with pytest.raises(RingValidationError) as whole:
        validate_ring(*(tables or gathered_tables(high, rows)), 0, one, neg=neg)
    assert str(built.value) == str(whole.value)
    return built.value


@pytest.mark.parametrize("text", ["m(2,z(2))", "t(3,z(2))", "t(2,z(16))"])
def test_a_corrupt_generator_row_neg_or_one_is_rejected_as_the_whole_tables_are(text):
    ring = compile_text(text)
    high, gens = field_top_bits(ring.add), [1 << b for b in range(ring.order.bit_length() - 1)]
    rows = ring.mul[gens]
    assert bitwise_ring(high, rows, ring.one, ring.neg).validation == ring.validation == "exhaustive"
    tables = gathered_tables(high, rows)
    assert np.array_equal(tables[0], ring.add) and np.array_equal(tables[1], ring.mul)
    rng = np.random.default_rng(ring.order)
    for _ in range(3):
        corrupt = rows.copy()
        b, y = int(rng.integers(len(gens))), int(rng.integers(ring.order))
        corrupt[b, y] = (int(corrupt[b, y]) + int(rng.integers(1, ring.order))) % ring.order
        assert_rejected_as_whole_tables(high, corrupt, ring.one, ring.neg)
    neg = ring.neg.copy()
    neg[-1] = (int(neg[-1]) + 1) % ring.order
    assert_rejected_as_whole_tables(high, rows, ring.one, neg, tables)
    assert_rejected_as_whole_tables(high, rows, (ring.one + 1) % ring.order, ring.neg, tables)


@pytest.mark.parametrize("text", ["t(2,z(16))", "m(2,gf(8))"])
def test_a_generator_row_corrupt_off_the_corner_columns_is_rejected_as_the_whole_tables_are(text):
    # the quarter tables read each generator row only at the corner columns
    # 0..63 and 0, 64, 128, ..., so a cell off them leaves the quarters as
    # they were and the built ring bi-additive; the relations read the rows
    # whole and reject it, with the witness of the table the corrupt rows fill
    ring = compile_text(text)
    high, gens = field_top_bits(ring.add), [1 << b for b in range(ring.order.bit_length() - 1)]
    rows, split = ring.mul[gens], ring.mul_quarters[2]
    corners = set(range(1 << split)) | set(range(0, ring.order, 1 << split))
    rng = np.random.default_rng(ring.order + 1)
    for _ in range(3):
        corrupt = rows.copy()
        b, y = int(rng.integers(len(gens))), int(rng.integers(ring.order))
        while y in corners:
            y = int(rng.integers(ring.order))
        corrupt[b, y] = (int(corrupt[b, y]) + int(rng.integers(1, ring.order))) % ring.order
        quarters = core._mul_quarters(corrupt, high, split)
        assert all(np.array_equal(q, r) for q, r in zip(quarters, ring.mul_quarters)), (b, y)
        assert_rejected_as_whole_tables(high, corrupt, ring.one, ring.neg)


def test_bitwise_ring_rejects_malformed_arguments():
    ring = compile_text("m(2,z(2))")  # order 16, top bits 0b1111
    rows, neg = ring.mul[[1, 2, 4, 8]], ring.neg
    cases = {
        "rows not square in 2^K": (15, rows[:3], 9, neg),
        "a row too short": (15, rows[:, :8], 9, neg),
        "no top bit at bit K - 1": (7, rows, 9, neg),
        "a top bit above the order": (31, rows, 9, neg),
        "one out of range": (15, rows, 16, neg),
        "neg too short": (15, rows, 9, neg[:8]),
        "a row entry out of range": (15, np.where(rows == 3, 16, rows), 9, neg),
        "a neg entry out of range": (15, rows, 9, np.where(neg == 3, -1, neg)),
    }
    assert bitwise_ring(15, rows, 9, neg).one == 9
    for label, args in cases.items():
        with pytest.raises(ValueError):
            bitwise_ring(*args)
            pytest.fail(label)


def test_a_top_bit_row_of_additive_order_four_is_caught_by_the_doubling_check_alone():
    # over Z/2 + Z/4 + Z/4 (bit 0; bits 1-2; bits 3-4), the one nonzero generator row,
    # at the top bit 0, is r(y) = (0, 0, y_1): additive, with 2r != 0. r kills its
    # own image, so every product of three elements is 0 and mul is associative;
    # only 2 * 2^0 = 0 fails, as 2r(2) = (0, 0, 2)
    ring = compile_text("prod(z(2),z(4),z(4))")
    high, y = field_top_bits(ring.add), np.arange(32)
    assert high == 0b10101
    rows = np.zeros((5, 32), dtype=np.uint16)
    rows[0] = (y >> 1 & 3) << 3
    add, mul = gathered_tables(high, rows)
    r = mul[1]
    assert np.array_equal(r[add], add[r[:, None], r]) and (add[r, r] != 0).any()  # additive, 2r != 0
    assert not mul[mul].any() and not mul[:, mul].any()  # (xy)z = x(yz) = 0
    gens = [1, 2, 4, 8, 16]
    assert _generator_relations(mul[gens], mul[:, gens].__getitem__, high) == Violation("NonDistributive", (2, 1, 1))
    error = assert_rejected_as_whole_tables(high, rows, ring.one, ring.neg)
    assert Violation("NonDistributive", (2, 1, 1)) in error.violations


def old_range_check_fails(table, n):
    """The range check as it was: a min and a max pass over the table."""
    table = np.asarray(table)
    return table.min() < 0 or table.max() >= n


@pytest.mark.parametrize("n", [4, 130])
@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize("value", [-1, "n", -(2**31), 2**31 - 1, "n - 1", 0])
def test_unsigned_range_pass_matches_the_min_max_check(n, which, value):
    tables = dict(zip(("add", "mul"), (np.array(t, dtype=np.int32) for t in raw_zmod_tables(n))))
    tables[which][1, n - 1] = {"n": n, "n - 1": n - 1}.get(value, value)
    if old_range_check_fails(tables[which], n):
        with pytest.raises(ValueError, match="table entry out of range"):
            validate_ring(tables["add"], tables["mul"], 0, 1)
    else:  # in range: the axiom scan decides, and no ValueError escapes
        try:
            validate_ring(tables["add"], tables["mul"], 0, 1)
        except RingValidationError:
            pass
    assert old_range_check_fails(tables[which], n) == (value not in ("n - 1", 0))


def test_a_subset_that_is_not_closed_is_rejected_by_the_range_pass():
    from ringlab.construct import _reindex

    z8 = build_zmod(8)
    add, mul, _ = _reindex(z8, np.array([0, 1, 2, 3]))  # 2 + 3 leaves the subset
    assert old_range_check_fails(add, 4) and not old_range_check_fails(mul[:2, :2], 4)
    with pytest.raises(ValueError, match="table entry out of range"):
        validate_ring(add, mul, 0, 1)


@pytest.mark.parametrize("n", [4, 130])
def test_a_given_neg_is_range_checked(n):
    add, mul = raw_zmod_tables(n)
    neg = (-np.arange(n)) % n
    assert np.array_equal(validate_ring(add, mul, 0, 1, neg=neg).neg, neg)
    for bad in (-1, n, -(2**31)):
        corrupt = neg.copy()
        corrupt[n - 1] = bad
        with pytest.raises(ValueError, match="table entry out of range"):
            validate_ring(add, mul, 0, 1, neg=corrupt)
    with pytest.raises(ValueError, match="one entry per element"):
        validate_ring(add, mul, 0, 1, neg=neg[:-1])


def test_a_wrapping_negative_neg_is_not_accepted():
    # index -3 wraps to column 1 of z(4), where 3 + 1 = 0, so the axiom scan alone would accept it
    add, mul = raw_zmod_tables(4)
    violations, _ = scan_axioms(np.array(add), np.array(mul), 0, 1, np.array([0, 3, 2, -3]))
    assert violations == []
    with pytest.raises(ValueError, match="table entry out of range"):
        validate_ring(add, mul, 0, 1, neg=[0, 3, 2, -3])


@pytest.mark.parametrize("n", [4, 130])
@pytest.mark.parametrize("which", ["add", "mul", "neg"])
@pytest.mark.parametrize("form", ["list", "int64", "int32"])
def test_entries_that_wrap_in_16_bits_are_rejected(n, which, form):
    # the cell (1, n - 1) holds 0 in both z(n) tables and neg[1] = n - 1; each bad value
    # lands on that entry, and the first one wraps to exactly the right index under a
    # narrowing cast, so only a range check made before the cast can reject it
    add, mul = raw_zmod_tables(n)
    tables = {"add": add, "mul": mul, "neg": [(-a) % n for a in range(n)]}
    true_value = tables[which][1][n - 1] if which != "neg" else tables["neg"][1]
    bad_values = (true_value + 65536, n + 65536, 65535, -1)
    assert np.array(bad_values[0]).astype(np.uint16) == true_value
    for bad in bad_values:
        given = {name: [list(row) for row in t] if name != "neg" else list(t) for name, t in tables.items()}
        if which == "neg":
            given["neg"][1] = bad
        else:
            given[which][1][n - 1] = bad
        if form != "list":
            given = {name: np.array(t, dtype=form) for name, t in given.items()}
        with pytest.raises(ValueError, match="table entry out of range"):
            validate_ring(given["add"], given["mul"], 0, 1, neg=given["neg"])
    # the same tables with the true value are a ring
    ring = validate_ring(add, mul, 0, 1, neg=tables["neg"])
    assert ring.add.dtype == ring.mul.dtype == ring.neg.dtype == np.uint16


def test_a_uint16_table_is_kept_without_a_copy():
    add, mul = (np.array(t, dtype=np.uint16) for t in raw_zmod_tables(6))
    neg = np.array([0, 5, 4, 3, 2, 1], dtype=np.uint16)
    ring = validate_ring(add, mul, 0, 1, neg=neg)
    assert ring.add is add and ring.mul is mul and ring.neg is neg
    assert not add.flags.writeable
    # any other integer dtype is cast once, and the cast is a new uint16 array
    wide = np.array(raw_zmod_tables(6)[0], dtype=np.int64)
    ring = validate_ring(wide, mul, 0, 1)
    assert ring.add is not wide and ring.add.dtype == np.uint16 and np.array_equal(ring.add, wide)


def test_non_integer_tables_and_orders_past_16_bits_are_refused():
    add, mul = raw_zmod_tables(4)
    with pytest.raises(ValueError, match="must be integers"):
        validate_ring(np.array(add, dtype=float), mul, 0, 1)
    big = np.broadcast_to(np.uint16(0), (MAX_TABLE_ORDER + 1,) * 2)  # one stored cell, no n^2 allocation
    with pytest.raises(ValueError, match="16-bit table storage"):
        validate_ring(big, big, 0, 1)


@pytest.mark.parametrize("text", BITWISE_RINGS)
def test_sums_match_the_filled_table(text):
    # above order 64 the sums come from the word formula and leave add unfilled;
    # read afterwards, add is the formula's table
    ring = compile_text(text)
    lazy = ring.order > 64
    assert (ring.top_bits is not None) == lazy == (ring._add[0] is None), text
    rng = np.random.default_rng(ring.order)
    x, y = rng.integers(0, ring.order, size=(2, 40))
    a, b = int(x[0]), int(y[0])
    forms = [
        ((a, b), (a, b)),  # scalar
        ((x, y), (x, y)),  # 1-d pairs
        ((x, np.uint16(b)), (x, np.uint16(b))),  # 1-d against a scalar
        ((x[:5],), (x[:5],)),  # rows
        ((a,), (a,)),  # one row
        ((x[:, None], y), (x[:, None], y)),  # broadcast 2-d
        (np.ix_(x[:7], y), (np.ix_(x[:7], y),)),
        ((ring.one, ring.neg), (ring.one, ring.neg)),
        ((x[:5], slice(3, 90)), (x[:5], slice(3, 90))),  # rows cut to a slice of columns
        ((a, slice(7, None)), (a, slice(7, None))),  # one row, cut
    ]
    got = [sums(ring, *args) for args, _ in forms]
    assert (ring._add[0] is None) == lazy, text
    add = ring.add
    for value, (_, index) in zip(got, forms):
        want = add[index if len(index) > 1 else index[0]]
        assert type(value) is type(want) and np.asarray(value).dtype == np.uint16, (text, index)
        assert np.shape(value) == np.shape(want) and np.array_equal(value, want), (text, index)
    if lazy:
        assert np.array_equal(add, bitwise_add_formula(ring.order, ring.top_bits)), text


def built_from_rows(text, monkeypatch, cap=None):
    """(ring, high, generator rows) of the outermost `bitwise_ring` call
    compiling `text`: the rows as the construction hands them over."""
    calls, build = [], construct.bitwise_ring
    with monkeypatch.context() as patch:
        patch.setattr(construct, "bitwise_ring", lambda *a: calls.append(a) or build(*a))
        ring = compile_text(text, cap)
    high, rows = calls[-1][:2]
    return ring, high, np.asarray(rows)


def swar_sum(a, b, high):
    """a + b in the bitwise addition with top bits `high`, on int64 words."""
    a, b, low = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), 0xFFFF & ~high
    return ((a & low) + (b & low)) ^ ((a ^ b) & high)


def product_forms(n, rng):
    """(products arguments, the matching index into the whole mul) pairs:
    scalars, index arrays, broadcasts, `np.ix_`, rows and rows cut to
    slices with a start, a stop, a step, and partial ranges of the high
    halves, at order n."""
    x, y = rng.integers(0, n, size=(2, 40))
    a, b = int(x[0]), int(y[0])
    g = 1 << int(rng.integers(n.bit_length() - 1))
    bits = [1 << k for k in range(n.bit_length() - 1)]
    return [
        ((a, b), (a, b)),  # scalar
        ((x, y), (x, y)),  # 1-d pairs
        ((x, np.uint16(b)), (x, np.uint16(b))),  # 1-d against a scalar
        ((x[:5],), (x[:5],)),  # rows
        ((x[:0],), (x[:0],)),  # no rows
        ((a,), (a,)),  # one row
        ((x[:6].reshape(2, 3),), (x[:6].reshape(2, 3),)),  # a 2-d block of rows
        ((x[:, None], y), (x[:, None], y)),  # broadcast 2-d
        (np.ix_(x[:7], y), (np.ix_(x[:7], y),)),
        ((np.arange(n), g), (slice(None), g)),  # a whole column
        ((np.arange(n)[:, None], [1, g]), (slice(None), [1, g])),  # two whole columns
        ((1, np.arange(n, dtype=np.uint16)), (1, slice(None))),
        ((x[:5], slice(3, 90)), (x[:5], slice(3, 90))),  # rows cut to a slice of columns
        ((a, slice(7, None)), (a, slice(7, None))),  # one row, cut
        ((x[:5], slice(n // 2 + 1, n // 2 + 2)), (x[:5], slice(n // 2 + 1, n // 2 + 2))),  # inside one high half
        ((x[:5], slice(5, n - 3, 7)), (x[:5], slice(5, n - 3, 7))),  # with a step
        ((x[:3], slice(None, None, n // 16 or 1)), (x[:3], slice(None, None, n // 16 or 1))),
        ((a, slice(n - 2, 3, -5)), (a, slice(n - 2, 3, -5))),  # a negative step
        ((x[:5], slice(9, 9)), (x[:5], slice(9, 9))),  # empty
        ((bits,), (bits,)),  # the rows at the bit generators, as the subsets and the cache read them
        (([g, 1, bits[-1], 3],), ([g, 1, bits[-1], 3],)),
    ]


# the columns cut to slices of z: whole, inside one half, across halves, one z, none
def column_cuts(n):
    return [slice(None), slice(5, n - 3), slice(n // 2 + 1, n // 2 + 2), slice(1, n // 2 + 9), slice(3, 3)]


@pytest.mark.parametrize("text", BITWISE_RINGS)
def test_products_match_the_filled_table(text, monkeypatch):
    # above order 512 the products and columns of products come from the
    # quarter tables and leave mul unfilled; read afterwards (`_bitwise_mul_table`),
    # mul is the table that the input generator rows fill, read whole, by row
    # extension. Up to 512 mul is whole, and they are gathers
    ring, high, rows = built_from_rows(text, monkeypatch)
    n, lazy = ring.order, ring.order > 512
    assert (ring.mul_quarters is not None) == lazy == (ring._mul[0] is None), text
    rng = np.random.default_rng(n)
    forms = product_forms(n, rng)
    got = [core.products(ring, *args) for args, _ in forms]
    x = rng.integers(0, n, size=9)
    columns = core.product_columns(ring, x)  # columns[k, z] = z * x[k]
    cut_columns = [core.product_columns(ring, x, cut) for cut in column_cuts(n)]
    assert core.product_columns(ring, x[:0]).shape == (0, n), text
    assert (ring._mul[0] is None) == lazy, text
    mul = ring.mul
    assert np.array_equal(mul, gathered_tables(high, rows)[1]), text
    for value, (_, index) in zip(got, forms):
        want = mul[index if len(index) > 1 else index[0]]
        assert type(value) is type(want) and np.asarray(value).dtype == np.uint16, (text, index)
        assert np.shape(value) == np.shape(want) and np.array_equal(value, want), (text, index)
    assert columns.dtype == np.uint16 and columns.shape == (9, n) and np.array_equal(columns, mul[:, x].T), text
    for cut, value in zip(column_cuts(n), cut_columns):
        want = mul[cut, x].T
        assert value.dtype == np.uint16 and value.shape == want.shape and np.array_equal(value, want), (text, cut)


def test_products_at_order_65536_match_the_rows_filled_from_the_input(monkeypatch):
    # m(2,z(16)): a whole table would be 8 GiB, so sampled rows of it, each the
    # int64 sum of the input generator rows at its bits, and every row's
    # entries at sampled columns, filled the same way along x, are the
    # reference for the products, rows and columns that the quarters give
    ring, high, rows = built_from_rows("m(2,z(16))", monkeypatch, 1 << 16)
    n, (low_rows, high_rows, split) = ring.order, ring.mul_quarters
    assert n == 1 << 16 and split == 8 and low_rows.shape == high_rows.shape == (256, 512)
    rng = np.random.default_rng(65536)
    whole_rows = {}

    def row(v):  # mul[v], the sum of the input generator rows at the bits of v
        if v not in whole_rows:
            out = np.zeros(n, dtype=np.int64)
            for b in (b for b in range(16) if v >> b & 1):
                out = swar_sum(out, rows[b], high)
            whole_rows[v] = out
        return whole_rows[v]

    checked = 0
    for args, index in product_forms(n, rng):
        if isinstance(index[0], tuple):  # an np.ix_ pair
            index = index[0]
        if isinstance(index[0], slice):
            continue  # whole columns, which product_columns gives below
        value = core.products(ring, *args)
        if len(index) == 1 or isinstance(index[1], slice):  # rows, cut to a slice
            xs, cut = np.asarray(index[0]), index[1] if len(index) > 1 else slice(None)
            want = np.array([row(v)[cut] for v in xs.ravel().tolist()], dtype=np.int64).reshape(*xs.shape, len(range(n)[cut]))
        else:
            xs, ys = np.broadcast_arrays(np.asarray(index[0]), np.asarray(index[1]))
            want = np.array([row(v)[w] for v, w in zip(xs.ravel().tolist(), ys.ravel().tolist())]).reshape(xs.shape)
        assert np.asarray(value).dtype == np.uint16 and np.shape(value) == np.shape(want), index
        assert np.array_equal(value, want), index
        checked += 1
    assert checked == 19
    y = rng.integers(0, n, size=9)
    by_x = np.zeros((n, len(y)), dtype=np.int64)  # by_x[v, k] = v * y[k], extended along v
    for b in range(16):
        by_x[1 << b : 2 << b] = swar_sum(by_x[: 1 << b], rows[b, y], high)
    for cut in column_cuts(n):
        value = core.product_columns(ring, y, cut)
        assert value.dtype == np.uint16 and np.array_equal(value, by_x[cut].T), cut
    assert ring._mul[0] is None


@pytest.mark.parametrize("text", ["m(2,gf(8))", "t(2,z(16))"])
def test_r_mod_zero_shares_the_deferred_table_and_fills_it_once(text, monkeypatch):
    # R/{0} shares R's top bits and add cell: neither build fills add, and the
    # first read, through either ring, fills one table for both
    fills, fill = [], core._bitwise_add_table
    monkeypatch.setattr(core, "_bitwise_add_table", lambda n, high: fills.append(n) or fill(n, high))
    for first in (0, 1):
        ring = compile_text(text)
        fills.clear()  # the base's own build fills its small table
        quotient, projection = build_quotient(ring, ElemSet.of(ring, [ring.zero]))
        assert np.array_equal(projection, np.arange(ring.order)) and quotient.mul is ring.mul
        assert quotient.top_bits == ring.top_bits is not None and quotient.basis == ring.basis
        assert fills == [] and quotient._add[0] is None
        pair = (ring, quotient) if first == 0 else (quotient, ring)
        assert pair[0].add is pair[1].add and fills == [ring.order], (text, first)


@pytest.mark.parametrize("width", [0, 5])
def test_a_left_identity_that_is_no_right_identity_is_rejected(width):
    # R = {[[a, b], [0, 0]]} over Z/2 (bits 0-1), times Z/2^width (bits 2 on): every
    # relation holds, and one = (E11, 1) is a left identity, but (E12, 0) * one = 0,
    # so only the check on one's column catches it (above order 64 too, at width 5)
    n = 4 << width
    rows = np.zeros((2 + width, n), dtype=np.int64)
    y = np.arange(n)
    rows[0] = y & 3  # (E11, 0) * (r, z) = (r, 0)
    for k in range(width):  # (0, 2^k) * (r, z) = (0, 2^k z)
        rows[2 + k] = ((y >> 2 << k) % (1 << width)) << 2
    high = 0b11 | (1 << (1 + width) if width else 0)
    neg = (y & 3) | (((-(y >> 2)) % (1 << width)) << 2 if width else 0)
    one = 1 | (4 if width else 0)
    error = assert_rejected_as_whole_tables(high, rows, one, neg)
    assert [v.kind for v in error.violations] == ["NoIdentity"]
