"""Builders compiling ring constructions to validated TableRings.

Element encodings are deterministic and documented per builder so that
witnesses and cached results are reproducible:

* ``zmod(n)``: index = residue.
* ``gf(q)``: coefficient vector over the prime field in a fixed modulus,
  index = little-endian digit value (c0 + p*c1 + ...).
* ``matrix(k, R)`` / ``triangular(k, R)``: stored cells row-major, index =
  little-endian base-|R| digits over those cells.
* ``product``: mixed radix, first factor least significant.
* ``quotient``: cosets sorted by smallest member index; the tables on the
  coset representatives go through the projection (``_reindex``).
* ``corner``: elements of eRe sorted by parent index; the tables go through
  the back-map elems[i] -> i (``_reindex``, shared with subrings).
* ``trivial extension``: pair (r, m) at index r*|R| + m.
* ``group ring``: coefficient of group element i is digit i, index =
  little-endian base-|R| value.
* ``truncated skew polynomials``: coefficient of x^j is digit j.

Galois fields gf(p^d), direct products, matrices, triangular matrices,
trivial extensions, group rings and truncated skew polynomials are all
digit vectors with componentwise addition (over z(p), over the factors,
or over a base ring R), and share one structure-constant builder. Each
construction gives only the product (c*e_w)*b of a monomial with every
element, as images @ weights (the images of b's digits and the place
values they land on, see `_digit_vector_tables`); the builder fills
every other row by additive row extension:
for x = x' + c*e_w with x' below the place value of digit w, add[x] =
add[x'][add[c*e_w]] and mul[x] = add[mul[x'], mul[c*e_w]], and the
tables go through `validate_ring`. Over bases whose addition is bitwise
on their index, the builder asks only for the K monomials that are bit
generators (c a power of two) and hands their product rows to
`core.bitwise_ring`. Up to order 512 that fills both tables whole.
Above 512 the ring keeps the top bits of the word formula for add, and
for mul splits both operands of a product into a low and a high half at
the middle bit and keeps only the quarter tables, the products of each
half of x with the corner columns, summed from the generator rows, so
both tables are filled only when read whole. `core.bitwise_ring` then
proves the ring from the relations on the generator rows (see
`_digit_vector_tables`). A
base's products are read through `core.products`, so a deferred base
table stays unfilled.
"""

from __future__ import annotations

from itertools import repeat
from math import prod

import numpy as np

from .core import (
    DEFAULT_MAX_ORDER,
    MAX_TABLE_ORDER,
    ElemSet,
    GaloisMeta,
    GroupRingMeta,
    MatrixMeta,
    OutOfCapError,
    ProductMeta,
    QuotientMeta,
    CornerMeta,
    Record,
    RingError,
    SkewPolyMeta,
    TABLE_DTYPE,
    TableRing,
    TriangularMeta,
    TrivialExtMeta,
    ZmodMeta,
    _CHUNK_CELLS,
    _index_table,
    all_digits,
    bitwise_ring,
    elem_pow,
    encode_digits,
    products,
    sums,
    top_bits_of,
    validate_ring,
)
from .groups import GroupTable
from .subsets import additive_generators, is_two_sided_ideal

GF_MODULI = {
    # q: (p, little-endian monic modulus), fixed so encodings never drift
    4: (2, (1, 1, 1)),       # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),    # x^3 + x + 1
    9: (3, (2, 2, 1)),       # x^2 + 2x + 2
}
SUPPORTED_GF = (2, 3, 4, 5, 7, 8, 9)


class UnsupportedOrderError(RingError):
    """Requested Galois field order is outside the supported list."""


class NotAnIdealError(RingError):
    pass


class ImproperIdealError(RingError):
    pass


class NotIdempotentError(RingError):
    pass


class ZeroCornerError(RingError):
    pass


class InvalidEndomorphismError(RingError):
    pass


def _check_cap(radices, cap: int | None) -> None:
    """Refuse a ring whose order, the product of `radices`, is above `cap`
    (by default DEFAULT_MAX_ORDER) or MAX_TABLE_ORDER. Each builder calls
    it before it builds anything of the ring's size. The product is taken
    one radix at a time and given up once it passes both 2^64 and the cap,
    so an order of any size is refused within a few dozen products."""
    cap = DEFAULT_MAX_ORDER if cap is None else cap
    order, bound = 1, max(cap, 1 << 64)
    for radix in radices:
        order *= radix
        if order > bound:
            raise OutOfCapError(f"order above 2^64 exceeds cap {cap}")
    if order > cap:
        raise OutOfCapError(f"order {order} exceeds cap {cap}")
    if order > MAX_TABLE_ORDER:  # checked before any n x n table is allocated
        raise OutOfCapError(f"order {order} exceeds {MAX_TABLE_ORDER}, the limit of 16-bit table storage")


# ---------------------------------------------------------------------------
# base rings
# ---------------------------------------------------------------------------


def build_zmod(n: int, cap: int | None = None) -> TableRing:
    """Z/n with index = residue."""
    if n < 2:
        raise ValueError("zmod requires n >= 2")
    _check_cap((n,), cap)
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return validate_ring(add, mul, 0, 1, meta=ZmodMeta(n))


def _poly_name(digits) -> str:
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "a" if i == 1 else f"a^{i}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) or "0"


def build_gf(q: int, cap: int | None = None) -> TableRing:
    """The field of order q for q in {2,3,4,5,7,8,9}. A prime field is
    z(q) relabelled: its tables, validation and names, under GaloisMeta,
    so they are not validated a second time."""
    if q not in SUPPORTED_GF:
        raise UnsupportedOrderError(f"GF({q}) is not in the supported list {SUPPORTED_GF}")
    _check_cap((q,), cap)
    if q in (2, 3, 5, 7):
        base = build_zmod(q)
        return base.relabelled(base.name_of, GaloisMeta(q, q, 1, None))
    p, modulus = GF_MODULI[q]
    d = len(modulus) - 1
    # x^d = -(m_0 + m_1 x + ... + m_{d-1} x^{d-1})
    reduction = np.array([(-m) % p for m in modulus[:-1]])

    def mono_rule(c, w, digits):
        # (c x^w) b is c*b shifted up w places; fold each degree >= d back, top first
        raw = np.zeros((len(digits), d + w), dtype=np.int64)
        raw[:, w:] = c * digits
        for k in range(d + w - 1, d - 1, -1):
            raw[:, k - d : k] += raw[:, k, None] * reduction
        return raw[:, :d] % p, p ** np.arange(d)

    digits, build = _digit_vector_tables([build_zmod(p)] * d, mono_rule)
    return build(1, _digit_names(digits, _poly_name), GaloisMeta(q, p, d, modulus))


# ---------------------------------------------------------------------------
# the structure-constant builder shared by every digit-vector construction
# ---------------------------------------------------------------------------


def _digit_names(digits: np.ndarray, name):
    """Index -> `name` of the index's digit list, formatted when asked for."""
    return lambda a: name(digits[a].tolist())


def _sum_name(base: TableRing, coeffs, symbols) -> str:
    """Name of sum(c_i s_i) over the nonzero coefficients; symbol None is the constant term."""
    terms = []
    for c, symbol in zip(coeffs, symbols):
        if c == base.zero:
            continue
        cname = base.name_of(c)
        if symbol is None:
            terms.append(cname)
        elif c == base.one:
            terms.append(symbol)
        elif any(ch in cname for ch in "+- "):
            terms.append(f"({cname}){symbol}")
        else:
            terms.append(f"{cname}{symbol}")
    return "+".join(terms) or base.name_of(base.zero)


def _digit_vector_tables(bases: list[TableRing], mono_rule):
    """(digits, build) for the ring of digit vectors over `bases`, where
    `build(one, names, meta)` returns the validated TableRing. The caller
    has passed the order through `_check_cap`.

    Digit w lies in `bases[w]` and counts place[w] = |bases[0]| * ... *
    |bases[w-1]| (mixed radix, first digit least significant). Addition
    is componentwise, so neg negates each digit over its own base.
    `mono_rule(c, w, digits)` returns (images, weights), the index of
    (c*e_w)*b being images[b] @ weights for each element b (a row of
    `digits`): images[:, v] is b's digit v under a map of the base (c*b_v,
    or c*alpha^i(b_v)) and weights[v] the place value of the digit it
    lands on, or 0 if it drops (gf's images are its folded digits). The
    rows whose rule returns one images array (matrices, group rings and
    trivial extensions keep one per c) take one product between them.

    When every base's addition is bitwise (`core.top_bits_of`: z(2^k),
    gf(2^d), and digit vectors over those) and there are at least
    two digits, each index x is the concatenation of the bits of its
    digits, and each digit's fields are added on their own; a base's top
    bit is a field's top bit, so no field crosses a digit. The bitwise
    formula (see core), with H the sum of every base's H shifted to its
    digit's offset, is therefore exactly the ring's addition, and the bit
    generators 2^b are the monomials c*e_w with c a power of two. Only
    their K product rows are made here, written into one (K, n) block;
    `core.bitwise_ring` builds both tables from them, whole up to order
    512 and above it with both operands of a product split into a low and
    a high half at the middle bit (a field may cross it, as the two halves
    share no bit), and checks the relations on those rows.

    Otherwise both tables are gathered, in TABLE_DTYPE, and go through
    `validate_ring`: every row follows by row extension, x = x' + c*e_w
    with x' < place[w] giving add[x] = add[x'][add[c*e_w]] and mul[x] =
    add[mul[x'], mul[c*e_w]].
    """
    if any(base.zero != 0 for base in bases):
        raise RingError("digit-vector constructions need the base zero at index 0")
    radices = [base.order for base in bases]
    place = [prod(radices[:w]) for w in range(len(radices) + 1)]
    order = place[-1]
    digits = all_digits(radices)
    distinct = {id(base): base for base in bases}  # m(k, R) repeats one base k^2 times
    neg = encode_digits(bases[0].neg[digits] if len(distinct) == 1 else np.stack([base.neg[digits[:, w]] for w, base in enumerate(bases)], axis=1), radices)
    high = None
    if len(bases) > 1:  # a single digit extends no row, so skip the r x r compares
        highs = {key: top_bits_of(base) for key, base in distinct.items()}
        if None not in highs.values():
            high = sum(highs[id(base)] << (place[w].bit_length() - 1) for w, base in enumerate(bases))
    if high is not None:
        # bit b of x lies in digit w with place[w] <= 2^b < place[w + 1]; 2^b is (2^b / place[w]) e_w
        w_of = [w for w, radix in enumerate(radices) for _ in range(radix.bit_length() - 1)]
        generator_rows = np.empty((len(w_of), order), dtype=TABLE_DTYPE)
        _encode_monomials(mono_rule, [(b, (1 << b) // place[w], w) for b, w in enumerate(w_of)], digits, generator_rows)
        return digits, lambda one, names, meta: bitwise_ring(high, generator_rows, one, neg, names, meta)
    monomials = [(c * place[w], c, w) for w, radix in enumerate(radices) for c in range(1, radix)]
    # rows x + lo .. x + hi - 1 extend rows lo .. hi - 1 by the monomial x = c*e_w
    rows = max(1, _CHUNK_CELLS // order)
    blocks = [(x, lo, min(place[w], lo + rows)) for x, c, w in monomials for lo in range(1, place[w], rows)]
    add = np.empty((order, order), dtype=TABLE_DTYPE)
    mul = np.empty((order, order), dtype=TABLE_DTYPE)
    mul[0] = 0
    add[0] = np.arange(order)
    _encode_monomials(mono_rule, monomials, digits, mul)
    for x, c, w in monomials:
        add[x] = np.arange(order) + (bases[w].add[c, digits[:, w]].astype(np.intp) - digits[:, w]) * place[w]
    for x, lo, hi in blocks:
        np.take(add[lo:hi], add[x], axis=1, out=add[x + lo : x + hi])
    _extend_by_gather(add, mul, blocks)
    return digits, lambda one, names, meta: validate_ring(add, mul, 0, one, neg=neg, names=names, meta=meta)


def _encode_monomials(mono_rule, monomials, digits: np.ndarray, out: np.ndarray) -> None:
    """out[r] = images @ weights of `mono_rule(c, w, digits)` for each (r, c, w)
    in `monomials`, one product in float64 per distinct images array; exact,
    as every term and partial sum is an integer below the order."""
    shared = {}  # id(images) -> (images, [(r, weights)]); holding images keeps each id unique
    for r, c, w in monomials:
        images, weights = mono_rule(c, w, digits)
        shared.setdefault(id(images), (images, []))[1].append((r, weights))
    for images, rows in shared.values():
        at, weights = zip(*rows)
        out[list(at)] = np.array(weights, dtype=np.float64) @ images.T.astype(np.float64)


def _extend_by_gather(add: np.ndarray, mul: np.ndarray, blocks) -> None:
    """mul[x + lo : x + hi] = add[mul[lo:hi], mul[x]], one gather per cell.

    Reads whole rows of `add`, so it runs after add is filled.
    """
    order = add.shape[0]
    flat_add = add.ravel()
    for x, lo, hi in blocks:
        cells = mul[lo:hi].astype(np.intp)  # the flat indices, built in place: one temporary
        cells *= order
        cells += mul[x]
        np.take(flat_add, cells, out=mul[x + lo : x + hi])


# ---------------------------------------------------------------------------
# matrices and triangular matrices
# ---------------------------------------------------------------------------


def _matrix_like(base: TableRing, k: int, positions: list[tuple[int, int]]):
    pos_index = {pos: w for w, pos in enumerate(positions)}
    scaled = {}  # c -> the cells c*b of every element, which every E_ij shares

    def mono_rule(c, w, digits):
        # row i of (c E_ij) B is c times row j of B: cell (j, l) moves to (i, l), every other cell drops
        i, j = positions[w]
        if c not in scaled:
            scaled[c] = products(base, c, digits)
        return scaled[c], [base.order ** pos_index[i, l] if row == j and (i, l) in pos_index else 0 for row, l in positions]

    digits, build = _digit_vector_tables([base] * len(positions), mono_rule)
    one = sum(int(base.one) * base.order**w for w, (i, j) in enumerate(positions) if i == j)

    def name(cells) -> str:
        grid = [[base.name_of(base.zero)] * k for _ in range(k)]
        for (i, j), c in zip(positions, cells):
            grid[i][j] = base.name_of(c)
        return "[" + ",".join("[" + ",".join(row) + "]" for row in grid) + "]"

    return build, one, _digit_names(digits, name)


def build_matrix(base: TableRing, k: int, cap: int | None = None) -> TableRing:
    """k x k matrices over `base`; cells row-major, little-endian digits."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    _check_cap(repeat(base.order, k * k), cap)
    positions = [(i, j) for i in range(k) for j in range(k)]
    build, one, names = _matrix_like(base, k, positions)
    return build(one, names, MatrixMeta(base, k))


def build_triangular(base: TableRing, k: int, cap: int | None = None) -> TableRing:
    """Upper-triangular k x k matrices over `base`."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    _check_cap(repeat(base.order, k * (k + 1) // 2), cap)
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    build, one, names = _matrix_like(base, k, positions)
    return build(one, names, TriangularMeta(base, k, tuple(positions)))


def matrix_unit_index(ring: TableRing, i: int, j: int) -> int:
    """Index of the matrix unit E_ij in a matrix/triangular ring."""
    meta = ring.meta
    if isinstance(meta, MatrixMeta):
        positions = [(r, c) for r in range(meta.size) for c in range(meta.size)]
        base = meta.base
    elif isinstance(meta, TriangularMeta):
        positions = list(meta.positions)
        base = meta.base
    else:
        raise RingError("not a matrix-backed ring")
    w = positions.index((i, j))
    return int(base.one) * base.order**w


# ---------------------------------------------------------------------------
# products, quotients, corners, extensions
# ---------------------------------------------------------------------------


def build_product(factors: list[TableRing], cap: int | None = None) -> TableRing:
    """Direct product, first factor least significant in the index."""
    if not factors:
        raise ValueError("product needs at least one factor")
    _check_cap([f.order for f in factors], cap)

    def mono_rule(c, w, digits):
        # (c e_w) b keeps only component w, which is c * b_w
        return products(factors[w], c, digits[:, w, None]), [prod(f.order for f in factors[:w])]

    digits, build = _digit_vector_tables(factors, mono_rule)
    one = int(encode_digits(np.array([f.one for f in factors]), [f.order for f in factors]))
    names = _digit_names(digits, lambda cells: "(" + ", ".join(f.name_of(c) for f, c in zip(factors, cells)) + ")")
    return build(one, names, ProductMeta(tuple(factors)))


def ideal_closure(ring: TableRing, gens: ElemSet) -> ElemSet:
    """Smallest two-sided ideal containing `gens`.

    A fixpoint over the whole current set I: each round takes I with R*I
    and I*R, each as one gather, then the additive subgroup they
    generate, until I no longer grows.
    """
    mul = ring.mul
    ideal = additive_closure(ring, gens.index_array())
    while True:
        arr = ideal.index_array()
        parts = [arr, np.take(mul, arr, axis=1).ravel(), mul[arr, :].ravel()]  # I, R*I, I*R
        grown = additive_closure(ring, np.concatenate(parts))
        if len(grown) == len(ideal):
            return ideal
        ideal = grown


def additive_closure(ring: TableRing, items) -> ElemSet:
    """The additive subgroup generated by the indices `items` (fixpoint of pairwise sums)."""
    group = ElemSet.of(ring, items).mask().copy()
    group[ring.zero] = True
    while True:
        arr = np.flatnonzero(group)
        total = np.zeros(ring.order, dtype=bool)
        total[sums(ring, arr[:, None], arr)] = True  # holds the group, as 0 is in it
        if np.count_nonzero(total) == len(arr):
            return ElemSet(ring, total)
        group = total


def _reindex(ring: TableRing, elems: np.ndarray, back: np.ndarray | None = None):
    """(add, mul, back): tables of a ring derived from the sorted parent
    elements `elems`, through `back`, which maps each parent index to its
    index in the derived ring.

    `back` defaults to the subring map elems[i] -> i and -1 off `elems`; a
    subset that is not closed then leaves -1 entries, which
    `validate_ring`'s range check rejects.
    """
    if back is None:
        back = np.full(ring.order, -1, dtype=np.int32)
        back[elems] = np.arange(len(elems), dtype=np.int32)
    cells = np.ix_(elems, elems)
    return back[sums(ring, *cells)], back[products(ring, *cells)], back


def build_quotient(ring: TableRing, ideal: ElemSet) -> tuple[TableRing, np.ndarray]:
    """R/I for a proper two-sided ideal; returns (quotient, projection).

    Cosets are indexed in ascending order of their smallest member. R/I is
    never larger than R, which has already passed the order cap, so it is
    not checked against the cap again.
    """
    ok, witness = is_two_sided_ideal(ring, ideal)
    if not ok:
        raise NotAnIdealError(f"generating set is not a two-sided ideal: {witness}")
    return _build_quotient(ring, ideal)


def _build_quotient(ring: TableRing, ideal: ElemSet, spanning=None) -> tuple[TableRing, np.ndarray]:
    """`build_quotient` for an ideal the caller has already proved two-sided.

    `spanning`, if given, holds greedy generators of the ideal
    (`additive_generators`), which are then not taken again. The cosets
    are labelled without a sort: their least members are the values the
    coset minima take, marked by one scatter, and a coset's index is the
    count of marked members below its own.

    R/{0} is R relabelled: its projection is the identity, so it shares
    R's read-only tables, deferred ones included (`TableRing.relabelled`),
    and R's validation and basis with them. Any other quotient's tables go
    through `validate_ring` with R and the projection: when R is
    exhaustive of order at most 64, π(a+b) = π(a)+π(b) and π(ab) =
    π(a)π(b) are checked on all of R's pairs in place of the n^3 scan, so
    a wrong table, or an `ideal` that is not one, raises with R's first
    failing pair; the quotient of any other R gets the scan.
    """
    if len(ideal) == ring.order:
        raise ImproperIdealError("quotient by the whole ring is the zero ring")
    # lowest[x] is the smallest member of the coset x + I. Up to 64 members
    # it is the minimum down the rows add[I] (addition is commutative, so
    # column x holds x + I). A larger I is reached from {0} by greedy
    # generators g: doubling extends the minimum over x + t*g + S from
    # t < 2^j to t < 2^(j+1), and once a doubling changes nothing, lowest
    # is constant along the multiples of g, so it is the minimum over
    # x + <g> + S; a step that doubles to 0 adds nothing and is not read.
    # Each step reads n sums, in place of |I| x n
    members = ideal.index_array()
    if len(members) <= 64:
        lowest = sums(ring, members).min(axis=0)
    else:
        idx = np.arange(ring.order, dtype=TABLE_DTYPE)
        lowest = idx
        for step in additive_generators(ring, members)[0] if spanning is None else spanning:
            while step != ring.zero and not np.array_equal(moved := np.minimum(lowest, lowest[sums(ring, idx, step)]), lowest):
                lowest, step = moved, sums(ring, step, step)
    # np.unique(lowest, return_inverse=True), without a sort
    least = np.zeros(ring.order, dtype=bool)
    least[lowest] = True
    reps, projection = np.flatnonzero(least), (np.cumsum(least, dtype=np.int32) - 1)[lowest]

    def names(i):
        return f"[{ring.name_of(int(reps[i]))}]"

    meta = QuotientMeta(ring, ideal.indices(), projection)
    if len(reps) == ring.order:
        return ring.relabelled(names, meta), projection
    add, mul, _ = _reindex(ring, reps, projection)
    out = validate_ring(add, mul, int(projection[ring.zero]), int(projection[ring.one]), names=names, meta=meta, parent=ring, projection=projection)
    return out, projection


def build_corner(ring: TableRing, e: int) -> tuple[TableRing, np.ndarray]:
    """The corner eRe with identity e; returns (corner, embedding). Its
    tables are proved by the embedding when R's are (see `validate_ring`).
    Like R/I, eRe is never larger than R, so it meets R's cap."""
    ring.check_index(e)
    if int(ring.mul[e, e]) != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    if e == ring.zero:
        raise ZeroCornerError("corner at zero is the zero ring")
    exe = np.unique(ring.mul[e, ring.mul[:, e]])
    embedding = exe.astype(np.int32)
    add, mul, back = _reindex(ring, exe)
    meta = CornerMeta(ring, e, embedding)
    out = validate_ring(add, mul, int(back[ring.zero]), int(back[e]), names=lambda i: ring.name_of(int(exe[i])), meta=meta, parent=ring, embedding=embedding)
    return out, embedding


def build_trivial_extension(ring: TableRing, cap: int | None = None) -> TableRing:
    """T(R, R): pairs (r, m) with (r,m)(s,n) = (rs, rn + ms); index r*|R|+m."""
    _check_cap((ring.order, ring.order), cap)
    scaled = {}  # c -> the digits (cn, cs) of every element (s, n), which both monomials share

    def mono_rule(c, w, digits):
        # digit 0 is m, digit 1 is r: (0,c)(s,n) = (0, cs) and (c,0)(s,n) = (cs, cn)
        if c not in scaled:
            scaled[c] = products(ring, c, digits)
        return scaled[c], [1, ring.order] if w == 1 else [0, 1]

    digits, build = _digit_vector_tables([ring] * 2, mono_rule)
    names = _digit_names(digits, lambda mr: f"({ring.name_of(mr[1])}, {ring.name_of(mr[0])})")
    return build(ring.one * ring.order, names, TrivialExtMeta(ring))


# ---------------------------------------------------------------------------
# group rings
# ---------------------------------------------------------------------------


def build_group_ring(base: TableRing, group: GroupTable, cap: int | None = None) -> TableRing:
    """R[G]: functions G -> R with convolution product."""
    _check_cap(repeat(base.order, group.order), cap)
    scaled = {}  # c -> the digits c*b_j of every element, which every g_w shares

    def mono_rule(c, w, digits):
        # (c g_w)(sum_j b_j g_j) = sum_j (c b_j) g_w g_j: digit j moves to g_w g_j
        if c not in scaled:
            scaled[c] = products(base, c, digits)
        return scaled[c], base.order ** group.op[w]  # below the order, which fits int32

    digits, build = _digit_vector_tables([base] * group.order, mono_rule)
    one = int(base.one) * base.order**group.identity
    symbols = [None if gi == group.identity else group.names[gi] for gi in range(group.order)]
    names = _digit_names(digits, lambda coeffs: _sum_name(base, coeffs, symbols))
    return build(one, names, GroupRingMeta(base, group, digits))


# ---------------------------------------------------------------------------
# endomorphisms and truncated skew polynomials
# ---------------------------------------------------------------------------


class Endomorphism(Record):
    """A validated unital ring endomorphism given by an image table:
    `ring`, `map` (index -> image index) and `name`."""

    __slots__ = ("ring", "map", "name")
    _defaults = {"name": "endo"}


def validate_endomorphism(ring: TableRing, mapping, name: str = "endo") -> Endomorphism:
    arr = np.asarray(mapping)
    if arr.shape != (ring.order,):
        raise InvalidEndomorphismError("image table must list one image per element")
    try:  # range-checked on the input's own dtype, like a ring table, so no image wraps
        arr = _index_table(arr, ring.order)
    except ValueError:
        raise InvalidEndomorphismError("image out of range") from None
    if int(arr[ring.zero]) != ring.zero or int(arr[ring.one]) != ring.one:
        raise InvalidEndomorphismError("map must fix 0 and 1")
    if not np.array_equal(arr[ring.add], ring.add[arr[:, None], arr[None, :]]):
        raise InvalidEndomorphismError("map does not preserve addition")
    if not np.array_equal(arr[ring.mul], ring.mul[arr[:, None], arr[None, :]]):
        raise InvalidEndomorphismError("map does not preserve multiplication")
    arr.setflags(write=False)
    return Endomorphism(ring, arr, name)


def identity_endo(ring: TableRing) -> Endomorphism:
    return validate_endomorphism(ring, np.arange(ring.order), "id")


def frobenius_endo(ring: TableRing) -> Endomorphism:
    meta = ring.meta
    if not isinstance(meta, GaloisMeta):
        raise InvalidEndomorphismError("frob is only defined on Galois fields")
    images = [elem_pow(ring, a, meta.char) for a in range(ring.order)]
    return validate_endomorphism(ring, images, "frob")


def endomorphism_from_text(ring: TableRing, text: str, name: str = "endo") -> Endomorphism:
    """Parse the endomorphism file format: `order n` then lines `i -> j`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].lower().startswith("order"):
        raise InvalidEndomorphismError("expected an 'order n' header line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise InvalidEndomorphismError(f"bad header: {exc}") from exc
    if n != ring.order:
        raise InvalidEndomorphismError(f"order {n} does not match ring order {ring.order}")
    images = np.full(n, -1, dtype=np.int32)
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split("->")]
        if len(parts) != 2:
            raise InvalidEndomorphismError(f"bad mapping line: {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidEndomorphismError(f"index out of range 0..{n - 1}: {ln!r}")
        if images[i] >= 0:
            raise InvalidEndomorphismError(f"source index {i} is mapped twice: {ln!r}")
        images[i] = j
    if (images < 0).any():
        raise InvalidEndomorphismError("mapping is not total")
    return validate_endomorphism(ring, images, name)


def endomorphism_from_file(ring: TableRing, path, name: str = "endo") -> Endomorphism:
    with open(path, "r", encoding="utf-8") as fh:
        return endomorphism_from_text(ring, fh.read(), name)


def build_truncated_skew_poly(
    base: TableRing, alpha: Endomorphism, k: int, cap: int | None = None
) -> TableRing:
    """R[x; alpha]/(x^k): degree-<k coefficient vectors with x*r = alpha(r)*x.

    The ideal generated by x is nilpotent, so it sits inside the radical
    and the quotient by it recovers R.
    """
    if k < 1:
        raise ValueError("truncation exponent must be >= 1")
    if alpha.ring is not base:
        raise InvalidEndomorphismError("endomorphism belongs to a different ring")
    _check_cap(repeat(base.order, k), cap)
    # alpha^i applied to every base element, i < k
    powers = [np.arange(base.order, dtype=np.int32)]
    for _ in range(1, k):
        powers.append(alpha.map[powers[-1]])

    def mono_rule(c, i, digits):
        # (c x^i)(b_j x^j) = c alpha^i(b_j) x^(i+j), truncated at degree k
        return products(base, c, powers[i][digits[:, : k - i]]), base.order ** np.arange(i, k)

    digits, build = _digit_vector_tables([base] * k, mono_rule)
    symbols = [None, "x"] + [f"x^{i}" for i in range(2, k)]
    names = _digit_names(digits, lambda coeffs: _sum_name(base, coeffs, symbols))
    return build(int(base.one), names, SkewPolyMeta(base, alpha.name, alpha.map, k, digits))
