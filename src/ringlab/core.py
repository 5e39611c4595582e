"""Table-backed finite rings: validation, element arithmetic, subsets.

A ring of order n has dense n x n addition and multiplication tables
over element indices 0..n-1 together with the distinguished `zero` and
`one` indices. Every table (`add`, `mul`, `neg`) is stored as uint16,
which holds every index of a ring of order at most 65536. A ring that
`bitwise_ring` builds above order 64 keeps the top bits of its addition
instead of an addition table: `add` is filled from them on first read,
and `sums` reads sums and rows of sums from the word formula without
filling it. Above order 512 it also keeps two quarter tables instead of
a multiplication table: `mul` is filled from them on first read, and
`products` reads products and rows of products off the quarters without
filling it. Every constructor in this package funnels its tables through
`validate_ring`, or, for a digit-vector ring over bases whose addition is
bitwise on the index, its K bit-generator rows through `bitwise_ring`, so
a `TableRing` in hand always satisfies the ring axioms; the `validation`
attribute records how they were checked:

- "exhaustive": decided for every triple. By `bitwise_ring` on the
  relations of the generator rows it built the tables from, at every
  order. For whole tables, up to order 64 by an n^3 scan; above it, when
  the addition is bitwise on the index (z(2^k), gf(2^d) and every
  construction over them), by the same proof: mul must be the table
  `bitwise_ring` fills from its own generator rows. Such a ring above
  order 64 keeps its generators in `TableRing.basis`. A quotient, corner
  or subring of an exhaustive ring of order at most 64 is proved by its
  map to that ring instead of the scan (see `_map_violations`).
- "sampled": a ring above order 64 whose addition is not bitwise has the
  four triple identities tested on a fixed sample of triples; every
  other axiom is still checked in full.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

DEFAULT_MAX_ORDER = 4096
TABLE_DTYPE = np.uint16
MAX_TABLE_ORDER = 1 << 16  # the largest order whose indices all fit in TABLE_DTYPE
EXHAUSTIVE_LIMIT = 64
_SAMPLE_TRIPLES = 20000
_SAMPLE_SEED = 0x52494E47


class RingError(Exception):
    """Base class for ring construction and arithmetic errors."""


class OutOfCapError(RingError):
    """A construction would exceed the configured order cap."""


class ElementIndexError(RingError, IndexError):
    """An element index is outside 0..order-1."""


class Violation(NamedTuple):
    """One failed ring axiom with its first witness tuple."""

    kind: str  # NonAssociative | NonDistributive | NoIdentity | NotAbelianGroup | ZeroRing | NotAdditive | NotMultiplicative
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.witness}"


class RingValidationError(RingError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(map(str, violations)))


class Record:
    """A frozen record compared by identity, for records that hold arrays
    or rings, so that `==` never compares arrays. Its fields are the
    subclass's `__slots__`, set once by the constructor, by position or
    by name; `_defaults` maps a field to its default, if it has one."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs and not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        if len(args) < len(names):  # the rest by name or by default
            values = {**self._defaults, **kwargs}
            missing = [name for name in names[len(args) :] if name not in values]
            if missing:
                raise TypeError(f"{type(self).__name__} is missing the fields {missing}")
            args += tuple(values[name] for name in names[len(args) :])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


# ---------------------------------------------------------------------------
# construction metadata
#
# `TableRing.meta` optionally carries one of these records so that
# operations which need the construction shape (augmentation maps, factor
# decodes, embedding maps) can recover it without re-deriving anything.
# ---------------------------------------------------------------------------


class ZmodMeta(NamedTuple):
    n: int


class GaloisMeta(NamedTuple):
    q: int
    char: int
    degree: int
    modulus: tuple[int, ...] | None  # little-endian coefficients, monic


class MatrixMeta(Record):
    __slots__ = ("base", "size")  # TableRing, int


class TriangularMeta(Record):
    __slots__ = ("base", "size", "positions")  # positions: stored (row, col) cells, row-major


class ProductMeta(Record):
    __slots__ = ("factors",)  # tuple of TableRing


class QuotientMeta(Record):
    __slots__ = ("parent", "ideal", "projection")  # ideal: tuple of parent indices; projection: parent index -> coset index


class CornerMeta(Record):
    __slots__ = ("parent", "idempotent", "embedding")  # embedding: corner index -> parent index


class TrivialExtMeta(Record):
    __slots__ = ("base",)


class GroupRingMeta(Record):
    __slots__ = ("base", "group", "digits")  # group: GroupTable; digits: (order, |G|) coefficient index per group element


class SkewPolyMeta(Record):
    __slots__ = ("base", "endo_name", "endo_map", "k", "digits")  # digits: (order, k) coefficient of x^j


class TableRing:
    """A validated finite unital ring over element indices.

    Immutable after construction; all operations are pure lookups, so a
    ring can be shared freely across threads. The one state it changes is
    a deferred table: an addition table kept as its top bits (`top_bits`
    set, `add` given as None), or a multiplication table kept as its two
    quarter tables (`mul_quarters` set, `mul` given as None). The first
    read of `add` or `mul` fills that table and keeps it, read-only. Two threads
    racing on a first read each fill the same table, and both get a
    read-only table with the same entries.

    `names` is the tuple of element names, or a function from an index to
    its name; then each name is formatted when asked for, and the tuple
    only on first access to `names`.

    `basis` is a tuple of elements that generate (R, +): the bit
    generators 1, 2, 4, ..., kept by a ring above order 64 whose
    validation decided every triple, which it does only on the bitwise
    addition, where distinct generators sum without a carry to every
    element; else None. Since mul is bi-additive, a product identity
    that holds on the basis holds on every element.

    `top_bits` is the mask of field top bits of a ring whose addition is
    the bitwise one (see "bitwise addition" below) and whose `add` is
    filled only when read, else None; `sums` reads its sums off the word
    formula.

    `mul_quarters` is (QL, QH, s) for a ring whose `mul` is filled only
    when read, else None: an index x splits into xh = x >> s and xl = x
    mod 2^s, and each quarter holds the products of one half of x with
    the corner columns 0..2^s - 1 (yl) and 2^s + yh (the column of
    yh * 2^s), so x*y = QL[xl, yl] + QL[xl, 2^s + yh] + QH[xh, yl] +
    QH[xh, 2^s + yh] in the bitwise addition (see `bitwise_ring`);
    `products` reads its products off the quarters.
    """

    __slots__ = ("order", "_add", "top_bits", "_mul", "mul_quarters", "neg", "zero", "one", "_names", "_name_of", "meta", "validation", "basis", "expr_text", "__weakref__")

    def __init__(self, order, add, mul, neg, zero, one, names, meta, validation, basis=None, top_bits=None, mul_quarters=None):
        self.order = order
        # one cell per table, shared by a ring over the same tables (`relabelled`)
        self._add = [add]
        self.top_bits = top_bits
        self._mul = [mul]
        self.mul_quarters = mul_quarters
        self.neg = neg
        self.zero = zero
        self.one = one
        self._names = None if callable(names) else names
        self._name_of = names if callable(names) else names.__getitem__
        self.meta = meta
        self.validation = validation
        self.basis = basis
        self.expr_text: str | None = None

    @property
    def add(self) -> np.ndarray:
        """The addition table; a deferred one is filled on first read."""
        cell = self._add
        if cell[0] is None and self.top_bits is not None:
            table = _bitwise_add_table(self.order, self.top_bits)
            table.setflags(write=False)
            cell[0] = table
        return cell[0]

    @property
    def mul(self) -> np.ndarray:
        """The multiplication table; a deferred one is filled on first read."""
        cell = self._mul
        if cell[0] is None and self.mul_quarters is not None:
            table = _bitwise_mul_table(self.mul_quarters, self.top_bits)
            table.setflags(write=False)
            cell[0] = table
        return cell[0]

    def shares_tables(self, other: TableRing) -> bool:
        """Whether `other` is a ring over these very tables (`relabelled`);
        tested on the shared cell, so no deferred table is filled."""
        return self._mul is other._mul

    def relabelled(self, names, meta) -> TableRing:
        """A ring over these very tables, with this validation and basis,
        under other names and meta (R/{0}). Deferred tables are shared as
        well: whichever ring reads one first fills it for both."""
        out = TableRing(self.order, None, None, self.neg, self.zero, self.one, names, meta, self.validation, self.basis, self.top_bits, self.mul_quarters)
        out._add, out._mul = self._add, self._mul
        return out

    def __repr__(self) -> str:
        tag = self.expr_text or f"order={self.order}"
        return f"TableRing({tag})"

    @property
    def names(self) -> tuple[str, ...]:
        if self._names is None:
            self._names = tuple(map(self._name_of, range(self.order)))
        return self._names

    def name_of(self, a: int) -> str:
        return self._name_of(a)

    def describe(self, a: int) -> str:
        return f"{self._name_of(a)} (#{a})"

    def check_index(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ElementIndexError(f"element index {a} out of range 0..{self.order - 1}")


def elem_add(ring: TableRing, a: int, b: int) -> int:
    ring.check_index(a)
    ring.check_index(b)
    return int(sums(ring, a, b))


def elem_mul(ring: TableRing, a: int, b: int) -> int:
    ring.check_index(a)
    ring.check_index(b)
    return int(products(ring, a, b))


def elem_neg(ring: TableRing, a: int) -> int:
    ring.check_index(a)
    return int(ring.neg[a])


def elem_sub(ring: TableRing, a: int, b: int) -> int:
    ring.check_index(a)
    ring.check_index(b)
    return int(sums(ring, a, ring.neg[b]))


def elem_pow(ring: TableRing, a: int, k: int) -> int:
    """a**k by repeated squaring; a**0 is 1. Read through `products`, as
    `elem_mul` is, so a deferred table stays unfilled."""
    ring.check_index(a)
    if k < 0:
        raise ValueError("exponent must be >= 0")
    result = ring.one
    base = a
    while k:
        if k & 1:
            result = int(products(ring, result, base))
        base = int(products(ring, base, base))
        k >>= 1
    return result


def power_orbit(ring: TableRing, a: int) -> tuple[list[int], int]:
    """Distinct powers a^1, a^2, ... and the orbit position re-entered.

    Returns `(orbit, cycle_start)` where `orbit[cycle_start]` equals the
    first repeated power. The orbit never exceeds the ring order, so any
    power of `a` is one of its members. Read through `products`.
    """
    ring.check_index(a)
    orbit: list[int] = []
    position = {}
    x = a
    while x not in position:
        position[x] = len(orbit)
        orbit.append(x)
        x = int(products(ring, x, a))
    return orbit, position[x]


# ---------------------------------------------------------------------------
# bitwise addition
#
# An index of K bits that splits into fields, a field of k bits added mod
# 2^k on its own, is added by ((i & L) + (j & L)) ^ ((i ^ j) & H): H holds
# the top bit of each field and L = ~H. The low k - 1 bits of two fields
# sum below 2^k, so their carry stops at the field's top bit, which is the
# XOR of both top bits and that carry (SWAR; Lamport, CACM 1975). An index
# has at most 16 bits, so every field sits inside one TABLE_DTYPE lane.
# ---------------------------------------------------------------------------


_LANE = int(np.iinfo(TABLE_DTYPE).max)


def field_top_bits(add: np.ndarray) -> int | None:
    """The mask H of field top bits that `add` can only be bitwise with,
    read off its diagonal; None if it cannot be bitwise.

    The order must be 2^K. Bit b is a field's top bit when 2^b + 2^b is
    0; otherwise the sum must be 2^(b+1), the next bit of its field. Bit
    K - 1 is then a top bit, as 2^K is no index. Fields may differ in
    width. Only K entries are read: `bitwise_high_bits` decides whether
    the whole table is bitwise.
    """
    n = add.shape[0]
    bits = n.bit_length() - 1
    if n < 2 or n != 1 << bits:
        return None
    high = 0
    for b in range(bits):
        total = int(add[1 << b, 1 << b])
        if total == 0:
            high |= 1 << b
        elif total != 2 << b:
            return None
    return high


def bitwise_sum(x: np.ndarray, y: np.ndarray, high: int, out: np.ndarray | None = None) -> np.ndarray:
    """x + y, elementwise and broadcast, in the bitwise addition with top
    bits `high`, for TABLE_DTYPE operands. When every field is one bit
    (high = 2^K - 1) the sum is XOR."""
    if high & (high + 1) == 0:
        return np.bitwise_xor(x, y, out=out)
    # L = ~H cut to the lane width: the dtype of a negative int such as ~H would not hold it
    low, high = TABLE_DTYPE(~high & _LANE), TABLE_DTYPE(high)
    top = (x ^ y) & high
    out = np.add(x & low, y & low, out=out)  # the masks apply before the operands broadcast
    out ^= top
    return out


def sums(ring: TableRing, x, y=None):
    """`ring.add[x, y]`, or the rows `ring.add[x]` when y is None, for
    indices or integer index arrays in 0..n-1, broadcast as the gather
    broadcasts them (so `np.ix_` pairs too), as TABLE_DTYPE. A slice y
    cuts the rows of x to those columns.

    On a ring that keeps its top bits (`TableRing.top_bits`) the sums are
    the word formula, so its addition table is never filled for them, and
    many rows are summed a block at a time (`_by_row_blocks`); on every
    other ring they are the gather.
    """
    top = ring.top_bits
    if top is None:
        return ring.add[x] if y is None else ring.add[x, y]
    if isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer)):  # one sum, on Python ints
        x, y, low = int(x), int(y), ~top & _LANE
        return TABLE_DTYPE(((x & low) + (y & low)) ^ ((x ^ y) & top))
    x = np.asarray(x, dtype=TABLE_DTYPE)
    if y is None or isinstance(y, slice):
        cols = np.arange(ring.order, dtype=TABLE_DTYPE)[y or slice(None)]
        return _by_row_blocks(lambda rows: bitwise_sum(rows[..., None], cols, top), x, len(cols))
    return bitwise_sum(x, np.asarray(y, dtype=TABLE_DTYPE), top)


def products(ring: TableRing, x, y=None):
    """`ring.mul[x, y]`, or the rows `ring.mul[x]` when y is None, for
    indices or integer index arrays in 0..n-1, broadcast as the gather
    broadcasts them (so `np.ix_` pairs too), as TABLE_DTYPE. A slice y
    cuts the rows of x to those columns.

    On a ring that keeps its quarter tables (`TableRing.mul_quarters`)
    its multiplication table is never filled for them: each product is
    four lookups in the quarters and three word sums (`_quarter_products`),
    and a row is one sum of two rows over the corner columns, spread
    across the columns the y-slice crosses by one broadcast sum
    (`_quarter_rows`), many rows a block at a time (`_by_row_blocks`). On
    every other ring they are the gather.
    """
    quarters = ring.mul_quarters
    if quarters is None:
        return ring.mul[x] if y is None else ring.mul[x, y]
    top = ring.top_bits
    if y is None or isinstance(y, slice):
        start, stop, step = (y or slice(None)).indices(ring.order)
        if step != 1:  # a stepped slice is read as its columns
            cols = np.arange(start, stop, step)
            return _by_row_blocks(lambda x: _quarter_products(quarters, top, np.asarray(x)[..., None], cols), x, len(cols))
        return _by_row_blocks(lambda x: _quarter_rows(quarters, top, x, start, stop), x, max(stop - start, 0))
    return _quarter_products(quarters, top, x, y)


def _quarter_products(quarters, top: int, x, y):
    """x * y for indices or index arrays broadcast together, read off the
    quarter tables (QL, QH, s): with x = (xh, xl) and y = (yh, yl) split at
    bit s, x * y = QL[xl, yl] + QL[xl, yh'] + QH[xh, yl] + QH[xh, yh'],
    yh' = 2^s + yh the corner column of yh * 2^s, each a flat take on intp
    offsets (faster than the two-index gather)."""
    low_rows, high_rows, split = quarters
    mask, width = (1 << split) - 1, low_rows.shape[1]
    xl, xh = np.bitwise_and(x, mask, dtype=np.intp) * width, np.right_shift(x, split, dtype=np.intp) * width
    yl, yh = np.bitwise_and(y, mask, dtype=np.intp), np.right_shift(y, split, dtype=np.intp) + (mask + 1)
    by_low = bitwise_sum(np.take(low_rows, xl + yl), np.take(low_rows, xl + yh), top)
    return bitwise_sum(by_low, bitwise_sum(np.take(high_rows, xh + yl), np.take(high_rows, xh + yh), top), top)


def _quarter_rows(quarters, top: int, x, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """The rows mul[x, start:stop] for an index or index array x, read off
    the quarter tables (QL, QH, s): row x over the corner columns is r =
    QL[xl] + QH[xh], and mul[x, y] = r[yl] + r[yh'], so the columns of
    the high halves yh that start:stop crosses are one broadcast sum of r's
    low block and its high entries, then cut to start:stop. With `out`
    (of shape x.shape + (n,)), the whole rows are written into it."""
    low_rows, high_rows, split = quarters
    nl = 1 << split
    first, last = start >> split, -(-stop >> split)  # the high halves start:stop crosses
    xl, xh = np.bitwise_and(x, nl - 1, dtype=np.intp), np.right_shift(x, split, dtype=np.intp)
    row = bitwise_sum(low_rows[xl], high_rows[xh], top)
    blocks = None if out is None else out.reshape(*out.shape[:-1], last - first, nl)
    spread = bitwise_sum(row[..., None, :nl], row[..., nl + first : nl + last, None], top, out=blocks)
    spread = spread.reshape(*spread.shape[:-2], spread.shape[-2] * nl)
    offset = first << split
    return spread[..., start - offset : stop - offset]


def _by_row_blocks(rows, x, width: int) -> np.ndarray:
    """rows(x): the rows x, each `width` wide, of a table read without
    filling it, for an index or index array x. A 1-d x of more than
    _CHUNK_CELLS cells is read a block of rows at a time into one output,
    so the temporaries stay about _CHUNK_CELLS cells."""
    step = max(1, _CHUNK_CELLS // max(width, 1))
    if np.ndim(x) != 1 or len(x) <= step:
        return rows(x)
    out = np.empty((len(x), width), dtype=TABLE_DTYPE)
    for r in range(0, len(x), step):
        out[r : r + step] = rows(x[r : r + step])
    return out


def product_columns(ring: TableRing, y, x=slice(None)) -> np.ndarray:
    """The columns `ring.mul[:, y]` as rows, out[k, x] = x * y[k], for a
    1-d integer index array y, as TABLE_DTYPE; a slice x of step 1 cuts
    each row to those x.

    On a ring that keeps its quarter tables (QL, QH, s), x * y[k] = a[xl]
    + b[xh], where a = QL[:, yl] + QL[:, yh'] and b = QH[:, yl] +
    QH[:, yh'] are read at the corner columns of y[k] (see
    `_quarter_products`): row k is a tiled across the low halves plus b
    repeated along the high ones that x crosses, one broadcast sum a
    block of rows at a time (`_by_row_blocks`), then cut to x; on every
    other ring it is the gather of the columns, transposed (a view).
    """
    quarters = ring.mul_quarters
    if quarters is None:
        return np.take(ring.mul[x], y, axis=1).T
    low_rows, high_rows, split = quarters
    top, nl = ring.top_bits, 1 << split
    start, stop, _ = x.indices(ring.order)
    first, last = start >> split, -(-stop >> split)  # the high halves x crosses
    offset = first << split

    def rows(y):
        yl, yh = np.bitwise_and(y, nl - 1, dtype=np.intp), np.right_shift(y, split, dtype=np.intp) + nl
        by_low = bitwise_sum(low_rows[:, yl], low_rows[:, yh], top).T  # [k, xl]
        by_high = bitwise_sum(high_rows[first:last, yl], high_rows[first:last, yh], top).T  # [k, xh - first]
        out = bitwise_sum(by_low[:, None, :], by_high[:, :, None], top)
        return out.reshape(len(out), (last - first) << split)[:, start - offset : stop - offset]

    return _by_row_blocks(rows, y, max(stop - start, 0))


_CHUNK_CELLS = 1 << 18  # table cells per block of rows, so temporaries stay ~2 MB


def _first_difference(table: np.ndarray, want: np.ndarray) -> tuple[int, int] | None:
    """The row-major first (x, y) where two n x n tables differ, or None;
    compared a block of rows at a time."""
    rows = max(1, _CHUNK_CELLS // len(table))
    for r in range(0, len(table), rows):
        differs = table[r : r + rows] != want[r : r + rows]
        if differs.any():
            x, y = np.argwhere(differs)[0]
            return r + int(x), int(y)
    return None


def bitwise_high_bits(add: np.ndarray) -> int | None:
    """H if `add` is the bitwise addition with top bits H, else None."""
    high = field_top_bits(add)
    return high if high is not None and _first_difference(add, _bitwise_add_table(len(add), high)) is None else None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@cache
def _triple_samples(n: int) -> np.ndarray:
    """The (3, _SAMPLE_TRIPLES) sampled triples of order n, drawn once per
    order, kept read-only as TABLE_DTYPE (a quarter of the drawn int64s)."""
    rng = np.random.default_rng(_SAMPLE_SEED)
    samples = np.stack([rng.integers(0, n, size=_SAMPLE_TRIPLES) for _ in range(3)]).astype(TABLE_DTYPE)
    samples.setflags(write=False)
    return samples


_SLAB = 64  # columns per contiguous slab in rows_equal_columns


def rows_equal_columns(table: np.ndarray) -> np.ndarray:
    """For each i: is row i of the square table equal to column i?

    Same as `(table == table.T).all(axis=1)`, but only the upper triangle
    is read: slab i compares rows `table[i:i+64, i:]` with a contiguous
    copy of columns `table[i:, i:i+64]`, and a mismatch at (a, b) clears
    both a and b, since it breaks row a against column a and row b
    against column b. Every pair a <= b lies in the slab holding a, so
    each symmetric pair is compared once and the answer is exact per row.
    """
    n = table.shape[0]
    if n <= _SLAB:  # one slab: the whole compare is cheaper than the slab's copy
        return (table == table.T).all(axis=1)
    out = np.ones(n, dtype=bool)
    for i in range(0, n, _SLAB):
        cols = np.ascontiguousarray(table[i:, i : i + _SLAB]).T  # cols[k, c] = table[i+c, i+k]
        neq = table[i : i + _SLAB, i:] != cols
        out[i : i + _SLAB] &= ~neq.any(axis=1)
        out[i:] &= ~neq.any(axis=0)
    return out


def _prove_bitwise(add, mul, high: int) -> tuple[bool, Violation | None]:
    """Decide the ring axioms other than the identities, for an addition
    that can only be bitwise with top bits `high` (see `field_top_bits`),
    from whole tables that arrive without any promise about how they were
    made.

    Returns (True, None) when they all hold. Otherwise (False, witness),
    where the witness is a real violation, or None when `add` is not the
    bitwise addition and no witness turned up next to its first cell off
    the formula (such a table may still be some other abelian group).

    This is `bitwise_ring`'s proof, on its own fills: add must be the
    table `_bitwise_add_table` fills, the bitwise group, a direct sum of
    Z/2^k; mul must be the one `_fill_bitwise_mul` fills from its K
    generator rows mul[2^b], each row the sum of the generator rows at its
    bits; and those rows must satisfy `_generator_relations`. The first
    row x of mul off its fill is reported as (x' + 2^b)y != x'y + 2^b y,
    with 2^b the top bit of x: the rows below x are sums of generator
    rows, so x'y is the filled entry. A nonzero row 0 is reported as
    (0 + 1)y != 0y + 1y.
    """
    n = add.shape[0]
    filled = _bitwise_add_table(n, high)
    cell = _first_difference(add, filled)
    if cell is not None:
        return False, _additive_witness(add, *cell)
    gens = 1 << np.arange(n.bit_length() - 1)
    _fill_bitwise_mul(mul[gens], high, filled)
    cell = _first_difference(mul, filled)
    if cell is not None:
        x, y = cell
        g = 1 << max(x.bit_length() - 1, 0)  # the top bit of x, or 1 for row 0
        return False, Violation("NonDistributive", (y, x & (g - 1), g))
    witness = _generator_relations(mul[gens], mul[:, gens].__getitem__, high)
    return witness is None, witness


def _generator_relations(left: np.ndarray, columns, high: int) -> Violation | None:
    """The first violation of the relations on the K generator rows
    left[b] = mul[2^b] of a mul each of whose rows is the sum of the
    generator rows at its bits (row 0 is then 0), in the bitwise addition
    with top bits `high`; None when they hold, and then mul is bi-additive
    and associative. `columns(v)` is mul[v, 2^c] for an index array v,
    with one last axis over the generators 2^c.

    Checked in order: the K doubling rows mul[2^b + 2^b] == mul[2^b] +
    mul[2^b] (2^b + 2^b is the generator 2^(b+1), or 0 at a top bit),
    which make x -> mul[x] a homomorphism, so right distributivity holds;
    each generator row y -> mul[2^b, y] additive, by the same two checks
    along it, so left distributivity holds, every row being a sum of them;
    and associativity on the K^3 generator triples, which a bi-additive
    mul then has on every triple. O(K n + K^3) cells are read, the rows a
    block of about _CHUNK_CELLS cells at a time.

    Along the rows, every y >= 1 is checked at once as mul[2^b, y] ==
    mul[2^b, y - g] + mul[2^b, g], g = top(y) the top bit of y; the
    witness is the failing cell of smallest g, then b, then y, read
    row-major from the block of columns y in [g, 2g).
    """
    bits, n = left.shape
    gens = 1 << np.arange(bits)
    top = (high >> np.arange(bits)) & 1 == 1
    doubles = np.where(top, 0, gens << 1)  # 2^b + 2^b
    step = max(1, _CHUNK_CELLS // n)
    for r in range(0, bits, step):
        rows, b = left[r : r + step], np.arange(r, min(r + step, bits))
        doubled_rows = left[np.minimum(b + 1, bits - 1)]  # mul[2^b + 2^b], a copy ...
        doubled_rows[top[b]] = 0  # ... set to 0 at each top bit, bit K - 1 among them
        bad = doubled_rows != bitwise_sum(rows, rows, high)
        if bad.any():
            i, y = np.argwhere(bad)[0]
            return Violation("NonDistributive", (int(y), int(gens[b[i]]), int(gens[b[i]])))
    failing = np.zeros(n - 1, dtype=bool)  # the y >= 1 whose sum fails in some row
    for r in range(0, bits, step):
        rows = left[r : r + step]
        rest = np.concatenate([rows[:, :g] for g in gens.tolist()], axis=1)  # mul[2^b, y - top(y)]
        failing |= (rows[:, 1:] != bitwise_sum(rest, np.repeat(rows[:, gens], gens, axis=1), high, out=rest)).any(axis=0)
    if failing.any():
        g = 1 << int(failing.argmax() + 1).bit_length() - 1  # top(y), y = argmax + 1
        b, y = np.argwhere(left[:, g : 2 * g] != bitwise_sum(left[:, :g], left[:, g, None], high))[0]
        return Violation("NonDistributive", (int(gens[b]), int(y), g))  # 2^b(y + g)
    bad = np.argwhere(left[:, doubles] != bitwise_sum(left[:, gens], left[:, gens], high))
    if len(bad):
        b, c = bad[0]
        return Violation("NonDistributive", (int(gens[b]), int(gens[c]), int(gens[c])))
    products = left[:, gens]  # products[a, b] = 2^a 2^b
    bad = np.argwhere(columns(products) != left[:, products])
    if len(bad):
        return Violation("NonAssociative", tuple(int(gens[i]) for i in bad[0]))
    return None


def _additive_witness(add, i: int, j: int) -> Violation | None:
    """A triple (i, j, c) or (c, i, j) on which + is not associative, or None."""
    bad = np.flatnonzero(add[add[i, j]] != add[i, add[j]])  # (i+j)+c, i+(j+c)
    if len(bad):
        return Violation("NotAbelianGroup", (i, j, int(bad[0])))
    bad = np.flatnonzero(add[add[:, i], j] != add[:, add[i, j]])  # (c+i)+j, c+(i+j)
    if len(bad):
        return Violation("NotAbelianGroup", (int(bad[0]), i, j))
    return None


def _identity_violations(add, mul, zero: int, one: int, neg, first_zero) -> list[Violation]:
    """The O(n) checks: the additive identity and inverses, and the
    multiplicative identity."""
    n = add.shape[0]
    violations: list[Violation] = []
    idx = np.arange(n)
    bad = add[zero] != idx
    if bad.any():
        violations.append(Violation("NotAbelianGroup", (zero, int(bad.argmax()))))
    if neg is not None:
        neg = np.asarray(neg)
        bad = add[idx, neg] != zero
        if bad.any():
            a = int(bad.argmax())
            violations.append(Violation("NotAbelianGroup", (a, int(neg[a]))))
    else:
        if first_zero is None:
            first_zero = np.argmax(add == zero, axis=1)
        has_inv = add[idx, first_zero] == zero
        if not has_inv.all():
            violations.append(Violation("NotAbelianGroup", (int(has_inv.argmin()),)))
    for bad in (mul[one] != idx, mul[:, one] != idx):
        if bad.any():
            violations.append(Violation("NoIdentity", (int(bad.argmax()),)))
            break
    return violations


def scan_axioms(add, mul, zero: int, one: int, neg=None, first_zero=None) -> tuple[list[Violation], str]:
    """Scan the ring axioms, returning violations and the scan mode.

    Without `neg`, each row of add must hold `zero`; `first_zero[a]` is
    the column of the first zero in row a (`argmax(add == zero, axis=1)`,
    computed here unless the caller passes it), so the n^2 compare runs
    once for the scan and the derived negation table together.

    Up to order 64 the four n^3 identities (additive and multiplicative
    associativity, left and right distributivity) are tested on every
    triple, one whole n x n x n cube of each side at a time (0.5 MiB a
    side at n = 64); each reports its row-major first failing triple.
    Mode "exhaustive".

    Above order 64, an order-2^K ring with zero 0 whose addition may be
    bitwise (`field_top_bits`) is proved exactly on its K bit generators
    (`_prove_bitwise`), and then only the O(n) identity checks run. Mode
    "exhaustive": every triple is decided. Any other ring, or one whose
    proof fails, has the four identities tested on a fixed sample of
    triples, mode "sampled". When a failed proof's ring passes that
    sample, the proof's own witness is reported, if it has one.

    This is the scan for tables that arrive whole. A digit-vector ring
    over bitwise bases is built by `bitwise_ring` from its generator rows
    and reaches this scan only when its checks on them fail.
    """
    add = np.asarray(add)
    mul = np.asarray(mul)
    n = add.shape[0]

    if n < 2 or zero == one:
        return [Violation("ZeroRing", (zero, one))], "exhaustive"

    witness = None
    if n > EXHAUSTIVE_LIMIT and zero == 0 and (high := field_top_bits(add)) is not None:
        # the proof runs in TABLE_DTYPE lanes; validate_ring passes tables in it
        add, mul = (t if t.dtype == TABLE_DTYPE else _index_table(t, n) for t in (add, mul))
        proved, witness = _prove_bitwise(add, mul, high)
        if proved:
            return _identity_violations(add, mul, zero, one, neg, first_zero), "exhaustive"

    # commutativity of addition (always exhaustive: O(n^2)); the witness is
    # the row-major first (a, b) with a + b != b + a
    violations: list[Violation] = []
    symmetric = rows_equal_columns(add)
    if not symmetric.all():
        a = int(np.argmin(symmetric))
        b = int(np.argmax(add[a, :] != add[:, a]))
        violations.append(Violation("NotAbelianGroup", (a, b)))
    violations += _identity_violations(add, mul, zero, one, neg, first_zero)

    if n <= EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        for kind, lhs, rhs, to_abc in (
            ("NotAbelianGroup", lambda: add[add], lambda: add[:, add], (0, 1, 2)),  # (a+b)+c, a+(b+c)
            ("NonAssociative", lambda: mul[mul], lambda: mul[:, mul], (0, 1, 2)),  # (ab)c, a(bc)
            # a(b+c), ab+ac over axes (a, b, c)
            ("NonDistributive", lambda: mul[:, add], lambda: add[mul[:, :, None], mul[:, None, :]], (0, 1, 2)),
            # (b+c)a, ba+ca over axes (b, c, a); reported as (a, b, c)
            ("NonDistributive", lambda: mul[add], lambda: add[mul[:, None, :], mul[None, :, :]], (2, 0, 1)),
        ):
            neq = lhs() != rhs()
            if neq.any():
                witness = np.argwhere(neq)[0]  # the row-major first failing triple
                violations.append(Violation(kind, tuple(int(witness[i]) for i in to_abc)))
    else:
        mode = "sampled"
        sa, sb, sc = _triple_samples(n)
        flat_add, flat_mul = add.ravel(), mul.ravel()

        def cell(flat, x, y):  # flat table [x, y], one take on intp offsets
            return np.take(flat, x.astype(np.intp) * n + y)

        # a+b, b+c, ab and ac, each read once for the identities that share it
        a_plus_b, b_plus_c = cell(flat_add, sa, sb), cell(flat_add, sb, sc)
        ab, ac = cell(flat_mul, sa, sb), cell(flat_mul, sa, sc)
        for kind, lhs, rhs in (
            ("NotAbelianGroup", cell(flat_add, a_plus_b, sc), cell(flat_add, sa, b_plus_c)),  # (a+b)+c, a+(b+c)
            ("NonAssociative", cell(flat_mul, ab, sc), cell(flat_mul, sa, cell(flat_mul, sb, sc))),  # (ab)c, a(bc)
            ("NonDistributive", cell(flat_mul, sa, b_plus_c), cell(flat_add, ab, ac)),  # a(b+c), ab+ac
            ("NonDistributive", cell(flat_mul, b_plus_c, sa), cell(flat_add, cell(flat_mul, sb, sa), cell(flat_mul, sc, sa))),  # (b+c)a, ba+ca
        ):
            bad = lhs != rhs
            if bad.any():
                i = int(bad.argmax())  # the first failing sampled triple
                violations.append(Violation(kind, (int(sa[i]), int(sb[i]), int(sc[i]))))
        if not violations and witness is not None:
            violations.append(witness)
    return violations, mode


def _index_table(table, n: int) -> np.ndarray:
    """`table` as a C-contiguous TABLE_DTYPE array, once each entry has
    been checked to lie in 0..n-1 on the input's own integer dtype.

    The check runs before the narrowing cast, so an entry such as -1 or
    n + 65536 is rejected instead of wrapping into 0..n-1. It is one
    pass: a signed entry read as unsigned of the same width is below n
    exactly when it lies in 0..n-1, since a negative one reads as at
    least 2^31 (narrower signed inputs are widened to int32 first). A
    C-contiguous TABLE_DTYPE input is returned as it is, without a copy.
    """
    table = np.asarray(table)
    kind = table.dtype.kind
    if kind == "i":
        if table.dtype.itemsize < 4:
            table = table.astype(np.int32)
        unsigned = table.view(table.dtype.str.replace("i", "u"))
    elif kind == "u":
        unsigned = table
    else:
        raise ValueError(f"table entries must be integers, got dtype {table.dtype}")
    if unsigned.size and unsigned.max() >= n:
        raise ValueError("table entry out of range")
    return np.ascontiguousarray(table, dtype=TABLE_DTYPE)


def _map_violations(parent: TableRing, add, mul, projection, embedding) -> list[Violation]:
    """The proof of a ring derived from `parent`, a ring whose axioms were
    decided on every triple and whose tables are whole: the violations of
    the map that relates the two, each its row-major first failing pair of
    parent indices; empty when the map respects + and ·.

    With `projection` (parent index -> derived index, onto), the derived
    ring is an image R/I: π(a + b) = π(a) + π(b) and π(ab) = π(a)π(b) are
    compared on all of R's pairs. A map onto the derived elements that
    respects both operations carries every identity of R onto its image,
    so associativity, commutativity and both distributive laws hold there.

    With `embedding` (derived index -> parent index, ascending, so one to
    one), the derived ring is a subset of R closed under + and · (eRe, a
    centre): ι(x + y) = ι(x) + ι(y) and ι(xy) = ι(x)ι(y) are compared on
    its own pairs, in R's row-major order, and reported as (ι(x), ι(y)).
    An injective map that respects both operations pulls every identity
    of R back to the subset.

    Neither map settles the identities of the derived ring: its zero,
    inverses and identity (for eRe that is e, not R's one) are left to
    the O(n) checks.
    """
    n = add.shape[0]
    if embedding is None:
        image = _index_table(projection, n)
        if image.shape != (parent.order,) or not np.bincount(image, minlength=n).all():
            raise ValueError("projection must map the parent onto the derived ring")
        at, cells = np.arange(parent.order), (image[:, None], image)
        maps = ((image[parent.add], add[cells]), (image[parent.mul], mul[cells]))
    else:
        at = _index_table(embedding, parent.order)
        if at.shape != (n,) or not (at[1:] > at[:-1]).all():
            raise ValueError("embedding must list parent indices in ascending order, one per derived element")
        cells = (at[:, None], at)
        maps = ((at[add], parent.add[cells]), (at[mul], parent.mul[cells]))
    violations = []
    for kind, (mapped, combined) in zip(("NotAdditive", "NotMultiplicative"), maps):
        bad = mapped != combined
        if bad.any():
            violations.append(Violation(kind, tuple(int(at[i]) for i in np.argwhere(bad)[0])))
    return violations


def validate_ring(add, mul, zero: int, one: int, neg=None, names=None, meta=None, parent=None, projection=None, embedding=None) -> TableRing:
    """Build a TableRing from raw tables, or raise RingValidationError.

    `neg` is derived from the addition table when omitted; a given `neg`
    is range-checked like the tables and then proved by the axiom scan
    (add[a, neg[a]] == zero for every a).

    `names` is a tuple of the n element names or a function from an index
    to its name (see `TableRing`); by default an element is named by its
    index.

    The tables may come in any integer dtype. Each is range-checked on
    that dtype (see `_index_table`) and then cast once to TABLE_DTYPE, in
    which the ring stores them; an order above MAX_TABLE_ORDER is
    rejected, since its indices do not fit.

    A derived ring names its `parent` and the map to it: a `projection`
    for a quotient, an `embedding` for a subring. When the parent was
    decided on every triple and keeps whole tables (order at most 64), the
    map is checked on every pair in place of the n^3 scan (see
    `_map_violations`), then the O(n) identity checks run, and the ring
    is "exhaustive". Any other parent's derived tables get the scan.
    """
    add, mul = np.asarray(add), np.asarray(mul)
    if add.ndim != 2 or add.shape[0] != add.shape[1] or add.shape != mul.shape:
        raise ValueError("tables must be square and of equal size")
    n = add.shape[0]
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"order {n} exceeds {MAX_TABLE_ORDER}, the limit of 16-bit table storage")
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one index out of range")
    if neg is not None:
        neg = np.asarray(neg)
        if neg.shape != (n,):
            raise ValueError("neg must list one entry per element")
        neg = _index_table(neg, n)
    add, mul = _index_table(add, n), _index_table(mul, n)
    first_zero = np.argmax(add == zero, axis=1).astype(TABLE_DTYPE) if neg is None else None
    if parent is not None and parent.validation == "exhaustive" and parent.order <= EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        if n < 2 or zero == one:
            violations = [Violation("ZeroRing", (zero, one))]
        else:
            violations = _map_violations(parent, add, mul, projection, embedding) + _identity_violations(add, mul, zero, one, neg, first_zero)
    else:
        violations, mode = scan_axioms(add, mul, zero, one, neg, first_zero)
    if violations:
        raise RingValidationError(violations)
    return _table_ring(add, mul, first_zero if neg is None else neg, zero, one, names, meta, mode)


def _table_ring(add, mul, neg, zero: int, one: int, names, meta, mode: str, top_bits: int | None = None, mul_quarters=None) -> TableRing:
    """The TableRing on tables whose axioms were decided with `mode`; with
    `top_bits`, `add` is None and filled on first read, and with
    `mul_quarters`, so is `mul`."""
    n = neg.shape[0]
    if names is None:
        names = str
    elif not callable(names):
        names = tuple(names)
        if len(names) != n:
            raise ValueError("names length mismatch")
    for table in (add, mul, neg, *(mul_quarters or ())[:2]):
        if table is not None:
            table.setflags(write=False)
    # the generator forms of the subsets need a decided (bi-additive) mul;
    # up to order 64 the n^2 forms cost little, so those rings keep none.
    # Above it only a bitwise addition is decided on every triple, and its
    # distinct bit generators sum without a carry to every element.
    exhaustive = mode == "exhaustive" and n > EXHAUSTIVE_LIMIT
    basis = tuple(1 << b for b in range(n.bit_length() - 1)) if exhaustive else None
    return TableRing(n, add, mul, neg, zero, one, names, meta, mode, basis, top_bits, mul_quarters)


def bitwise_ring(high: int, generator_rows, one: int, neg, names=None, meta=None) -> TableRing:
    """Build the ring of order n = 2^K whose addition is bitwise with top
    bits `high` and whose product rows mul[2^b] are `generator_rows[b]`,
    or raise RingValidationError. Zero is index 0; `neg`, `names` and
    `meta` are as in `validate_ring`.

    A table that fits one chunk (order <= 512) is filled whole, each row
    the sum of the generator rows at its bits (`_fill_bitwise_mul`), and
    kept as `mul`. A larger ring splits both operands at the middle bit s
    = K // 2 (`_field_split`), x = (xh, xl) and y = (yh, yl), and keeps
    only the quarter tables QL and QH over the corner columns, the low
    halves 0..2^s - 1 and the high ones 0, 2^s, 2 * 2^s, ...
    (`_mul_quarters`: 2^s and n / 2^s rows of 2^s + n / 2^s cells, 32 KiB
    in all at order 4096): x * y is QL[xl, yl] + QL[xl, yh'] + QH[xh, yl] +
    QH[xh, yh'], with yh' the corner column of yh * 2^s. It keeps QL, QH
    and s as its `mul_quarters` and fills mul only when it is read whole,
    as `products` and `product_columns` give its products and rows from
    the quarters. A field may cross the split, as the halves of an index
    share no bit and so add without a carry. add is filled from the word
    formula (`_bitwise_add_table`) up to order 64; above it the ring keeps
    `high` as its `top_bits` and fills add only when it is read, as `sums`
    gives its sums and rows from the formula.

    The quarters read each generator row at the corner columns only, so
    the ring built from them is bi-additive by construction and equals
    the table the rows fill exactly when each row is additive along y.
    Only the facts this build does not guarantee are then checked, on the
    generator rows as given, read whole (`_generator_relations`), and
    through `products`, in O(K n + K^3) cells instead of the n^2 compares
    and range scans of whole tables:

    - the formula is the group (+) Z/2^k, one summand per field, so the
      additive axioms hold;
    - the extension x -> mul[x] is additive exactly when the doubling
      relations mul[2^b + 2^b] = 2 mul[2^b] hold, as 2^b + 2^b is
      2^(b+1), a generator, or 0 at a field's top bit: right
      distributivity;
    - every row is a sum of generator rows, and a sum of additive rows is
      additive, so additive generator rows give left distributivity (and
      make the quarters' products the rows' own);
    - a bi-additive mul that is associative on the K^3 generator triples
      is associative on every triple;

    then the O(n) identity checks on the formula: x + neg[x] = 0, and the
    row and column of `one` in mul are the identity (0 + x = x holds by
    the formula). The ring reports "exhaustive" at every order, and keeps
    the bit generators, which the formula sums without a carry, as its
    basis above order 64. If any check fails, add and the mul that the
    generator rows fill whole go through `validate_ring`, so the error
    names the witness its whole-table scan finds on them.
    """
    rows = np.asarray(generator_rows)
    bits = rows.shape[0] if rows.ndim == 2 else 0
    n = 1 << bits
    if not 1 <= bits <= MAX_TABLE_ORDER.bit_length() - 1 or rows.shape != (bits, n):
        raise ValueError("generator rows must be K rows of 2^K entries each, for an order of at most 65536")
    if not (0 <= high < n and high >> (bits - 1)):
        raise ValueError("high must be a mask of field top bits below the order, holding its top bit")
    if not 0 <= one < n:
        raise ValueError("zero/one index out of range")
    neg = np.asarray(neg)
    if neg.shape != (n,):
        raise ValueError("neg must list one entry per element")
    rows, neg = _index_table(rows, n), _index_table(neg, n)
    split = _field_split(n)
    whole, lazy = split == bits, n > EXHAUSTIVE_LIMIT
    ring = _table_ring(
        None if lazy else _bitwise_add_table(n, high),
        _fill_bitwise_mul(rows, high) if whole else None,
        neg, 0, one, names, meta, "exhaustive",
        high if lazy else None,
        None if whole else (*_mul_quarters(rows, high, split), split),
    )
    idx, gens = np.arange(n, dtype=TABLE_DTYPE), 1 << np.arange(bits)
    identities = not bitwise_sum(idx, neg, high).any() and (products(ring, one) == idx).all() and (product_columns(ring, [one])[0] == idx).all()
    if identities and _generator_relations(rows, lambda v: products(ring, v[..., None], gens), high) is None:
        return ring
    return validate_ring(ring.add, ring.mul if whole else _fill_bitwise_mul(rows, high), 0, one, neg=neg, names=names, meta=meta)


def _field_split(n: int) -> int:
    """Where the bitwise multiplication of order n = 2^K splits both
    operands into the quarter tables (`_mul_quarters`): K for a table that
    fits one chunk, which is filled whole, else the middle bit K // 2, so
    QL and QH hold about sqrt(n) rows of about 2 sqrt(n) corner columns
    each. On a bi-additive mul any split is exact, a field that crosses it
    too: an index is the carry-free sum of its two halves, so x * y is the
    sum of the four products of the halves of x and y."""
    bits = n.bit_length() - 1
    return bits if n * n <= _CHUNK_CELLS else bits // 2


def _bitwise_add_table(n: int, high: int) -> np.ndarray:
    """A fresh bitwise addition table of order n with top bits `high`,
    filled from the word formula a block of about _CHUNK_CELLS cells at a
    time."""
    add = np.empty((n, n), dtype=TABLE_DTYPE)
    x, step = np.arange(n, dtype=TABLE_DTYPE), max(1, _CHUNK_CELLS // n)
    for r in range(0, n, step):
        bitwise_sum(x[r : r + step, None], x, high, out=add[r : r + step])
    return add


def _mul_quarters(rows: np.ndarray, high: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """(QL, QH): the sums of the generator rows `rows[b]` at the bits of
    each index below the split (QL, 2^split rows) and above it (QH, one
    row per index >> split), in the bitwise addition with top bits `high`,
    each read only at the corner columns: 0..2^split - 1, then 0, 2^split,
    2 * 2^split, ... (n >> split of them)."""
    n, nl = rows.shape[1], 1 << split
    corners = rows[:, np.concatenate([np.arange(nl), np.arange(0, n, nl)])]
    quarters = []
    for count, gens in ((nl, corners[:split]), (n >> split, corners[split:])):
        quarter = np.empty((count, corners.shape[1]), dtype=TABLE_DTYPE)
        quarter[0] = 0
        quarter[1 << np.arange(len(gens))] = gens
        _extend_bitwise(quarter, high)
        quarters.append(quarter)
    return quarters[0], quarters[1]


def _fill_bitwise_mul(rows: np.ndarray, high: int, mul: np.ndarray | None = None) -> np.ndarray:
    """`mul`, or a fresh n x n table, filled with the sum of the generator
    rows `rows[b]` at the bits of each index, in the bitwise addition with
    top bits `high`: row 0 is 0, row 2^b is rows[b], read whole, and every
    other row is extended from them (`_extend_bitwise`)."""
    if mul is None:
        mul = np.empty((rows.shape[1],) * 2, dtype=TABLE_DTYPE)
    mul[0] = 0
    mul[1 << np.arange(len(rows))] = rows
    _extend_bitwise(mul, high)
    return mul


def _bitwise_mul_table(mul_quarters, high: int) -> np.ndarray:
    """A fresh multiplication table filled from `TableRing.mul_quarters`,
    each block of about _CHUNK_CELLS cells written once (`_quarter_rows`)."""
    low_rows, high_rows, _ = mul_quarters
    n = len(low_rows) * len(high_rows)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    x, step = np.arange(n), max(1, _CHUNK_CELLS // n)
    for r in range(0, n, step):
        _quarter_rows(mul_quarters, high, x[r : r + step], 0, n, out=mul[r : r + step])
    return mul


def _extend_bitwise(mul: np.ndarray, high: int) -> None:
    """Fill each row x' | 2^b of `mul`, 0 < x' < 2^b, with mul[x'] +
    mul[2^b] in the bitwise addition of order n = mul.shape[1] with top
    bits `high`, in TABLE_DTYPE lanes; b ascends, so every row x' is
    filled before it is read."""
    rows = max(1, _CHUNK_CELLS // mul.shape[1])
    for g in (1 << np.arange(mul.shape[0].bit_length() - 1)).tolist():
        for lo in range(1, g, rows):
            hi = min(g, lo + rows)
            bitwise_sum(mul[lo:hi], mul[g], high, out=mul[g + lo : g + hi])


# ---------------------------------------------------------------------------
# mixed-radix digit vectors (products of rings and groups, digit-vector rings)
# ---------------------------------------------------------------------------


def all_digits(radices) -> np.ndarray:
    """The digits of every index 0..prod(radices)-1, one row each; digit w
    counts prod(radices[:w]), so the first digit is least significant.
    One index grid, read backwards: no division, each column contiguous."""
    return np.indices(radices[::-1], dtype=np.int32).reshape(len(radices), -1)[::-1].T


def encode_digits(digits: np.ndarray, radices) -> np.ndarray:
    """The index of each digit vector along the last axis (inverse of
    `all_digits`), as int32: one product with the place values, in
    float64, which holds every index and partial sum exactly (they are
    below 2^53)."""
    place = np.cumprod([1, *radices[:-1]], dtype=np.float64)
    return (digits @ place).astype(np.int32)


# ---------------------------------------------------------------------------
# element subsets
# ---------------------------------------------------------------------------


class ElemSet:
    """A subset of a ring's element indices, stored as a read-only bool
    mask over 0..n-1.

    The mask is the only stored form. The frozenset `members`, the tuple
    `indices()` and the ascending index array `index_array()` are derived
    on first use and kept. Set algebra is mask algebra: `&`, `|`, `-`,
    `^`, `~`, `<=`, `==`, plus `first()` (the smallest member, or None),
    and it is only defined between subsets of the same ring.
    """

    __slots__ = ("ring", "_mask", "_members", "_indices", "_array")

    def __init__(self, ring: TableRing, mask: np.ndarray):
        # takes over `mask`, a bool array of length ring.order that no one
        # else writes to, and marks it read-only (`from_mask` checks and copies)
        mask.setflags(write=False)
        self.ring = ring
        self._mask = mask
        self._members = self._indices = self._array = None

    @staticmethod
    def of(ring: TableRing, items) -> "ElemSet":
        idx = items.ravel() if isinstance(items, np.ndarray) else np.fromiter(items, dtype=np.int64)
        if idx.dtype.kind not in "bi":  # bincount takes signed indices only
            idx = idx.astype(np.intp)
        try:
            counts = np.bincount(idx, minlength=ring.order)  # one pass; a negative index raises
        except ValueError:
            counts = None
        if counts is None or len(counts) > ring.order:  # some index lies outside 0..n-1
            ring.check_index(int(idx[np.argmax((idx < 0) | (idx >= ring.order))]))
        return ElemSet(ring, counts.astype(bool))

    @staticmethod
    def from_mask(ring: TableRing, mask) -> "ElemSet":
        """Wrap a bool mask over 0..n-1; a writable or non-bool one is copied."""
        mask = np.asarray(mask)
        if mask.shape != (ring.order,):
            raise ValueError(f"mask of shape {mask.shape} for a ring of order {ring.order}")
        return ElemSet(ring, mask if mask.dtype == bool and not mask.flags.writeable else mask.astype(bool))

    def _other(self, other: "ElemSet") -> np.ndarray:
        if self.ring is not other.ring:
            raise ValueError("set algebra requires subsets of the same ring")
        return other._mask

    def __and__(self, other: "ElemSet") -> "ElemSet":
        return ElemSet(self.ring, self._mask & self._other(other))

    def __or__(self, other: "ElemSet") -> "ElemSet":
        return ElemSet(self.ring, self._mask | self._other(other))

    def __sub__(self, other: "ElemSet") -> "ElemSet":
        return ElemSet(self.ring, self._mask & ~self._other(other))

    def __xor__(self, other: "ElemSet") -> "ElemSet":
        return ElemSet(self.ring, self._mask ^ self._other(other))

    def __invert__(self) -> "ElemSet":
        return ElemSet(self.ring, ~self._mask)

    def __le__(self, other: "ElemSet") -> bool:
        return not (self._mask & ~self._other(other)).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElemSet):
            return NotImplemented
        return self.ring is other.ring and self._mask.tobytes() == other._mask.tobytes()  # every mask is 0/1

    def __hash__(self) -> int:
        return hash((id(self.ring), self._mask.tobytes()))

    def first(self) -> int | None:
        """The smallest member, or None for the empty set."""
        a = int(np.argmax(self._mask))
        return a if self._mask[a] else None

    def mask(self) -> np.ndarray:
        """The stored mask itself; it is read-only."""
        return self._mask

    def index_array(self) -> np.ndarray:
        """The members as an ascending, read-only int64 index array."""
        if self._array is None:
            self._array = self._mask.nonzero()[0]
            self._array.setflags(write=False)
        return self._array

    def indices(self) -> tuple[int, ...]:
        if self._indices is None:
            self._indices = tuple(self.index_array().tolist())
        return self._indices

    @property
    def members(self) -> frozenset[int]:
        if self._members is None:
            self._members = frozenset(self.index_array().tolist())
        return self._members

    def __contains__(self, a: int) -> bool:
        a = int(a)
        return 0 <= a < self.ring.order and bool(self._mask[a])

    def __iter__(self):
        return iter(self.indices())

    def __len__(self) -> int:
        return len(self.index_array())

    def __repr__(self) -> str:
        return f"ElemSet({self.ring!r}, {self.indices()})"
