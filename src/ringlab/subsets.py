"""Structural subsets of a finite ring: U, Id, Nil, Z, J, J#, Nil*.

A finite ring is Artinian, so J is nilpotent and is the largest nil
ideal (Lam, *A First Course in Noncommutative Rings*, GTM 131, §4). On
generators g of (R, +) (a ring's `basis`), J is found by pruning Nil:
drop every x with g*x or x*g outside what is left, to a fixpoint C. J
survives each step. If C is additively closed (its greedy span is C),
it is an ideal, as mul is bi-additive and the g span R, and a nil one,
so C = J, and the pruning is J's ideal proof. Without generators, or if
C is not closed, J comes from the quasi-regularity criterion (j is in J
iff 1 - r*j is a unit for every r), searched over the candidates j in C
with 1 - j a unit, and is then checked to be an ideal. The O-jac oracle
compares both paths with the maximal-left-ideal intersection.

On a ring with a basis and J != {0}, U is lifted from R/J: J is a
proved ideal, so R -> R/J is a ring homomorphism and no unit of R is
missed among the preimages of U(R/J); and each of them is certified by
an explicit inverse checked on R's table (`unit_inverses`), so none is
false. The lift squares x in J by the gather square[x] on the bundle's
squares, and its certificate u*v = v*u = 1 is one product over both
orders of every pair; U's mask is read straight off the lifted
preimages. Elsewhere (J = {0}, no basis), inside the criterion of an
open fixpoint, and for Dedekind-finiteness, U is the n^2 scan for ab =
ba = 1, read through `core.products` a block of rows at a time
(`product_one_pairs`), so a ring with deferred tables (order above 512,
see `TableRing`) is scanned without filling its table.

Every product the bundle reads comes through `core.products`, so on a
cap ring built bitwise the whole multiplication table is never filled.

The center compares each row of the multiplication table with its
column (`core.rows_equal_columns`). On a ring that keeps a set of
additive generators (`TableRing.basis`: the bit generators, kept above
order 64 when validation decided every triple and they reach every
element), mul is bi-additive and they generate (R, +), so z is central
iff it commutes with each generator, and a subgroup S absorbs R on a
side iff it absorbs each generator there: the center and the ideal
check read n x k and |S| x k cells (k = log2 n) instead of n x n and
n x |S|. The k generator rows are read through `core.products`, each
one sum over the corner columns on a ring with quarter tables spread
across n columns, and `compute_bundle` reads the k rows and the k
columns at the basis once, for both the pruning of Nil and the center,
and frees them before R/J is built.

On a finite ring two of the radicals collapse (Lam, GTM 131):

- Nil*(R) = J(R). J is nilpotent, so it lies in every prime ideal; Nil*
  is a nil ideal, so it lies in J. The prime radical is therefore J
  itself; the prime-ideal intersection survives as a desk oracle.
- J#(R) = Nil(R), since J is nilpotent.

Nil and J# are still computed from their definitions ("some power of a
lands in the ideal"), by repeated squaring: a power that enters an ideal
stays there, so a^(2^s) decides membership once 2^s is at least the
index of every nilpotent. In a ring of order n that index is at most
m = floor(log2 n) (Lam, GTM 131, §4). If Ra^i = Ra^(i+1), multiplying
on the right by a keeps the chain R = Ra^0, Ra, Ra^2, ... constant from
i on; it ends at 0, so then Ra^i = 0 and a^i = 0. So while a^i != 0 the
chain R ⊋ Ra ⊋ ... ⊋ Ra^i ⊋ 0 is strict, each step a proper subgroup of
index at least 2, and 2^(i+1) <= n. J# follows by the same argument in
R/J, whose order is at most n. So s = ceil(log2 m) squarings suffice (4
at order 4096), and `compute_bundle` reads Id off the first of them and
Nil and J# off the one orbit (`_squaring_orbit`). Only the first is a
product: a^(2^(j+1)) is the square of a^(2^j), so each later squaring
is the gather square[a^(2^j)] on the squares table, n lookups. The
bundle keeps the squares for the lift of U and for
`predicates.is_semiboolean`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .core import _CHUNK_CELLS, EXHAUSTIVE_LIMIT, ElemSet, GroupRingMeta, RingError, TableRing, product_columns, products, rows_equal_columns, sums


class NotAGroupRingError(RingError):
    """Augmentation requested on a ring without group-ring structure."""


def product_one_pairs(ring: TableRing) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) with ab = 1, row-major: `np.nonzero(mul == one)`.

    A ring whose table fits one chunk (n^2 <= _CHUNK_CELLS, order <= 512)
    keeps it whole, and it is read in that one step. A larger ring's rows
    are read through `products` a block of about _CHUNK_CELLS cells at a
    time, so a deferred table is never filled, and the hits of each block
    are its `np.flatnonzero` cells.
    """
    n = ring.order
    if n * n <= _CHUNK_CELLS:  # no ring this small defers its tables
        return np.nonzero(ring.mul == ring.one)
    step = max(1, _CHUNK_CELLS // n)
    cells = [r * n + np.flatnonzero(products(ring, np.arange(r, min(r + step, n))) == ring.one) for r in range(0, n, step)]
    return np.divmod(np.concatenate(cells), n)


def units(ring: TableRing, radical: tuple | None = None, square: np.ndarray | None = None) -> ElemSet:
    """The unit group; lifted from `radical` as in `unit_inverses`, its
    mask read straight off the units found."""
    return ElemSet.of(ring, _unit_pairs(ring, radical, square)[0])


def unit_inverses(ring: TableRing, radical: tuple | None = None, square: np.ndarray | None = None) -> dict[int, int]:
    """Each unit with its inverse: the pairs ab = 1 that also have ba = 1
    (a two-sided inverse is unique).

    Given `radical` = (R/J, projection, ...) for a proved ideal J, each
    preimage u of a unit of R/J gets v = v0 (1+x)(1+x^2)(1+x^4)..., v0 a
    preimage of the coset's inverse: x = 1 - u*v0 is in J, so u*v =
    1 - x^(2^k) = 1 once x^(2^k) = 0, within ceil(log2 n) squarings, each
    the gather x <- square[x] on `square`, which holds every a^2
    (`_squaring_orbit`; one full-width product when not given). u*v =
    v*u = 1 is checked for every u in one product over both orders of the
    pairs, else RingError naming the least u that fails. v0 is the
    coset's least member: R/J numbers its cosets by their least members
    (`construct._build_quotient`), so coset c's is the first x with
    projection[x] = c, where the running maximum of the projection first
    reaches c; any preimage would serve, as the two-sided inverse it
    leads to is unique.
    """
    u, v = _unit_pairs(ring, radical, square)
    return dict(zip(u.tolist(), v.tolist()))


def _unit_pairs(ring: TableRing, radical: tuple | None, square: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(units, their inverses) in ascending order of the units (`unit_inverses`)."""
    if radical is None:
        a, b = product_one_pairs(ring)
        two_sided = products(ring, b, a) == ring.one
        return a[two_sided], b[two_sided]
    quotient, projection = radical[:2]
    inverse, coset_inverse = unit_inverses(quotient), np.full(quotient.order, -1)
    coset_inverse[list(inverse)] = list(inverse.values())
    u = np.flatnonzero(coset_inverse[projection] >= 0)
    v = np.searchsorted(np.maximum.accumulate(projection), coset_inverse[projection[u]])  # each coset's least member
    if square is None:
        idx = np.arange(ring.order)
        square = products(ring, idx, idx)
    one = ring.one
    x = sums(ring, one, ring.neg[products(ring, u, v)])
    for _ in range((ring.order - 1).bit_length()):
        if (x == ring.zero).all():
            break
        v, x = products(ring, v, sums(ring, one, x)), square[x]
    certified = (products(ring, np.concatenate([u, v]), np.concatenate([v, u])) == one).reshape(2, -1).all(axis=0)  # u*v and v*u
    if not certified.all():  # unreachable on a valid ring; guards table corruption
        raise RingError(f"unit lifted from R/J failed its inverse check at {int(u[np.argmin(certified)])}")
    return u, v


def idempotents(ring: TableRing, square: np.ndarray | None = None) -> ElemSet:
    """The a with a^2 = a; `square`, if given, holds every a^2 (`_squaring_orbit`)."""
    idx = np.arange(ring.order)
    return ElemSet.from_mask(ring, (products(ring, idx, idx) if square is None else square) == idx)


def _squaring_orbit(ring: TableRing) -> tuple[np.ndarray, np.ndarray]:
    """(a^2, a^(2^s)) for every element a, with s = max(1, ceil(log2 m))
    squarings and m = floor(log2 n), which bounds the index of a nilpotent
    (see the module docstring). The squares are one full-width product;
    each later squaring is the gather square[a^(2^j)] = a^(2^(j+1)) on them."""
    idx, m = np.arange(ring.order), ring.order.bit_length() - 1
    square = power = products(ring, idx, idx)
    for _ in range((m - 1).bit_length() - 1):  # the squarings after the first
        power = square[power]
    return square, power


def _orbit_masks(ring: TableRing, ideal_mask: np.ndarray, power: np.ndarray | None) -> np.ndarray:
    """For each element a: does some positive power of a land in the ideal?

    Exact for a two-sided ideal: a^(2^s) with 2^s >= floor(log2 n)
    decides it (see the module docstring). `power`, if given, holds every
    a^(2^s) (`_squaring_orbit`), which is then not taken again.
    """
    return ideal_mask[_squaring_orbit(ring)[1] if power is None else power]


def nilpotents(ring: TableRing, power: np.ndarray | None = None) -> ElemSet:
    """Elements with some power 0; `power` as in `_orbit_masks`."""
    zero = np.zeros(ring.order, dtype=bool)
    zero[ring.zero] = True
    return ElemSet.from_mask(ring, _orbit_masks(ring, zero, power))


def center(ring: TableRing, sides: tuple[np.ndarray, np.ndarray] | None = None) -> ElemSet:
    """Z(R): the a whose row of the multiplication table equals its column.

    On a ring with a `basis`, z is central iff zg = gz for each generator
    g, since mul is bi-additive: the k generator rows against their
    columns, one n x k compare instead of n x n. `sides`, if given, holds
    the rows and columns at the basis (`_generator_sides`), which are then
    not taken again.
    """
    if ring.basis is not None:
        left, right = _generator_sides(ring, ring.basis) if sides is None else sides
        return ElemSet.from_mask(ring, (right == left).all(axis=0))
    return ElemSet.from_mask(ring, rows_equal_columns(ring.mul))


def _generator_sides(ring: TableRing, gens) -> tuple[np.ndarray, np.ndarray]:
    """(g*x, x*g) for each g in `gens` and every x, as two k x n arrays:
    the generator rows (`products`) and the columns at them as rows
    (`product_columns`)."""
    gens = list(gens)
    return products(ring, gens), product_columns(ring, gens)


def additive_generators(ring: TableRing, members: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy generators of the subgroup spanned by `members`, and its
    mask: the first member outside the span S joins, and S grows to
    S + <x> by doubling (S | S + 2^i x, until it stops growing or 2^i x
    is 0)."""
    span = np.zeros(ring.order, dtype=bool)
    span[ring.zero] = True
    arr, gens = np.array([ring.zero]), []  # arr: the members of span
    while (rest := members[~span[members]]).size:
        gens.append(x := int(rest[0]))
        while x != ring.zero and (new := (moved := sums(ring, arr, x))[~span[moved]]).size:
            span[new] = True
            arr, x = np.concatenate([arr, new]), sums(ring, x, x)
    return gens, span


def prune_nil(ring: TableRing, gens, nil_mask: np.ndarray, sides: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, list[int] | None]:
    """(C, generators): Nil pruned of every x with g*x or x*g outside it,
    to a fixpoint C, and the greedy generators of C (`additive_generators`)
    if C is additively closed (its span is C), else None.

    g*x and x*g are read off `sides`, the rows and columns at `gens`
    (`_generator_sides`), taken here when not given.
    """
    left, right = _generator_sides(ring, gens) if sides is None else sides  # g*x and x*g, k x n each
    keep = nil_mask.copy()
    while True:
        arr = np.flatnonzero(keep)
        stay = keep[left[:, arr]].all(axis=0) & keep[right[:, arr]].all(axis=0)
        if stay.all():
            spanning, span = additive_generators(ring, arr)
            return keep, spanning if np.array_equal(span, keep) else None
        keep[arr[~stay]] = False


def jacobson_radical(
    ring: TableRing,
    unit_mask: np.ndarray | None = None,
    nil_mask: np.ndarray | None = None,
    gens=None,
    spanning: list | None = None,
    sides: tuple[np.ndarray, np.ndarray] | None = None,
) -> ElemSet:
    """J(R), the largest nil ideal, by pruning Nil on `gens` (default
    `ring.basis`) or else by the quasi-regularity criterion (see the
    module docstring): `quasi[mul]` is the (r, j) table of "1 - r*j is a
    unit", gathered over the candidates in slabs of about _CHUNK_CELLS
    cells, a column that fails one slab dropped from the next.

    A list passed as `spanning` receives the pruning's greedy generators
    of J, which `_build_quotient` can reuse; it stays empty when J comes
    from the criterion. `sides` goes to `prune_nil`.
    """
    gens = ring.basis if gens is None else gens
    cand = np.ones(ring.order, dtype=bool)
    if gens is not None:
        cand, generators = prune_nil(ring, gens, nilpotents(ring).mask() if nil_mask is None else nil_mask, sides)
        if generators is not None:
            if spanning is not None:
                spanning += generators
            return ElemSet.from_mask(ring, cand)
    if unit_mask is None:
        unit_mask = units(ring).mask()
    quasi = unit_mask[sums(ring, ring.one, ring.neg)]  # x -> is 1 - x a unit
    cand, rows = np.flatnonzero(quasi & cand), max(1, _CHUNK_CELLS // ring.order)
    for r in range(0, ring.order, rows):
        cand = cand[quasi[np.take(ring.mul[r : r + rows], cand, axis=1)].all(axis=0)]
    jac = ElemSet.of(ring, cand)
    ok, witness = is_two_sided_ideal(ring, jac)
    if not ok:  # unreachable on a valid ring; guards table corruption
        raise RingError(f"radical failed the ideal check at {witness}")
    return jac


def jsharp(ring: TableRing, jacobson: ElemSet, power: np.ndarray | None = None) -> ElemSet:
    """Elements with some power inside J(R); `power` as in `_orbit_masks`."""
    return ElemSet.from_mask(ring, _orbit_masks(ring, jacobson.mask(), power))


def prime_radical(ring: TableRing, jacobson: ElemSet | None = None) -> ElemSet:
    """Nil*(R); J(R) on a finite ring (see the module docstring)."""
    return jacobson if jacobson is not None else jacobson_radical(ring)


def is_two_sided_ideal(ring: TableRing, subset: ElemSet) -> tuple[bool, tuple | None]:
    """Additive-subgroup plus two-sided absorption check, with witness.

    Each test is one `.all()` over a gather; the witness scan runs only
    on a test that fails. On a ring with a `basis`, an additive subgroup
    S has R*S and S*R inside S iff g*S and S*g are, for each generator g
    (mul is bi-additive), so absorption is first tested on the basis,
    and the n x |S| tests run only when that fails, for their witness.
    """
    if ring.zero not in subset:
        return False, ("zero", ring.zero)
    mask, arr = subset.mask(), subset.index_array()
    closed = mask[sums(ring, *np.ix_(arr, arr))]
    if not closed.all():
        i, j = np.argwhere(~closed)[0]
        return False, ("add", int(arr[i]), int(arr[j]))
    if ring.basis is not None:
        gens = list(ring.basis)
        if mask[products(ring, gens)[:, arr]].all() and mask[products(ring, *np.ix_(arr, gens))].all():
            return True, None
    left = mask[np.take(ring.mul, arr, axis=1)]  # take: twice as fast as mul[:, arr]
    if not left.all():
        r, i = np.argwhere(~left)[0]
        return False, ("left", int(r), int(arr[i]))
    right = mask[ring.mul[arr, :]]
    if not right.all():
        i, r = np.argwhere(~right)[0]
        return False, ("right", int(arr[i]), int(r))
    return True, None


# ---------------------------------------------------------------------------
# group-ring specifics
# ---------------------------------------------------------------------------


def augmentation_ideal(ring: TableRing) -> ElemSet:
    """The kernel of the augmentation RG -> R, which sums the coefficients."""
    meta = ring.meta
    if not isinstance(meta, GroupRingMeta):
        raise NotAGroupRingError("ring was not built as a group ring")
    base = meta.base
    eps = np.full(ring.order, base.zero, dtype=np.int32)
    for g in range(meta.group.order):
        eps = base.add[eps, meta.digits[:, g]]
    return ElemSet.from_mask(ring, eps == base.zero)


# ---------------------------------------------------------------------------
# aggregated bundle
# ---------------------------------------------------------------------------


_SETS = ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp", "prime_radical")


@dataclass
class InvariantBundle:
    """All structural subsets of one ring, computed once and then shared."""

    ring: TableRing
    units: ElemSet
    idempotents: ElemSet
    nilpotents: ElemSet
    center: ElemSet
    jacobson: ElemSet
    jsharp: ElemSet
    prime_radical: ElemSet
    _modulo_radical: tuple | None = field(default=None, init=False, repr=False, compare=False)  # (R/J, projection), set by the unit lift
    _radical_quotient: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _clean_decomposable: tuple | None = field(default=None, init=False, repr=False, compare=False)  # predicates.clean_decomposable
    _units_minus_one: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)  # predicates._units_minus_one_in
    _squares: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)  # every a^2, set by `_compute_bundle`

    def modulo_radical(self) -> tuple[TableRing, np.ndarray]:
        """(R/J, projection), built on first use and kept; `compute_bundle`
        keeps the one it lifts U from.

        J is not re-proved an ideal here: `jacobson_radical` proved it, and
        a cache-loaded J passed the payload digest. R/J's tables are still
        validated.
        """
        if self._modulo_radical is None:
            self._modulo_radical = _radical_quotient(self.ring, self.jacobson)
        return self._modulo_radical

    def radical_quotient(self) -> tuple[TableRing, np.ndarray, InvariantBundle]:
        """(R/J, projection, bundle of R/J), computed on first use and kept
        (`modulo_radical`, then R/J's bundle); R/{0} shares R's tables and
        this bundle."""
        if self._radical_quotient is None:
            quotient, projection = self.modulo_radical()
            shared = quotient.shares_tables(self.ring)
            self._radical_quotient = quotient, projection, self.on_copy(quotient) if shared else compute_bundle(quotient)
        return self._radical_quotient

    def on_copy(self, ring: TableRing) -> InvariantBundle:
        """This bundle for `ring`, a ring over these very tables (R/{0}):
        the same read-only masks, wrapped for it; nothing is recomputed."""
        return _wrap_masks(ring, self.masks())

    def masks(self) -> tuple[np.ndarray, ...]:
        """The seven read-only masks, in `_SETS` order."""
        return tuple(getattr(self, name).mask() for name in _SETS)


def _wrap_masks(ring: TableRing, masks) -> InvariantBundle:
    """The bundle whose seven sets, in `_SETS` order, have `masks`."""
    return InvariantBundle(ring=ring, **{name: ElemSet.from_mask(ring, mask) for name, mask in zip(_SETS, masks)})


def _radical_quotient(ring: TableRing, jacobson: ElemSet, spanning=None) -> tuple[TableRing, np.ndarray]:
    """(R/J, projection); `spanning`, if given, holds greedy generators of J."""
    from .construct import _build_quotient  # local import; construct sits above

    return _build_quotient(ring, jacobson, spanning=spanning)


# The bundle memo of the `run_suite` or `run_check` call under way, or None
_MEMO: ContextVar[dict | None] = ContextVar("bundle_memo", default=None)


@contextmanager
def bundle_memo():
    """Share one bundle per table inside the block (see `compute_bundle`).
    The memo is emptied and closed when the block ends, also when it
    raises, so no entry outlives the call that opened it."""
    memo: dict = {}
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        memo.clear()
        _MEMO.reset(token)


def compute_bundle(ring: TableRing) -> InvariantBundle:
    """The ring's invariant bundle (`_compute_bundle`).

    Inside `bundle_memo`, a ring of order at most 64 is keyed by its
    order, zero, one and the dtypes and bytes of `add` and `mul` (the
    bytes themselves, so two keys are equal only on equal tables). The
    first ring over some tables computes their bundle and leaves its seven
    masks in the memo; every later one gets those masks wrapped for
    itself, so its witnesses carry its own names. The sets depend on the
    tables alone. Elsewhere, and above order 64, every call computes.
    """
    memo = _MEMO.get()
    if memo is None or ring.order > EXHAUSTIVE_LIMIT:
        return _compute_bundle(ring)
    add, mul = ring.add, ring.mul
    key = (ring.order, ring.zero, ring.one, add.dtype.str, mul.dtype.str, add.tobytes(), mul.tobytes())
    if key in memo:
        return _wrap_masks(ring, memo[key])
    bundle = _compute_bundle(ring)
    memo[key] = bundle.masks()
    return bundle


def _compute_bundle(ring: TableRing) -> InvariantBundle:
    """Id, Nil and J# off one squaring orbit, whose squares the bundle
    keeps; Nil, then J and Z, then U: lifted from R/J, which the bundle
    keeps, on a ring with a basis and J != {0} (see the module docstring);
    R/J's own bundle waits for `InvariantBundle.radical_quotient`.
    The pruning and the center share one read of the rows and columns at
    the basis, freed before R/J is built; R/J's coset minima reuse the
    greedy generators of J that the pruning took, and the lift of U reads
    its squares off the orbit's."""
    square, power = _squaring_orbit(ring)
    nil = nilpotents(ring, power)
    jac = z = radical = None
    if ring.basis is not None:
        spanning: list[int] = []
        sides = _generator_sides(ring, ring.basis)
        jac = jacobson_radical(ring, nil_mask=nil.mask(), spanning=spanning, sides=sides)
        z = center(ring, sides)
        del sides
        if len(jac) > 1:  # R/{0} = R gains nothing
            radical = _radical_quotient(ring, jac, spanning=spanning or None)  # empty when J came from the criterion
    u = units(ring, radical, square)
    if jac is None:  # no basis: the criterion reads the scan's U
        jac = jacobson_radical(ring, u.mask(), nil.mask())
        z = center(ring)
    bundle = InvariantBundle(
        ring=ring,
        units=u,
        idempotents=idempotents(ring, square),
        nilpotents=nil,
        center=z,
        jacobson=jac,
        jsharp=jsharp(ring, jac, power),
        prime_radical=prime_radical(ring, jac),
    )
    bundle._modulo_radical = radical
    square.setflags(write=False)
    bundle._squares = square
    _assert_bundle_sanity(bundle)
    return bundle


def _assert_bundle_sanity(b: InvariantBundle) -> None:
    """Raise RingError if the bundle breaks an identity every ring satisfies."""
    ring = b.ring
    one_plus_j = ElemSet.of(ring, sums(ring, ring.one, b.jacobson.index_array()))
    broken = [
        name
        for name, ok in (
            ("1 in U and 0 not in U", ring.one in b.units and ring.zero not in b.units),
            ("0, 1 in Id", ring.zero in b.idempotents and ring.one in b.idempotents),
            ("0 in Nil and 0 in J", ring.zero in b.nilpotents and ring.zero in b.jacobson),
            ("J <= J#", b.jacobson <= b.jsharp),
            ("Nil <= J#", b.nilpotents <= b.jsharp),
            ("1 + J <= U", one_plus_j <= b.units),
            ("J <= Nil", b.jacobson <= b.nilpotents),
            ("Nil & Z <= J", b.nilpotents & b.center <= b.jacobson),  # rz is nilpotent for z central
        )
        if not ok
    ]
    if broken:
        raise RingError(f"inconsistent invariant bundle: {', '.join(broken)} fails")


# ---------------------------------------------------------------------------
# desk oracles (ideal enumeration; exponential in general, small orders only)
#
# Ideals are (n,) boolean masks. The left ideals are the join-closure of
# the Ra; the two-sided ones that of the (a), each the additive span of
# RaR, all taken in one masked fixpoint (`principal_ideals`; the ideals
# inside J of `CheckContext.radical_ideals` close only the rows of J). The
# join walks a frontier of new ideals I: x is labelled by the least member
# of its coset x + I, and I + P is the union of the cosets p + I, so each P
# not inside I is joined by one scatter of P's labels and one gather at
# every label (`_join_masks`). O-jac ANDs the proper left ideals inside no
# other, found by one inclusion test over all pairs; O-nilstar ANDs the
# proper two-sided ideals that are prime, decided in one gather (`_prime_rows`).
# ---------------------------------------------------------------------------


def _join_masks(ring: TableRing, principal: np.ndarray) -> np.ndarray:
    """Every sum of the ideals whose masks are the rows of `principal`, as distinct rows."""
    ideals = {row.tobytes(): row for row in principal}
    principal = np.array(list(ideals.values()))
    frontier = list(principal)
    while frontier:
        grown = []
        for ideal in frontier:
            rest = principal[(principal & ~ideal).any(axis=1)]  # I + P = I for P inside I
            label = ring.add[:, np.flatnonzero(ideal)].min(axis=1)  # the least member of x + I
            rows, members = np.nonzero(rest)
            hit = np.zeros(rest.shape, dtype=bool)
            hit[rows, label[members]] = True
            for row in hit[:, label]:  # x lies in I + P iff its label is one of P's
                if (key := row.tobytes()) not in ideals:
                    ideals[key] = row
                    grown.append(row)
        frontier = grown
    return np.array(list(ideals.values()))


def jacobson_radical_maximal_ideal_oracle(ring: TableRing) -> ElemSet:
    """Intersection of the maximal left ideals (desk oracle, small orders)."""
    principal = np.zeros((ring.order, ring.order), dtype=bool)
    principal[np.arange(ring.order), ring.mul] = True  # row a: Ra, the column mul[:, a]
    ideals = _join_masks(ring, principal)
    proper = ideals[~ideals.all(axis=1)]
    inside = proper.astype(np.float32) @ (~proper).T.astype(np.float32) == 0  # [i, j]: ideal i inside ideal j
    return ElemSet.from_mask(ring, proper[inside.sum(axis=1) == 1].all(axis=0))  # inside itself alone


def principal_ideals(ring: TableRing, gens: np.ndarray | None = None) -> np.ndarray:
    """(g, n) masks whose row i is the two-sided ideal generated by
    gens[i]; `gens` defaults to every element, so row a is (a).

    Row i starts as the products r·gens[i]·s, read off mul[mul[:, gens]],
    whose entry [r, i, s] is (r gens[i])s; they hold 0 and gens[i]. Each
    round pads every row's member list to n with zero, so a row reads its
    own members and 0 elsewhere, and adds the sums of every pair of them
    in one gather through add. A finite set that holds 0 and is closed
    under + is a subgroup, and for a = gens[i], r(Σ r_k a s_k)s is again a
    sum of such products, so a row that stops growing is the ideal.
    """
    n = ring.order
    columns = ring.mul if gens is None else ring.mul[:, gens]
    rows = np.arange(columns.shape[1])[:, None]
    masks = np.zeros((len(rows), n), dtype=bool)
    masks[rows, ring.mul[columns].transpose(1, 0, 2).reshape(len(rows), -1)] = True
    while True:
        members = np.where(masks, np.arange(n), ring.zero)
        grown = np.zeros_like(masks)
        grown[rows, ring.add[members[:, :, None], members[:, None, :]].reshape(len(rows), -1)] = True
        if np.array_equal(grown, masks):
            return masks
        masks = grown


def _prime_rows(inside: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Which proper ideals P, one mask a row of `inside`, are prime: no a, b
    outside P with aRb inside P, read as inside[P, (ar)b] over every
    (P, a, r, b), where `triples` is mul[mul], whose [a, r, b] is (ar)b."""
    absorbed = inside[:, triples].all(axis=2)  # aRb inside P, at [P, a, b]
    return ~(absorbed & ~inside[:, :, None] & ~inside[:, None, :]).any(axis=(1, 2))


def prime_radical_ideal_oracle(ring: TableRing) -> ElemSet:
    """Intersection of all prime ideals (desk oracle, small orders)."""
    ideals = _join_masks(ring, principal_ideals(ring))
    proper = ideals[~ideals.all(axis=1)]
    return ElemSet.from_mask(ring, proper[_prime_rows(proper, ring.mul[ring.mul])].all(axis=0))
