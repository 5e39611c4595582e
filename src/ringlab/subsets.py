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
false. Elsewhere (J = {0}, no basis), inside the criterion of an open
fixpoint, and for Dedekind-finiteness, U is the n^2 scan for ab = ba = 1.

The center compares each row of the multiplication table with its
column (`core.rows_equal_columns`). On a ring that keeps a set of
additive generators (`TableRing.basis`: the bit generators, kept above
order 64 when validation decided every triple and they reach every
element), mul is bi-additive and they generate (R, +), so z is central
iff it commutes with each generator, and a subgroup S absorbs R on a
side iff it absorbs each generator there: the center and the ideal
check read n x k and |S| x k cells (k = log2 n) instead of n x n and
n x |S|.

On a finite ring two of the radicals collapse (Lam, GTM 131):

- Nil*(R) = J(R). J is nilpotent, so it lies in every prime ideal; Nil*
  is a nil ideal, so it lies in J. The prime radical is therefore J
  itself; the prime-ideal intersection survives as a desk oracle.
- J#(R) = Nil(R), since J is nilpotent.

Nil and J# are still computed from their definitions ("some power of a
lands in the ideal"), by repeated squaring: a power that enters an ideal
stays there, and the first entry comes by a^n with n the ring order, so
a^(2^k) with 2^k >= n decides membership in ceil(log2 n) table gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ElemSet, GroupRingMeta, RingError, TableRing, rows_equal_columns


class NotAGroupRingError(RingError):
    """Augmentation requested on a ring without group-ring structure."""


def product_one_pairs(ring: TableRing) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) with ab = 1, row-major: `np.nonzero(mul == one)`.

    The n^2 hit mask is scanned as 8-byte words, and only the nonzero
    words are expanded to their 8 cells; the last n^2 mod 8 cells are
    read one by one.
    """
    hit = (ring.mul == ring.one).ravel()
    body = hit.size - hit.size % 8
    words = np.flatnonzero(hit[:body].view(np.uint64))
    cells = (words[:, None] * 8 + np.arange(8)).ravel()
    cells = np.concatenate([cells[hit[cells]], body + np.flatnonzero(hit[body:])])
    return np.divmod(cells, ring.order)


def units(ring: TableRing, radical: tuple | None = None) -> ElemSet:
    """The unit group; lifted from `radical` as in `unit_inverses`."""
    return ElemSet.of(ring, list(unit_inverses(ring, radical)))


def unit_inverses(ring: TableRing, radical: tuple | None = None) -> dict[int, int]:
    """Each unit with its inverse: the pairs ab = 1 that also have ba = 1
    (a two-sided inverse is unique).

    Given `radical` = (R/J, projection, ...) for a proved ideal J, each
    preimage u of a unit of R/J gets v = v0 (1+x)(1+x^2)(1+x^4)..., v0 a
    preimage of the coset's inverse: x = 1 - u*v0 is in J, so u*v =
    1 - x^(2^k) = 1 once x^(2^k) = 0, within ceil(log2 n) squarings.
    u*v = v*u = 1 is checked for every u, else RingError.
    """
    if radical is None:
        a, b = product_one_pairs(ring)
        two_sided = ring.mul[b, a] == ring.one
        return dict(zip(a[two_sided].tolist(), b[two_sided].tolist()))
    quotient, projection = radical[:2]
    inverse, coset_inverse = unit_inverses(quotient), np.full(quotient.order, -1)
    coset_inverse[list(inverse)] = list(inverse.values())
    lowest = np.unique(projection, return_index=True)[1]  # each coset's smallest member
    u = np.flatnonzero(coset_inverse[projection] >= 0)
    v = lowest[coset_inverse[projection[u]]]
    add, mul, one = ring.add, ring.mul, ring.one
    x = add[one, ring.neg[mul[u, v]]]
    for _ in range((ring.order - 1).bit_length()):
        if (x == ring.zero).all():
            break
        v, x = mul[v, add[one, x]], mul[x, x]
    certified = (mul[u, v] == one) & (mul[v, u] == one)
    if not certified.all():  # unreachable on a valid ring; guards table corruption
        raise RingError(f"unit lifted from R/J failed its inverse check at {int(u[np.argmin(certified)])}")
    return dict(zip(u.tolist(), v.tolist()))


def idempotents(ring: TableRing) -> ElemSet:
    idx = np.arange(ring.order)
    return ElemSet.from_mask(ring, ring.mul[idx, idx] == idx)


def _orbit_masks(ring: TableRing, ideal_mask: np.ndarray) -> np.ndarray:
    """For each element a: does some positive power of a land in the ideal?

    Exact for a two-sided ideal: a^(2^k) with 2^k >= n decides it.
    """
    power = np.arange(ring.order)  # a^1
    for _ in range((ring.order - 1).bit_length()):  # ceil(log2 n) squarings
        power = ring.mul[power, power]
    return ideal_mask[power]


def nilpotents(ring: TableRing) -> ElemSet:
    zero = np.zeros(ring.order, dtype=bool)
    zero[ring.zero] = True
    return ElemSet.from_mask(ring, _orbit_masks(ring, zero))


def center(ring: TableRing) -> ElemSet:
    """Z(R): the a whose row of the multiplication table equals its column.

    On a ring with a `basis`, z is central iff zg = gz for each generator
    g, since mul is bi-additive: an n x k compare instead of n x n.
    """
    if ring.basis is not None:
        gens = np.array(ring.basis)
        return ElemSet.from_mask(ring, (np.take(ring.mul, gens, axis=1) == ring.mul[gens].T).all(axis=1))
    return ElemSet.from_mask(ring, rows_equal_columns(ring.mul))


_JAC_ROWS = 512  # rows of `mul` per slab in jacobson_radical


def additive_generators(ring: TableRing, members: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy generators of the subgroup spanned by `members`, and its
    mask: the first member outside the span S joins, and S grows to
    S + <x> by doubling (S | S + 2^i x, until it stops growing)."""
    span = np.zeros(ring.order, dtype=bool)
    span[ring.zero] = True
    arr, gens = np.array([ring.zero]), []  # arr: the members of span
    while (rest := members[~span[members]]).size:
        gens.append(x := int(rest[0]))
        while (new := (moved := ring.add[arr, x])[~span[moved]]).size:
            span[new] = True
            arr, x = np.concatenate([arr, new]), ring.add[x, x]
    return gens, span


def prune_nil(ring: TableRing, gens, nil_mask: np.ndarray) -> tuple[np.ndarray, bool]:
    """(C, closed): Nil pruned of every x with g*x or x*g outside it, to
    a fixpoint C, and whether C is additively closed (its span is C)."""
    gens = list(gens)
    left, right = ring.mul[gens], np.take(ring.mul, gens, axis=1).T  # g*x and x*g, k x n
    keep = nil_mask.copy()
    while True:
        arr = np.flatnonzero(keep)
        stay = keep[left[:, arr]].all(axis=0) & keep[right[:, arr]].all(axis=0)
        if stay.all():
            return keep, bool(np.array_equal(additive_generators(ring, arr)[1], keep))
        keep[arr[~stay]] = False


def jacobson_radical(ring: TableRing, unit_mask: np.ndarray | None = None, nil_mask: np.ndarray | None = None, gens=None) -> ElemSet:
    """J(R), the largest nil ideal, by pruning Nil on `gens` (default
    `ring.basis`) or else by the quasi-regularity criterion (see the
    module docstring): `quasi[mul]` is the (r, j) table of "1 - r*j is a
    unit", gathered over the candidates in slabs of 512 rows, a column
    that fails one slab dropped from the next.
    """
    gens = ring.basis if gens is None else gens
    cand = np.ones(ring.order, dtype=bool)
    if gens is not None:
        cand, closed = prune_nil(ring, gens, nilpotents(ring).mask() if nil_mask is None else nil_mask)
        if closed:
            return ElemSet.from_mask(ring, cand)
    if unit_mask is None:
        unit_mask = units(ring).mask()
    quasi = unit_mask[ring.add[ring.one, ring.neg]]  # x -> is 1 - x a unit
    cand = np.flatnonzero(quasi & cand)
    for r in range(0, ring.order, _JAC_ROWS):
        cand = cand[quasi[np.take(ring.mul[r : r + _JAC_ROWS], cand, axis=1)].all(axis=0)]
    jac = ElemSet.of(ring, cand)
    ok, witness = is_two_sided_ideal(ring, jac)
    if not ok:  # unreachable on a valid ring; guards table corruption
        raise RingError(f"radical failed the ideal check at {witness}")
    return jac


def jsharp(ring: TableRing, jacobson: ElemSet) -> ElemSet:
    """Elements with some power inside J(R)."""
    return ElemSet.from_mask(ring, _orbit_masks(ring, jacobson.mask()))


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
    closed = mask[ring.add[np.ix_(arr, arr)]]
    if not closed.all():
        i, j = np.argwhere(~closed)[0]
        return False, ("add", int(arr[i]), int(arr[j]))
    if ring.basis is not None:
        gens = np.array(ring.basis)
        if mask[ring.mul[np.ix_(gens, arr)]].all() and mask[ring.mul[np.ix_(arr, gens)]].all():
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


def _group_ring_meta(ring: TableRing) -> GroupRingMeta:
    if not isinstance(ring.meta, GroupRingMeta):
        raise NotAGroupRingError("ring was not built as a group ring")
    return ring.meta


def augmentation(ring: TableRing, a: int) -> int:
    """Coefficient sum of a group-ring element, landing in the base ring."""
    meta = _group_ring_meta(ring)
    ring.check_index(a)
    total = meta.base.zero
    for c in meta.digits[a]:
        total = int(meta.base.add[total, int(c)])
    return total


def augmentation_ideal(ring: TableRing) -> ElemSet:
    meta = _group_ring_meta(ring)
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
    _radical_quotient: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _clean_decomposable: tuple | None = field(default=None, init=False, repr=False, compare=False)  # predicates.clean_decomposable

    def radical_quotient(self) -> tuple[TableRing, np.ndarray, InvariantBundle]:
        """(R/J, projection, bundle of R/J), computed on first use and kept;
        `compute_bundle` fills it when it lifts U from R/J.

        J is not re-proved an ideal here: `jacobson_radical` proved it, and
        a cache-loaded J passed the payload digest. R/J's tables are still
        validated.
        """
        if self._radical_quotient is None:
            self._radical_quotient = _radical_quotient(self.ring, self.jacobson, self)
        return self._radical_quotient

    def on_copy(self, ring: TableRing) -> InvariantBundle:
        """This bundle for `ring`, a ring over these very tables (R/{0}):
        the same read-only masks, wrapped for it; nothing is recomputed."""
        sets = {name: ElemSet.from_mask(ring, getattr(self, name).mask()) for name in _SETS}
        return InvariantBundle(ring=ring, **sets)


def _radical_quotient(ring: TableRing, jacobson: ElemSet, bundle: InvariantBundle | None = None) -> tuple:
    """(R/J, projection, bundle of R/J); R/{0} shares R's tables and `bundle`."""
    from .construct import _build_quotient  # local import; construct sits above

    quotient, projection = _build_quotient(ring, jacobson)
    shared = quotient.mul is ring.mul  # R/{0}
    return quotient, projection, bundle.on_copy(quotient) if shared else compute_bundle(quotient)


def compute_bundle(ring: TableRing) -> InvariantBundle:
    """Nil, then J, then U: lifted from R/J, which the bundle keeps, on a
    ring with a basis and J != {0} (see the module docstring)."""
    nil = nilpotents(ring)
    jac = jacobson_radical(ring, nil_mask=nil.mask()) if ring.basis is not None else None
    radical = _radical_quotient(ring, jac) if jac is not None and len(jac) > 1 else None  # R/{0} = R gains nothing
    u = units(ring, radical)
    if jac is None:  # no basis: the criterion reads the scan's U
        jac = jacobson_radical(ring, u.mask(), nil.mask())
    bundle = InvariantBundle(
        ring=ring,
        units=u,
        idempotents=idempotents(ring),
        nilpotents=nil,
        center=center(ring),
        jacobson=jac,
        jsharp=jsharp(ring, jac),
        prime_radical=prime_radical(ring, jac),
    )
    bundle._radical_quotient = radical
    _assert_bundle_sanity(bundle)
    return bundle


def _assert_bundle_sanity(b: InvariantBundle) -> None:
    """Raise RingError if the bundle breaks an identity every ring satisfies."""
    ring = b.ring
    one_plus_j = ElemSet.of(ring, ring.add[ring.one, b.jacobson.index_array()])
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
# ---------------------------------------------------------------------------


def _join_closure(ring: TableRing, principal: set[frozenset[int]]) -> list[frozenset[int]]:
    """Every sum of ideals from `principal`, sorted by (size, members)."""

    def key(members: np.ndarray) -> bytes:
        mask = np.zeros(ring.order, dtype=bool)
        mask[members] = True
        return mask.tobytes()

    arrays = [np.fromiter(j, dtype=np.int64, count=len(j)) for j in principal]
    ideals = {key(ja): ja for ja in arrays}  # mask bytes -> member index array
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


def left_ideals(ring: TableRing) -> list[frozenset[int]]:
    """All left ideals, as the join-closure of the principal ones."""
    principal = {frozenset(int(x) for x in ring.mul[:, a]) for a in range(ring.order)}
    return _join_closure(ring, principal)


def jacobson_radical_maximal_ideal_oracle(ring: TableRing) -> ElemSet:
    """Intersection of the maximal left ideals (desk oracle, small orders)."""
    proper = [i for i in left_ideals(ring) if len(i) < ring.order]
    maximal = [i for i in proper if not any(i < j for j in proper)]
    inter = frozenset(range(ring.order))
    for m in maximal:
        inter &= m
    return ElemSet.of(ring, inter)


def two_sided_ideals(ring: TableRing) -> list[frozenset[int]]:
    """All two-sided ideals via join-closure of principal ones."""
    from .construct import ideal_closure  # local import; construct sits above

    principal = {ideal_closure(ring, ElemSet.of(ring, [a]), "two-sided").members for a in range(ring.order)}
    return _join_closure(ring, principal)


def prime_radical_ideal_oracle(ring: TableRing) -> ElemSet:
    """Intersection of all prime ideals (desk oracle, small orders)."""
    n = ring.order
    mul = ring.mul
    primes = []
    for ideal in two_sided_ideals(ring):
        if len(ideal) == n:
            continue
        outside = [a for a in range(n) if a not in ideal]
        is_prime = True
        for a in outside:
            arow = mul[a, :]
            for b in outside:
                # a*R*b subset of P forces a or b inside a prime P
                if all(int(mul[int(ar), b]) in ideal for ar in arow):
                    is_prime = False
                    break
            if not is_prime:
                break
        if is_prime:
            primes.append(ideal)
    inter = frozenset(range(n))
    for p in primes:
        inter &= p
    return ElemSet.of(ring, inter)
