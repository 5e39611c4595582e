"""Ring-class predicates and element-wise decomposition searches.

Every searched verdict is decision-procedure grade: searches are
exhaustive over the relevant subsets, and a False verdict always
carries a witness that re-evaluating the defining formula would confirm.

Seven classes hold on every finite ring by theorem, so `classify` reports
them true without a search. A finite ring is semiperfect with J nilpotent
(Lam, *A First Course in Noncommutative Rings*, GTM 131), hence exchange
(Nicholson, Trans. AMS 229, 1977), clean (Camillo & Yu, Comm. Algebra 22,
1994) and strongly clean (Nicholson, Comm. Algebra 27, 1999); R/J is
semisimple and J is nil, so it is semipotent, potent and semiregular; and
it is Dedekind-finite by pigeonhole. The searches for these classes stay
here as the test of those theorems: registry check C2.7 runs them on every
ring it checks, and L-dedekind runs `is_dedekind_finite`. `classify` also
reports a ring with J = 0 regular without a search (an Artinian ring is
regular exactly when it is semisimple); `is_semiregular`, which C2.7 runs,
searches R/J for regularity and so tests that theorem too.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .core import _CHUNK_CELLS, ElemSet, RingError, TableRing, product_columns, products, sums
from .construct import build_quotient
from .subsets import InvariantBundle, compute_bundle, product_one_pairs


class Verdict(NamedTuple):
    value: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.value


# ---------------------------------------------------------------------------
# unit-versus-radical classes
# ---------------------------------------------------------------------------


def _units_minus_one_in(ring: TableRing, bundle: InvariantBundle, pool: ElemSet, name: str) -> Verdict:
    """Is u - 1 in `pool` for every unit u? The witness is the first unit
    that is not. The u - 1 of every unit is one gather, kept on the bundle
    (read-only), so the three unit classes share it."""
    if bundle._units_minus_one is None:
        shifted = sums(ring, bundle.units.index_array(), ring.neg[ring.one])
        shifted.setflags(write=False)
        bundle._units_minus_one = shifted
    outside = np.flatnonzero(~pool.mask()[bundle._units_minus_one])
    if len(outside):
        return Verdict(False, f"unit u = {ring.describe(int(bundle.units.index_array()[outside[0]]))} has u-1 outside {name}")
    return Verdict(True)


def is_ujsharp(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """Every unit is 1 + (element whose power orbit meets the radical)."""
    return _units_minus_one_in(ring, bundle, bundle.jsharp, "J#")


def is_uj(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    return _units_minus_one_in(ring, bundle, bundle.jacobson, "J")


def is_uu(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    return _units_minus_one_in(ring, bundle, bundle.nilpotents, "Nil")


def is_boolean(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    bad = (~bundle.idempotents).first()
    if bad is None:
        return Verdict(True)
    return Verdict(False, f"{ring.describe(bad)} is not idempotent")


def is_local(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """Nonunits coincide with the radical."""
    off = (~bundle.units ^ bundle.jacobson).first()
    if off is None:
        return Verdict(True)
    return Verdict(False, f"nonunits differ from J at {ring.describe(off)}")


def is_division(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    nonzero = ~ElemSet.of(ring, [ring.zero])
    if nonzero == bundle.units:
        return Verdict(True)
    off = (nonzero - bundle.units).first()
    return Verdict(False, f"{ring.describe(off)} is a nonzero nonunit")


def is_dedekind_finite(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """ab = 1 forces ba = 1 (pigeonhole guarantees this on finite rings)."""
    a, b = product_one_pairs(ring)  # row-major, as the first witness needs
    bad = np.flatnonzero(products(ring, b, a) != ring.one)
    if len(bad):
        a, b = int(a[bad[0]]), int(b[bad[0]])
        return Verdict(False, f"ab = 1 but ba != 1 for a = {ring.describe(a)}, b = {ring.describe(b)}")
    return Verdict(True)


def is_2primal(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    nilstar, nil = bundle.prime_radical, bundle.nilpotents
    if nilstar == nil:
        return Verdict(True)
    off = (nil - nilstar).first()
    return Verdict(False, f"nilpotent {ring.describe(off)} is not strongly nilpotent")


# ---------------------------------------------------------------------------
# idempotent-richness classes
# ---------------------------------------------------------------------------


def is_semipotent(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """Every one-sided ideal not inside J contains a nonzero idempotent.

    Checking the principal ideals Ra and aR for a outside J suffices:
    any offending ideal contains such an a, hence such a principal one.
    Only nilpotent a need a scan: some power a^k is idempotent in a
    finite ring, it is nonzero unless a is nilpotent, and it lies in
    both Ra and aR.
    """
    idem = bundle.idempotents.mask().copy()
    idem[ring.zero] = False
    scan = np.flatnonzero(bundle.nilpotents.mask() & ~bundle.jacobson.mask())
    left = idem[product_columns(ring, scan)].any(axis=1)  # R*a
    right = idem[products(ring, scan)].any(axis=1)  # a*R
    bad = np.flatnonzero(~(left & right))
    if not len(bad):
        return Verdict(True)
    a = int(scan[bad[0]])
    if not left[bad[0]]:
        return Verdict(False, f"left ideal R*{ring.describe(a)} has no nonzero idempotent")
    return Verdict(False, f"right ideal {ring.describe(a)}*R has no nonzero idempotent")


def idempotents_lift(ring: TableRing, bundle: InvariantBundle, ideal: ElemSet) -> Verdict:
    """Every idempotent of R/I is the image of an idempotent of R.

    Modulo J the bundle's shared R/J is used.
    """
    if ideal == bundle.jacobson:
        quotient, projection, qbundle = bundle.radical_quotient()
    else:
        quotient, projection = build_quotient(ring, ideal)
        qbundle = compute_bundle(quotient)
    missing = (qbundle.idempotents - ElemSet.of(quotient, projection[bundle.idempotents.index_array()])).first()
    if missing is not None:
        return Verdict(False, f"coset {quotient.describe(missing)} lifts to no idempotent")
    return Verdict(True)


def is_potent(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """Semipotent, and idempotents lift modulo J."""
    semi = is_semipotent(ring, bundle)
    if not semi:
        return semi
    return idempotents_lift(ring, bundle, bundle.jacobson)


_BLOCK = 64  # elements a per block in is_regular and is_exchange


def _growing_blocks(n: int, first: int, most: int):
    """Slices of 0..n-1 in index order: the first `first` elements long,
    each next one twice as long, up to `most`. A search that stops at its
    first failing element then reads little when that element comes early."""
    start, size = 0, first
    while start < n:
        yield slice(start, min(start + size, n))
        start, size = start + size, min(2 * size, most)


def is_regular(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """von Neumann regular: for each a some x has axa = a.

    The a are tested in index order, in blocks (`_growing_blocks`) of
    max(1, min(64, _CHUNK_CELLS // (64 n))) elements at first, doubling
    up to 64, so at order <= 64 in one block of 64: the block's columns
    y*a are read out as rows (`product_columns`), one (k, n) gather gives
    (a*x)*a over all x, then one row test. The witness is the first
    failing a.
    """
    n = ring.order
    for block in _growing_blocks(n, max(1, min(_BLOCK, _CHUNK_CELLS // (_BLOCK * n))), _BLOCK):
        a = np.arange(n)[block]
        right = np.ascontiguousarray(product_columns(ring, a))  # right[k, y] = y * a_k
        # the int64 row offsets widen the uint16 products before the sum
        axa = np.take(right, products(ring, a) + np.arange(0, right.size, n)[:, None])
        served = (axa == a[:, None]).any(axis=1)
        if not served.all():
            return Verdict(False, f"no x with axa = a for a = {ring.describe(int(a[np.argmin(served)]))}")
    return Verdict(True)


def _row_sets(ring: TableRing, elems: np.ndarray) -> np.ndarray:
    """(k, n) masks of the principal right ideals aR for the k elements a."""
    n = ring.order
    hit = np.zeros(len(elems) * n, dtype=bool)
    hit[(products(ring, elems) + np.arange(0, hit.size, n)[:, None]).ravel()] = True  # int64 offsets widen the sum
    return hit.reshape(len(elems), n)


def is_exchange(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """For each a: some idempotent e in aR with 1 - e in (1-a)R.

    This idempotent-splitting formulation agrees with the module-theoretic
    definitions on finite rings. A pre-pass settles two cases outright:
    e = 1 serves every unit a (1 = a*a^-1, and 0 lies in (1-a)R), and
    e = 0 serves every a with 1 - a a unit. The remaining a are searched
    in index order, in blocks of 64: one scatter of the rows a*R and
    (1-a)*R into (64, n) masks, then one (64, |Id|) test over all
    idempotents. The witness is the first failing a.
    """
    idem = bundle.idempotents.mask()
    one_minus = sums(ring, ring.one, ring.neg)  # x -> 1 - x
    idem_rest = one_minus[idem]  # 1 - e for each idempotent e
    units = bundle.units.mask()
    rest = np.flatnonzero(~(units | units[one_minus]))
    for i in range(0, len(rest), _BLOCK):
        a = rest[i : i + _BLOCK]
        served = (_row_sets(ring, a)[:, idem] & _row_sets(ring, one_minus[a])[:, idem_rest]).any(axis=1)
        if not served.all():
            return Verdict(False, f"no exchange idempotent for a = {ring.describe(int(a[np.argmin(served)]))}")
    return Verdict(True)


def is_semiregular(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """R/J regular and idempotents lift modulo J."""
    quotient, _, qbundle = bundle.radical_quotient()
    reg = is_regular(quotient, qbundle)
    if not reg:
        return Verdict(False, f"R/J not regular: {reg.witness}")
    return idempotents_lift(ring, bundle, bundle.jacobson)


def is_semiboolean(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """R/J Boolean and idempotents lift modulo J. Only R/J is tested:
    idempotents lift modulo J on every finite ring (see the module
    docstring).

    R/J is decided on R, without building it: (x + J)^2 = x + J exactly
    when x^2 - x is in J, so one gather of J's mask marks every x whose
    coset is not idempotent. The witness is R/J's first such coset, the
    one of the least marked x, r: each x below r is unmarked, so r is the
    least member of its coset, and the coset's index in R/J (cosets sorted
    by least member) is the number of x < r that are the least of theirs.
    That count is read off the r x |J| sums x + J when they fit
    _CHUNK_CELLS cells, else off the projection of the bundle's R/J. The
    squares are those `compute_bundle` kept, or on a bundle from the cache
    are taken here.
    """
    idx = np.arange(ring.order)
    square = products(ring, idx, idx) if bundle._squares is None else bundle._squares
    marked = ~bundle.jacobson.mask()[sums(ring, square, ring.neg)]
    if not marked.any():
        return Verdict(True)
    r = int(marked.argmax())
    members = bundle.jacobson.index_array()
    if r * len(members) <= _CHUNK_CELLS:
        coset = int((sums(ring, idx[:r, None], members).min(axis=1) == idx[:r]).sum())
    else:
        coset = int(bundle.modulo_radical()[1][r])
    return Verdict(False, f"R/J not Boolean: [{ring.name_of(r)}] (#{coset}) is not idempotent")


# ---------------------------------------------------------------------------
# clean decompositions
# ---------------------------------------------------------------------------


def _decomposition(ring: TableRing, bundle: InvariantBundle, a: int, pool: str, commuting: bool):
    """First (e, w) with e idempotent, w = a - e in the bundle's set `pool`, optionally ea = ae."""
    pool = getattr(bundle, pool)
    for e in bundle.idempotents:
        w = int(sums(ring, a, ring.neg[e]))
        if w in pool and not (commuting and ring.mul[e, a] != ring.mul[a, e]):
            return e, w
    return None


# (ring, bundle, a) -> the first (e, w), or None; the pools are those of _CLEAN_CLASSES
clean_witness = partial(_decomposition, pool="units", commuting=False)
strongly_clean_witness = partial(_decomposition, pool="units", commuting=True)
jsharp_clean_witness = partial(_decomposition, pool="jsharp", commuting=False)
strongly_jsharp_clean_witness = partial(_decomposition, pool="jsharp", commuting=True)
strongly_nil_clean_witness = partial(_decomposition, pool="nilpotents", commuting=True)


# class -> (bundle pool that a - e must lie in, whether ea = ae is required)
_CLEAN_CLASSES = {
    "clean": ("units", False),
    "strongly_clean": ("units", True),
    "jsharp_clean": ("jsharp", False),
    "strongly_jsharp_clean": ("jsharp", True),
    "strongly_nil_clean": ("nilpotents", True),
}


def clean_decomposable(ring: TableRing, bundle: InvariantBundle) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """For each class of `_CLEAN_CLASSES`, the mask of the a that have a
    decomposition, and the number of clean decompositions of each a.

    Decides the same searches as the `*_witness` functions for every a at
    once: `_clean_masks` over all of them. Computed once per bundle and
    kept on it, with read-only arrays, so `classify` and the checks that
    read the masks share one gather.
    """
    if bundle._clean_decomposable is None:
        decomposable, counts = _clean_masks(ring, bundle, _CLEAN_CLASSES, slice(None), True)
        for array in (*decomposable.values(), counts):
            array.setflags(write=False)
        bundle._clean_decomposable = (decomposable, counts)
    return bundle._clean_decomposable


def _pool_codes(bundle: InvariantBundle, pools) -> np.ndarray:
    """One uint8 code per element, whose bit i says whether it lies in
    the bundle's set `pools[i]`."""
    code = np.zeros(bundle.ring.order, dtype=np.uint8)
    for bit, pool in enumerate(pools):
        code |= getattr(bundle, pool).mask().view(np.uint8) << bit
    return code


def _clean_masks(ring: TableRing, bundle: InvariantBundle, names, block: slice, counted: bool):
    """For the a in `block`, the mask of those with a decomposition for
    each class in `names`, and the number of clean decompositions of each
    a (None unless `counted`).

    One (|Id|, k) gather of a - e, one row per idempotent e: the rows
    add[-e] hold -e + a, which is a - e since addition is proved
    commutative, so rows are read instead of columns. Only the pools the
    classes need are looked up, all in one gather: each is one bit of a
    uint8 code per element (`_pool_codes`), and the bits of the gathered
    codes are then tested. ea = ae is computed only if a strong class is
    among them.
    """
    idem = bundle.idempotents.index_array()
    diff = sums(ring, ring.neg[idem], block)  # (e, a) -> a - e
    if any(_CLEAN_CLASSES[name][1] for name in names):
        commutes = products(ring, idem, block) == product_columns(ring, idem, block)  # (e, a) -> ea = ae
    pools = list({_CLEAN_CLASSES[name][0] for name in names} | ({"units"} if counted else set()))
    codes = np.take(_pool_codes(bundle, pools), diff)
    in_pool = {pool: codes & (1 << bit) != 0 for bit, pool in enumerate(pools)}
    decomposable = {}
    for name in names:
        pool, commuting = _CLEAN_CLASSES[name]
        decomposable[name] = (in_pool[pool] & commutes if commuting else in_pool[pool]).any(axis=0)
    return decomposable, in_pool["units"].sum(axis=0) if counted else None


def _class_leads(ring: TableRing, bundle: InvariantBundle, idem: np.ndarray) -> np.ndarray:
    """Which of the idempotents `idem` lead their class modulo J: those e
    with no earlier e' in `idem` such that e - e' lies in J. One (|Id|,
    |Id|) gather of J's mask, a block of rows of about _CHUNK_CELLS cells
    at a time; with J = {0} every idempotent leads a class of its own."""
    k, lead = len(idem), np.ones(len(idem), dtype=bool)
    if len(bundle.jacobson) == 1:
        return lead
    step = max(1, _CHUNK_CELLS // k)
    for r in range(0, k, step):
        same = bundle.jacobson.mask()[sums(ring, idem[r : r + step, None], ring.neg[idem])]  # [i, j]: e_i - e_j in J
        lead &= ~(same & (np.arange(r, r + len(same))[:, None] < np.arange(k))).any(axis=0)
    return lead


def _class_masks(ring: TableRing, bundle: InvariantBundle, names, a: np.ndarray) -> dict[str, np.ndarray]:
    """`_clean_masks` for the a in the index array `a` and classes that
    need neither ea = ae nor a count: decided first on the idempotents
    that lead their class modulo J (`_class_leads`), then on the others
    for only the a that some class has not yet decomposed; each gather of
    pool codes (`_pool_codes`) reads at most _CHUNK_CELLS cells.

    The masks are exact on any bundle, as every idempotent is tried on
    every a not yet decomposed. On a computed bundle the second stage
    reads only the a that fail a class: a - e and a - e' differ by e' - e,
    which lies in J when e and e' share a class, and U, J# and Nil are
    unions of cosets of J (1 + J lies in U, and J# + J = J#).
    """
    pools = sorted({_CLEAN_CLASSES[name][0] for name in names})
    code, want = _pool_codes(bundle, pools), (1 << len(pools)) - 1
    idem = bundle.idempotents.index_array()
    lead = _class_leads(ring, bundle, idem)
    found = np.zeros(len(a), dtype=np.uint8)  # bit i: some idempotent e so far has a - e in pools[i]
    for e in (idem[lead], idem[~lead]):
        todo = np.flatnonzero(found != want) if len(e) else []
        step = max(1, _CHUNK_CELLS // max(len(e), 1))
        for r in range(0, len(todo), step):
            cols = todo[r : r + step]
            found[cols] |= np.bitwise_or.reduce(np.take(code, sums(ring, ring.neg[e][:, None], a[cols])), axis=0)
    return {name: found & (1 << pools.index(_CLEAN_CLASSES[name][0])) != 0 for name in names}


def clean_family(ring: TableRing, bundle: InvariantBundle, names=None) -> dict[str, Verdict]:
    """Ring-level verdicts for the clean-style decomposition classes
    `names`, "uniquely_clean" (exactly one clean decomposition) among
    them; by default every class, read off the whole masks, which then
    stay on the bundle for the checks (`clean_decomposable`). Each witness
    is the first failing a in index order.

    With the bundle's masks kept, or when the whole (|Id|, n) gather fits
    _CHUNK_CELLS cells, the verdicts are read off `clean_decomposable`.
    Otherwise the a are scanned in growing blocks (`_growing_blocks`, up
    to _CHUNK_CELLS cells a block), each class only until its first
    failing a, so a pool or the commute mask is gathered only while a
    class still needs it. Once only classes that need neither ea = ae nor
    a count are left, such as jsharp_clean, the rest of the a is decided
    at once, on one idempotent per class modulo J first (`_class_masks`).
    """
    if names is None:
        clean_decomposable(ring, bundle)
        names = (*_CLEAN_CLASSES, "uniquely_clean")
    n, k = ring.order, len(bundle.idempotents)
    whole = bundle._clean_decomposable is not None or k * n <= _CHUNK_CELLS
    blocks = [slice(0, n)] if whole else _growing_blocks(n, max(1, _CHUNK_CELLS // (_BLOCK * k)), _CHUNK_CELLS // k)
    out, pending = {}, list(names)
    for block in blocks:
        searched = [name for name in pending if name != "uniquely_clean"]
        counted = len(searched) < len(pending)
        if whole:
            decomposable, counts = clean_decomposable(ring, bundle)
        elif counted or any(_CLEAN_CLASSES[name][1] for name in searched):
            decomposable, counts = _clean_masks(ring, bundle, searched, block, counted)
        else:
            block = slice(block.start, n)
            decomposable, counts = _class_masks(ring, bundle, searched, np.arange(block.start, n)), None
        for name in pending:
            bad = counts != 1 if name == "uniquely_clean" else ~decomposable[name]
            if not bad.any():
                continue
            i = int(bad.argmax())
            a = ring.describe(block.start + i)
            if name == "uniquely_clean":
                out[name] = Verdict(False, f"{a} has {int(counts[i])} clean decompositions")
            else:
                out[name] = Verdict(False, f"{a} has no {name.replace('_', ' ')} decomposition")
        pending = [name for name in pending if name not in out]
        if not pending or block.stop == n:
            break
    return {name: out.get(name, Verdict(True)) for name in names}


# the clean classes `classify` searches, in the order `ring inspect` prints them;
# clean and strongly_clean hold on every finite ring
_SEARCHED_CLEAN = ("jsharp_clean", "strongly_jsharp_clean", "strongly_nil_clean", "uniquely_clean")


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def classify(ring: TableRing, bundle: InvariantBundle) -> dict[str, Verdict]:
    """Evaluate every ring-class predicate once, in the order `ring inspect` prints them.

    The seven classes every finite ring has are reported true without a
    search (see the module docstring), and so is regularity when J = 0: an
    Artinian ring is regular exactly when it is semisimple. The searches
    left stop at their first failing a (`is_regular`, `clean_family`).
    """
    finite = Verdict(True)
    out = {
        "ujsharp": is_ujsharp(ring, bundle),
        "uj": is_uj(ring, bundle),
        "uu": is_uu(ring, bundle),
        "boolean": is_boolean(ring, bundle),
        "local": is_local(ring, bundle),
        "division": is_division(ring, bundle),
        "regular": finite if len(bundle.jacobson) == 1 else is_regular(ring, bundle),
        "exchange": finite,
        "semiregular": finite,
        "semiboolean": is_semiboolean(ring, bundle),
        "semipotent": finite,
        "potent": finite,
        "clean": finite,
        "strongly_clean": finite,
        **clean_family(ring, bundle, _SEARCHED_CLEAN),
        "dedekind_finite": finite,
        "two_primal": is_2primal(ring, bundle),
    }
    # implication lattice; a violation here is a computation bug
    for stronger, weaker in (("uj", "ujsharp"), ("uu", "ujsharp"), ("boolean", "uu")):
        if out[stronger].value and not out[weaker].value:
            raise RingError(f"classification bug: {stronger} holds but {weaker} does not")
    return out
