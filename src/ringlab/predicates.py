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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ElemSet, RingError, TableRing
from .construct import build_quotient
from .subsets import InvariantBundle, compute_bundle, product_one_pairs


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.value


# ---------------------------------------------------------------------------
# unit-versus-radical classes
# ---------------------------------------------------------------------------


def _units_minus_one_in(ring: TableRing, bundle: InvariantBundle, pool: ElemSet, name: str) -> Verdict:
    """Is u - 1 in `pool` for every unit u? The witness is the first unit that is not."""
    units = bundle.units.index_array()
    outside = np.flatnonzero(~pool.mask()[ring.add[units, ring.neg[ring.one]]])
    if len(outside):
        return Verdict(False, f"unit u = {ring.describe(int(units[outside[0]]))} has u-1 outside {name}")
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
    bad = np.flatnonzero(ring.mul[b, a] != ring.one)
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
    left = idem[np.take(ring.mul, scan, axis=1)].any(axis=0)  # R*a; take: faster than mul[:, scan]
    right = idem[ring.mul[scan, :]].any(axis=1)  # a*R
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


def is_regular(ring: TableRing, bundle: InvariantBundle) -> Verdict:
    """von Neumann regular: for each a some x has axa = a.

    The a are tested in index order, in blocks of 64: the block's columns
    y*a are copied out (row by row, then transposed in cache), one
    (64, n) gather gives (a*x)*a over all x, then one row test. The
    witness is the first failing a.
    """
    n = ring.order
    for i in range(0, n, _BLOCK):
        a = np.arange(i, min(i + _BLOCK, n))
        right = np.ascontiguousarray(np.ascontiguousarray(ring.mul[:, i : i + _BLOCK]).T)  # right[k, y] = y * a_k
        # the int64 row offsets widen the uint16 products before the sum
        axa = np.take(right, ring.mul[i : i + _BLOCK] + np.arange(0, right.size, n)[:, None])
        served = (axa == a[:, None]).any(axis=1)
        if not served.all():
            return Verdict(False, f"no x with axa = a for a = {ring.describe(int(a[np.argmin(served)]))}")
    return Verdict(True)


def _row_sets(ring: TableRing, elems: np.ndarray) -> np.ndarray:
    """(k, n) masks of the principal right ideals aR for the k elements a."""
    n = ring.order
    hit = np.zeros(len(elems) * n, dtype=bool)
    hit[(ring.mul[elems, :] + np.arange(0, hit.size, n)[:, None]).ravel()] = True  # int64 offsets widen the sum
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
    one_minus = ring.add[ring.one, ring.neg]  # x -> 1 - x
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
    docstring)."""
    quotient, _, qbundle = bundle.radical_quotient()
    boo = is_boolean(quotient, qbundle)
    if not boo:
        return Verdict(False, f"R/J not Boolean: {boo.witness}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# clean decompositions
# ---------------------------------------------------------------------------


def _decomposition(ring: TableRing, bundle: InvariantBundle, a: int, pool: str, commuting: bool):
    """First (e, w) with e idempotent, w = a - e in the bundle's set `pool`, optionally ea = ae."""
    pool = getattr(bundle, pool)
    for e in bundle.idempotents:
        w = int(ring.add[a, ring.neg[e]])
        if w in pool and not (commuting and ring.mul[e, a] != ring.mul[a, e]):
            return e, w
    return None


# (ring, bundle, a) -> the first (e, w), or None; the pools are those of _CLEAN_CLASSES
clean_witness = partial(_decomposition, pool="units", commuting=False)
strongly_clean_witness = partial(_decomposition, pool="units", commuting=True)
jsharp_clean_witness = partial(_decomposition, pool="jsharp", commuting=False)
strongly_jsharp_clean_witness = partial(_decomposition, pool="jsharp", commuting=True)
strongly_nil_clean_witness = partial(_decomposition, pool="nilpotents", commuting=True)


def clean_decomposition_count(ring: TableRing, bundle: InvariantBundle, a: int) -> int:
    """Number of ordered pairs (e, u) with e idempotent, u a unit, a = e + u."""
    return int(bundle.units.mask()[ring.add[a, ring.neg[bundle.idempotents.index_array()]]].sum())


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
    once: an (n, |Id|) gather of a - e, looked up in each pool, and for
    the strong classes the mask of idempotents e with ea = ae. Computed
    once per bundle and kept on it, with read-only arrays, so `classify`
    and the checks that read the masks share one gather.
    """
    if bundle._clean_decomposable is None:
        decomposable, counts = _clean_masks(ring, bundle)
        for array in (*decomposable.values(), counts):
            array.setflags(write=False)
        bundle._clean_decomposable = (decomposable, counts)
    return bundle._clean_decomposable


def _clean_masks(ring: TableRing, bundle: InvariantBundle) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """`clean_decomposable`'s gather."""
    idem = bundle.idempotents.index_array()
    diff = ring.add[:, ring.neg[idem]]  # (a, e) -> a - e
    commutes = ring.mul[idem, :].T == ring.mul[:, idem]  # (a, e) -> ea = ae
    in_pool = {pool: getattr(bundle, pool).mask()[diff] for pool in ("units", "jsharp", "nilpotents")}
    decomposable = {
        name: (in_pool[pool] & commutes if commuting else in_pool[pool]).any(axis=1)
        for name, (pool, commuting) in _CLEAN_CLASSES.items()
    }
    return decomposable, in_pool["units"].sum(axis=1)


def clean_family(ring: TableRing, bundle: InvariantBundle) -> dict[str, Verdict]:
    """Ring-level verdicts for the clean-style decomposition classes (see
    `clean_decomposable`)."""
    decomposable, counts = clean_decomposable(ring, bundle)
    out: dict[str, Verdict] = {}
    for name, found in decomposable.items():
        if found.all():
            out[name] = Verdict(True)
        else:
            bad = ring.describe(int(np.argmin(found)))
            out[name] = Verdict(False, f"{bad} has no {name.replace('_', ' ')} decomposition")
    if (counts == 1).all():
        out["uniquely_clean"] = Verdict(True)
    else:
        bad = int(np.argmax(counts != 1))
        out["uniquely_clean"] = Verdict(False, f"{ring.describe(bad)} has {int(counts[bad])} clean decompositions")
    return out


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def classify(ring: TableRing, bundle: InvariantBundle) -> dict[str, Verdict]:
    """Evaluate every ring-class predicate once, in the order `ring inspect` prints them.

    The seven classes every finite ring has are reported true without a
    search (see the module docstring), and so is regularity when J = 0: an
    Artinian ring is regular exactly when it is semisimple.
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
        **clean_family(ring, bundle),
        # overridden in place, so they keep clean_family's order
        "clean": finite,
        "strongly_clean": finite,
        "dedekind_finite": finite,
        "two_primal": is_2primal(ring, bundle),
    }
    # implication lattice; a violation here is a computation bug
    for stronger, weaker in (("uj", "ujsharp"), ("uu", "ujsharp"), ("boolean", "uu")):
        if out[stronger].value and not out[weaker].value:
            raise RingError(f"classification bug: {stronger} holds but {weaker} does not")
    return out
