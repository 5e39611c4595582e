"""Check bodies on ElemSet's mask algebra against the bodies they replaced.

The old bodies are kept below as they were (renamed `old_*`), with the
frozenset helpers they used. Both run on every corpus ring, with the true
bundle and with bundles whose J#, U, Z or J is cut down, so that the
failing paths run too; outcomes, witnesses and notes must agree.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest

from ringlab import ElemSet, checks, compile_text, compute_bundle
from ringlab import predicates as P
from ringlab.checks import IDEAL_ENUM_LIMIT, CheckContext, Outcome, _fail, _ok, _u_minus_one
from ringlab.construct import _build_quotient, _reindex, build_corner, ideal_closure, matrix_unit_index
from ringlab.core import GroupRingMeta, RingError, TableRing, validate_ring
from ringlab.groups import p_group_prime
from ringlab.subsets import augmentation_ideal, jacobson_radical_maximal_ideal_oracle, prime_radical_ideal_oracle

from ringtables import tables_equal

# ---------------------------------------------------------------------------
# the frozenset helpers the old bodies used
# ---------------------------------------------------------------------------


def distinct_indices(n, values):
    hit = np.zeros(n, dtype=bool)
    hit[values] = True
    return np.flatnonzero(hit)


def _sumset(ring, left, right) -> frozenset[int]:
    la = np.fromiter(left, dtype=np.int64, count=len(left))
    ra = np.fromiter(right, dtype=np.int64, count=len(right))
    return frozenset(distinct_indices(ring.order, ring.add[la[:, None], ra]).tolist())


def _subgroup(ring, members):
    members = distinct_indices(ring.order, np.append(members, ring.zero))
    while True:
        total = distinct_indices(ring.order, ring.add[members[:, None], members])
        if len(total) == len(members):
            return members
        members = total


def additive_closure(ring, items) -> frozenset[int]:
    return frozenset(_subgroup(ring, np.fromiter(items, dtype=np.int64)).tolist())


def _ring_from_subset(ring, subset):
    elems = subset.indices()
    add, mul, back = _reindex(ring, np.array(elems, dtype=np.int64))
    names = tuple(ring.names[p] for p in elems)
    return validate_ring(add, mul, int(back[ring.zero]), int(back[ring.one]), names=names)


# ---------------------------------------------------------------------------
# the old bodies
# ---------------------------------------------------------------------------


def old_l121(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    js = b.jsharp.mask()
    for a in b.jsharp:
        commuting = np.where(ring.mul[a, :] == ring.mul[:, a])[0]
        bad = commuting[~js[ring.mul[a, commuting]]]
        if len(bad):
            bidx = int(bad[0])
            return _fail(f"a = {ring.describe(a)}, b = {ring.describe(bidx)}, ab outside J#")
    return _ok()


def old_l123(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    for a in b.jsharp:
        if int(ring.add[ring.one, ring.neg[a]]) not in b.units.members:
            return _fail(f"a = {ring.describe(a)} but 1-a is not a unit")
    return _ok()


def old_l124(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    for a in sorted(b.jsharp.members & b.center.members):
        if a not in b.jacobson.members:
            return _fail(f"central a = {ring.describe(a)} in J# but outside J")
    return _ok()


def old_l125(ctx: CheckContext) -> Outcome:
    b = ctx.bundle
    for ideal, quotient, projection in ctx.radical_quotients():
        qb = ctx.bundle_of(quotient)
        image = frozenset(distinct_indices(quotient.order, projection[list(b.jsharp.members)]).tolist())
        if image != qb.jsharp.members:
            off = sorted(image ^ qb.jsharp.members)[0]
            return _fail(
                f"I of size {len(ideal)}: J#(R/I) and the image of J#(R) differ at {quotient.describe(off)}"
            )
    return _ok()


def old_l126(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meta: ProductMeta = ring.meta
    factor_sets = [ctx.bundle_of(f).jsharp.members for f in meta.factors]
    for a in range(ring.order):
        x, componentwise = a, True
        for f, js in zip(meta.factors, factor_sets):
            x, r = divmod(x, f.order)
            if r not in js:
                componentwise = False
                break
        if componentwise != (a in b.jsharp.members):
            return _fail(f"{ring.describe(a)}: componentwise J# membership disagrees")
    return _ok()


def old_l128(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    sums = _sumset(ring, b.nilpotents.members, b.jacobson.members)
    extra = sums - b.jsharp.members
    if extra:
        return _fail(f"Nil + J escapes J# at {ring.describe(sorted(extra)[0])}")
    return _ok()


def old_x13(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    e12 = matrix_unit_index(ring, 0, 1)
    e21 = matrix_unit_index(ring, 1, 0)
    ones = int(ring.add[ring.add[matrix_unit_index(ring, 0, 0), e12], ring.add[e21, matrix_unit_index(ring, 1, 1)]])
    expected = {ring.zero, e12, e21, ones}
    if b.jsharp.members != expected:
        return _fail(f"J# is {sorted(b.jsharp.members)}, expected {sorted(expected)}")
    return _ok(
        note=(
            "computed J# has exactly 4 elements {0, E12, E21, all-ones}; a published "
            "3-element tabulation omits the all-ones square-zero matrix (informational)"
        )
    )


def old_p38(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meet_id = b.jsharp.members & b.idempotents.members
    if meet_id != {ring.zero}:
        off = sorted(meet_id - {ring.zero})[0]
        return _fail(f"nonzero idempotent {ring.describe(off)} inside J#")
    meet_u = b.jsharp.members & b.units.members
    if meet_u:
        return _fail(f"unit {ring.describe(sorted(meet_u)[0])} inside J#")
    return _ok()


def old_p37(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    covered = b.units.members | b.jsharp.members
    is_cover = covered == frozenset(range(ring.order))
    if is_cover != ctx.holds("local"):
        if is_cover:
            return _fail("R = U union J# but the ring is not local")
        off = sorted(frozenset(range(ring.order)) - covered)[0]
        return _fail(f"local ring misses {ring.describe(off)} from U union J#")
    return _ok()


def old_p34(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    centre = _ring_from_subset(ring, b.center)
    cb = ctx.bundle_of(centre)
    elems = sorted(b.center.members)
    # the center is rationally closed: U(R) meet Z(R) = U(Z(R))
    ambient_units = {i for i, p in enumerate(elems) if p in b.units.members}
    if ambient_units != cb.units.members:
        off = sorted(ambient_units ^ cb.units.members)[0]
        return _fail(f"center is not rationally closed at {centre.describe(off)}")
    verdict = P.is_ujsharp(centre, cb)
    if not verdict:
        return _fail(f"center fails: {verdict.witness}")
    return _ok()


def old_l15(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    sandwich_excess = []
    for e, corner, emb in ctx.corners():
        cb = ctx.bundle_of(corner)
        via_corner = {int(emb[i]) for i in cb.jsharp}
        meet = set(map(int, emb)) & b.jsharp.members
        if via_corner != meet:
            return _fail(f"e = {ring.describe(e)}: J#(eRe) and eRe meet J#(R) disagree")
        sandwich = {int(ring.mul[ring.mul[e, j], e]) for j in b.jsharp}
        if not via_corner <= sandwich:
            return _fail(f"e = {ring.describe(e)}: J#(eRe) escapes e J#(R) e")
        if sandwich != via_corner:
            sandwich_excess.append(e)
    if sandwich_excess:
        e = sandwich_excess[0]
        return _ok(
            note=(
                f"the stated sandwich equality fails at e = {ring.describe(e)}: e J#(R) e strictly "
                "exceeds J#(eRe) (J# is not an ideal, so corner sandwiching can leave it; "
                "the J#(eRe) = eRe meet J#(R) equality is enforced; informational)"
            )
        )
    return _ok()


def old_lcorner(ctx: CheckContext) -> Outcome:
    for e, corner, _ in ctx.corners():
        verdict = P.is_ujsharp(corner, ctx.bundle_of(corner))
        if not verdict:
            return _fail(f"corner at e = {ctx.ring.describe(e)} fails: {verdict.witness}")
    return _ok()


def old_closeprod(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    bad = _sumset(ring, b.jsharp.members, b.jacobson.members) - b.jsharp.members
    if bad:
        return _fail(f"J# + J escapes J# at {ring.describe(sorted(bad)[0])}")
    central_js = b.jsharp.members & b.center.members
    bad = _sumset(ring, b.jsharp.members, central_js) - b.jsharp.members
    if bad:
        return _fail(f"J# + central J# escapes J# at {ring.describe(sorted(bad)[0])}")
    return _ok()


def old_equuq(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    central_units = b.units.members & b.center.members
    sums = _sumset(ring, b.units.members, central_units)
    equal = sums == b.jsharp.members
    if equal != ctx.holds("ujsharp"):
        missing = sorted(b.jsharp.members - sums)
        extra = sorted(sums - b.jsharp.members)
        direction = []
        if missing:
            direction.append(f"J# element {ring.describe(missing[0])} is not such a sum")
        if extra:
            direction.append(f"sum {ring.describe(extra[0])} escapes J#")
        return _fail("; ".join(direction) or "sum set equals J# yet the ring is not UJ#")
    return _ok()


def old_p22(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    ua = np.array(sorted(b.units.members), dtype=np.int64)
    bad = np.argwhere(ring.add[np.ix_(ua, ua)] == ring.one)
    if len(bad):
        i, j = bad[0]
        return _fail(f"units {ring.describe(int(ua[i]))} + {ring.describe(int(ua[j]))} = 1")
    quotient, _, qb = ctx.radical_quotient()
    qa = np.array(sorted(qb.units.members), dtype=np.int64)
    bad = np.argwhere(quotient.add[np.ix_(qa, qa)] == quotient.one)
    if len(bad):
        i, j = bad[0]
        return _fail(f"in R/J: units {quotient.describe(int(qa[i]))} + {quotient.describe(int(qa[j]))} = 1")
    return _ok()


def old_p23(ctx: CheckContext) -> Outcome:
    quotient, _, qb = ctx.radical_quotient()
    for e in sorted(qb.idempotents.members):
        if e == quotient.zero:
            continue
        corner, _ = build_corner(quotient, e)
        cb = ctx.bundle_of(corner)
        ua = np.array(sorted(cb.units.members), dtype=np.int64)
        bad = np.argwhere(corner.add[np.ix_(ua, ua)] == corner.one)
        if len(bad):
            i, j = bad[0]
            return _fail(
                f"corner at {quotient.describe(e)}: units "
                f"{corner.describe(int(ua[i]))} + {corner.describe(int(ua[j]))} = e"
            )
    return _ok()


def old_lmatrix(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meta: MatrixMeta = ring.meta
    if ctx.holds("ujsharp"):
        return _fail("matrix ring reported as UJ#")
    # the distinguished unit [[0,1],[1,1]] (identity block elsewhere)
    w = ring.zero
    base = meta.base
    k = meta.size
    for (i, j) in [(0, 1), (1, 0), (1, 1)] + [(d, d) for d in range(2, k)]:
        w = int(ring.add[w, int(base.one) * base.order ** (i * k + j)])
    if w not in b.units.members:
        return _fail(f"distinguished matrix {ring.describe(w)} is not a unit")
    if k == 2:
        wm1 = _u_minus_one(ring, w)
        if wm1 not in b.units.members or wm1 in b.jsharp.members:
            return _fail(f"u - 1 for u = {ring.describe(w)} should be a unit outside J#")
    return _ok()


def old_2inj(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    two = int(ring.add[ring.one, ring.one])
    if two not in b.jsharp.members:
        return _fail("2 is outside J#")
    if two not in b.jacobson.members:
        return _fail("2 is outside J")
    js = sorted(b.jsharp.members)
    add_closed = _sumset(ring, js, js) <= b.jsharp.members
    ja = np.array(js, dtype=np.int64)
    mul_closed = b.jsharp.mask()[ring.mul[np.ix_(ja, ja)]].all()
    if add_closed and not mul_closed:
        return _fail("J# closed under addition but not under multiplication")
    return _ok()


def old_c27(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    # J is a nilpotent ideal: iterate ideal powers down to {0}
    current = frozenset(b.jacobson.members)
    arr = np.array(sorted(current), dtype=np.int64)
    for _ in range(ring.order + 1):
        if current == {ring.zero}:
            break
        cur = np.array(sorted(current), dtype=np.int64)
        nxt = additive_closure(ring, ring.mul[arr[:, None], cur].ravel())
        if nxt == current:
            return _fail("J is not nilpotent: ideal powers stabilise above zero")
        current = nxt
    else:
        return _fail("J power iteration did not terminate")
    if b.jsharp.members != b.nilpotents.members:
        off = sorted(b.jsharp.members ^ b.nilpotents.members)[0]
        return _fail(f"J# and Nil differ at {ring.describe(off)}")
    vals = [ctx.holds("ujsharp"), ctx.holds("uj"), ctx.holds("uu")]
    if len(set(vals)) != 1:
        return _fail(f"UJ#/UJ/UU = {vals} do not coincide")
    return _ok()


def old_c27_then_searches(ctx: CheckContext) -> Outcome:
    """The old C2.7 body, then the searches for the classes `classify`
    now reports by theorem, which C2.7 took over after the rewrite."""
    out = old_c27(ctx)
    if not out.ok:
        return out
    ring, b = ctx.ring, ctx.bundle
    family = P.clean_family(ring, b)
    searches = [
        ("exchange", P.is_exchange(ring, b)),
        ("potent", P.is_potent(ring, b)),
        ("semiregular", P.is_semiregular(ring, b)),
        ("clean", family["clean"]),
        ("strongly_clean", family["strongly_clean"]),
    ]
    for name, verdict in searches:
        if not verdict:
            return _fail(f"finite ring not {name}: {verdict.witness}")
    return out


def old_c318(ctx: CheckContext) -> Outcome:
    b = ctx.bundle
    if not b.jacobson.members <= b.nilpotents.members:
        return _fail("J is not nil")
    a = ctx.holds("semiregular") and ctx.holds("ujsharp")
    bb = ctx.holds("exchange") and ctx.holds("ujsharp")
    c = ctx.holds("strongly_nil_clean")
    if not a == bb == c:
        return _fail(f"semiregular&UJ# {a}, exchange&UJ# {bb}, strongly nil-clean {c}")
    return _ok()


def old_pclean(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    for a in range(ring.order):
        clean = P.clean_witness(ring, b, a) is not None
        jclean = P.jsharp_clean_witness(ring, b, a) is not None
        if clean != jclean:
            return _fail(f"{ring.describe(a)}: clean {clean} vs J#-clean {jclean}")
        sclean = P.strongly_clean_witness(ring, b, a) is not None
        sjclean = P.strongly_jsharp_clean_witness(ring, b, a) is not None
        if sclean != sjclean:
            return _fail(f"{ring.describe(a)}: strongly clean {sclean} vs strongly J#-clean {sjclean}")
    return _ok()


def old_equclean(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    cond1 = ctx.holds("ujsharp")
    cond2 = True
    for a in range(ring.order):
        if P.clean_witness(ring, b, a) is None:
            continue
        if P.strongly_jsharp_clean_witness(ring, b, a) is None:
            cond2 = False
            break
    central_idem = sorted(b.idempotents.members & b.center.members)
    cond3 = True
    for u in b.units:
        if not any(int(ring.add[u, ring.neg[e]]) in b.jsharp.members for e in central_idem):
            cond3 = False
            break
    if not cond1 == cond2 == cond3:
        return _fail(f"UJ# {cond1}, clean=>strongly-J#-clean {cond2}, unit=central idem+J# {cond3}")
    return _ok()


def old_p32(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    meta: SkewPolyMeta = ring.meta
    base_verdict = P.is_ujsharp(meta.base, ctx.bundle_of(meta.base)).value
    if meta.k >= 2:
        x = int(meta.base.order)  # digit 1 at position 1
        xideal = ideal_closure(ring, ElemSet.of(ring, [x]), "two-sided")
        if not xideal.members <= ctx.bundle.jacobson.members:
            return _fail("the ideal generated by x is not inside J")
    if ctx.holds("ujsharp") != base_verdict:
        return _fail(f"truncation verdict {ctx.holds('ujsharp')} vs base verdict {base_verdict}")
    return _ok(note="truncated quotient used as the finite stand-in for the power-series statement")


def old_gext(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meta: GroupRingMeta = ring.meta
    base = meta.base
    base_bundle = ctx.bundle_of(base)
    shift = base.order**meta.group.identity
    embedded = {r * shift: r for r in range(base.order)}
    meet = {embedded[a] for a in embedded if a in b.jacobson.members}
    if meet != base_bundle.jacobson.members:
        off = sorted(meet ^ base_bundle.jacobson.members)[0]
        return _fail(f"J(RG) meet R and J(R) differ at {base.describe(off)}")
    for j in sorted(base_bundle.jacobson.members):
        for g in range(meta.group.order):
            if j * base.order**g not in b.jacobson.members:
                return _fail(f"j*g outside J(RG) for j = {base.describe(j)}, g = {meta.group.names[g]}")
    return _ok()


def old_gdelta(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    delta = augmentation_ideal(ring)
    extra = delta.members - b.jacobson.members
    if extra:
        return _fail(f"augmentation ideal escapes J at {ring.describe(sorted(extra)[0])}")
    return _ok()


def old_ojac(ctx: CheckContext) -> Outcome:
    oracle = jacobson_radical_maximal_ideal_oracle(ctx.ring)
    if oracle.members != ctx.bundle.jacobson.members:
        off = sorted(oracle.members ^ ctx.bundle.jacobson.members)[0]
        return _fail(f"unit-criterion J and maximal-left-ideal J differ at {ctx.ring.describe(off)}")
    return _ok()


def old_onilstar(ctx: CheckContext) -> Outcome:
    oracle = prime_radical_ideal_oracle(ctx.ring)
    computed = ctx.bundle.prime_radical
    if oracle.members != computed.members:
        off = sorted(oracle.members ^ computed.members)[0]
        return _fail(f"Nil* = J and the prime-ideal intersection differ at {ctx.ring.describe(off)}")
    return _ok()


def old_applies_j_zero(ctx: CheckContext) -> str | None:
    if ctx.bundle.jacobson.members == {ctx.ring.zero}:
        return None
    return "applies to rings with J = 0"


def old_applies_j_nil(ctx: CheckContext) -> str | None:
    if ctx.bundle.jacobson.members <= ctx.bundle.nilpotents.members:
        return None
    return "applies to rings with J nil"


def old_applies_gexp2(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if not isinstance(meta, GroupRingMeta):
        return "applies to group rings"
    if not meta.group.is_2group:
        return "applies when G is a 2-group"
    if not ctx.holds("ujsharp"):
        return "applies when RG is UJ#"
    base = meta.base
    three = int(base.add[base.one, base.add[base.one, base.one]])
    if three not in ctx.bundle_of(base).jsharp.members:
        return "applies when 3 lies in J# of the coefficient ring"
    return None


def old_applies_g3grp(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if not isinstance(meta, GroupRingMeta):
        return "applies to group rings"
    base = meta.base
    three = int(base.add[base.one, base.add[base.one, base.one]])
    if three not in ctx.bundle_of(base).jsharp.members:
        return "applies when 3 lies in J# of the coefficient ring"
    p = p_group_prime(meta.group)
    if p is None or p == 2:
        return "applies when G is a p-group for an odd prime p"
    return None


def old_radical_ideals(ctx: CheckContext) -> list[ElemSet]:
    """Ideals inside J: always {0} and J, plus the principal ones on
    small rings (the sweep is quadratic in |J|)."""
    ring, jac = ctx.ring, ctx.bundle.jacobson
    seen = {frozenset({ring.zero}), jac.members}
    ideals = [ElemSet.of(ring, [ring.zero])]
    if ring.order <= IDEAL_ENUM_LIMIT:
        for j in sorted(jac.members):
            closed = ideal_closure(ring, ElemSet.of(ring, [j]), "two-sided")
            if closed.members not in seen and closed.members <= jac.members:
                seen.add(closed.members)
                ideals.append(closed)
    if jac.members != frozenset({ring.zero}):
        ideals.append(jac)
    return ideals


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

OLD_BODIES = {
    "L1.2.1": old_l121,
    "L1.2.3": old_l123,
    "L1.2.4": old_l124,
    "L1.2.5": old_l125,
    "L1.2.6": old_l126,
    "L1.2.8": old_l128,
    "X-1.3": old_x13,
    "P3.8": old_p38,
    "P3.7": old_p37,
    "P3.4": old_p34,
    "L1.5": old_l15,
    "L-corner": old_lcorner,
    "L-closeprod": old_closeprod,
    "L-equUQ": old_equuq,
    "P2.2": old_p22,
    "P2.3": old_p23,
    "L-matrix": old_lmatrix,
    "L-2inJ": old_2inj,
    "C2.7": old_c27_then_searches,
    "C3.18": old_c318,
    "P-clean": old_pclean,
    "C-equclean": old_equclean,
    "P3.2": old_p32,
    "G-ext": old_gext,
    "G-delta": old_gdelta,
    "O-jac": old_ojac,
    "O-nilstar": old_onilstar,
}

OLD_APPLIES = {
    checks._applies_j_zero: old_applies_j_zero,
    checks._applies_j_nil: old_applies_j_nil,
    checks._applies_gexp2: old_applies_gexp2,
    checks._applies_g3grp: old_applies_g3grp,
}


class EveryCornerBuilt(CheckContext):
    """The context as it was: every corner is built, the one at e = 1 too."""

    def corner(self, ring, e):
        return build_corner(ring, e, self.cap)


def computed_radical_quotient(b):
    """A cut bundle whose R/J has the bundle computed from R/J's tables.

    R/{0} shares R's bundle, so a cut that leaves J = {0} would carry over
    to R/J, while the old bodies build rings from R/J (P2.3's corner at
    e = 1) and compute their true bundles. The true bundle, which runs
    the shared one, is left as it is.
    """
    try:
        quotient, projection = _build_quotient(b.ring, b.jacobson)
    except RingError:  # a cut J that is no ideal: every body that needs R/J raises alike
        return b
    b._radical_quotient = (quotient, projection, compute_bundle(quotient))
    return b


def cut_bundles(ring, b):
    zero, one = ring.zero, ring.one
    yield "true", b
    cut = partial(dataclasses.replace, b)
    yield "J# = {0}", computed_radical_quotient(cut(jsharp=ElemSet.of(ring, [zero])))
    yield "U = {1}", computed_radical_quotient(cut(units=ElemSet.of(ring, [one])))
    yield "Z = {0, 1}", computed_radical_quotient(cut(center=ElemSet.of(ring, [zero, one])))
    yield "J = {0}", computed_radical_quotient(cut(jacobson=ElemSet.of(ring, [zero]), prime_radical=ElemSet.of(ring, [zero])))
    yield "J# grown by U", computed_radical_quotient(cut(jsharp=b.jsharp | b.units))
    meta = ring.meta
    if isinstance(meta, GroupRingMeta):  # J(R) inside J(RG), but J(R)G not: G-ext's second test fails
        shift = meta.base.order**meta.group.identity
        jac = ElemSet.of(ring, compute_bundle(meta.base).jacobson.index_array() * shift)
        yield "J = J(R)", computed_radical_quotient(cut(jacobson=jac))


# products whose factors have J# != 0, in both orders, so that L1.2.6 sees
# which digit is which factor
EXTRA_RINGS = ("prod(z(4),gf(4))", "prod(gf(4),z(2),z(4))")


def run(fn, ctx):
    try:
        return fn(ctx)
    except Exception as exc:  # a cut bundle can break a body; both must break alike
        return type(exc).__name__


def test_rewritten_bodies_match_the_old_bodies(corpus_bundles):
    statuses = {check_id: set() for check_id in OLD_BODIES}
    compared = 0
    extra = [(text, ring, compute_bundle(ring)) for text, ring in ((t, compile_text(t)) for t in EXTRA_RINGS)]
    for text, ring, b in corpus_bundles + extra:
        for cut, bundle in cut_bundles(ring, b):
            ctx = CheckContext(ring, bundle, deep=True)
            # the true bundle also runs the old corner path: a corner at e = 1
            # built as its own ring, with its own bundle
            old_ctx = (EveryCornerBuilt if cut == "true" else CheckContext)(ring, bundle, deep=True)
            for new, old in OLD_APPLIES.items():
                assert run(new, ctx) == run(old, ctx), (text, cut, old.__name__)
            assert [i.members for i in ctx.radical_ideals()] == [i.members for i in old_radical_ideals(ctx)], (text, cut)
            for check_id, old in OLD_BODIES.items():
                check = checks.get_check(check_id)
                if run(check.applies, ctx) is not None:
                    continue
                got, want = run(check.body, ctx), run(old, old_ctx)
                assert got == want, (text, cut, check_id)
                statuses[check_id].add(got.ok if isinstance(got, Outcome) else got)
                compared += 1
    assert compared > 3000
    # every body both passed and failed somewhere
    assert all({True, False} <= seen for seen in statuses.values()), statuses


def test_the_corner_at_one_is_the_ring_itself(corpus_bundles):
    for text, ring, b in corpus_bundles:
        quotient, _, qb = b.radical_quotient()
        for r, rb in ((ring, b), (quotient, qb)):
            corner, embedding = build_corner(r, r.one)
            assert tables_equal(corner, r) and corner.names == r.names, text
            assert np.array_equal(embedding, np.arange(r.order)), text
            cb = compute_bundle(corner)
            for name in ("units", "idempotents", "nilpotents", "center", "jacobson", "jsharp", "prime_radical"):
                assert np.array_equal(getattr(cb, name).mask(), getattr(rb, name).mask()), (text, name)
        ctx = CheckContext(ring, b)
        assert ctx.bundle_of(ring) is b
        assert [(e, c) for e, c, _ in ctx.corners() if c is ring] == [(ring.one, ring)], text


def test_c27_fails_with_the_exchange_search_witness():
    # with Id cut to {0, 1}, a = E11 of m(2,z(2)) is no unit, nor is 1 - a = E22,
    # and e in {0, 1} serves neither; the rest of C2.7 reads no idempotent
    ring = compile_text("m(2,z(2))")
    b = compute_bundle(ring)
    cut = dataclasses.replace(b, idempotents=ElemSet.of(ring, [ring.zero, ring.one]))
    exchange = P.is_exchange(ring, cut)
    assert not exchange.value
    assert checks.get_check("C2.7").body(CheckContext(ring, cut)) == _fail(f"finite ring not exchange: {exchange.witness}")
    assert checks.get_check("C2.7").body(CheckContext(ring, b)) == _ok()


@pytest.mark.parametrize("name", ["exchange", "potent", "semiregular", "clean", "strongly_clean"])
def test_c27_runs_each_finite_ring_search(monkeypatch, name):
    # each search in turn fails with a stub witness, so dropping any one
    # from C2.7 shows here, whatever the other searches find
    stub = P.Verdict(False, "stub")
    if name in ("clean", "strongly_clean"):
        family = P.clean_family
        monkeypatch.setattr(checks.P, "clean_family", lambda ring, b: {**family(ring, b), name: stub})
    else:
        monkeypatch.setattr(checks.P, f"is_{name}", lambda ring, b: stub)
    ring = compile_text("z(4)")
    outcome = checks.get_check("C2.7").body(CheckContext(ring, compute_bundle(ring)))
    assert outcome == _fail(f"finite ring not {name}: stub")


# ---------------------------------------------------------------------------
# mutants for checks that no cut bundle can fail: they read only the tables
# or the construction, which no cut touches
# ---------------------------------------------------------------------------


def dedekind_mutant(monkeypatch):
    """m(2,z(2)) with mul[E12, E21] set to 1 after validation: E12 E21 = 1
    but E21 E12 = E22."""
    ring = compile_text("m(2,z(2))")
    e12, e21 = matrix_unit_index(ring, 0, 1), matrix_unit_index(ring, 1, 0)
    mul = ring.mul.copy()
    mul[e12, e21] = ring.one
    corrupt = TableRing(ring.order, ring.add, mul, ring.neg, ring.zero, ring.one, ring.name_of, ring.meta, ring.validation)
    return "m(2,z(2))", CheckContext(corrupt, compute_bundle(ring)), f"ab = 1 but ba != 1 for a = {ring.describe(e12)}, b = {ring.describe(e21)}"


def munits_mutant(monkeypatch):
    """m(2,z(4)) read through a shuffled position map: (i, j) at the digit
    of (j, i), column-major. E_ij -> E_ji reverses products, so E11 E12
    reads E11 E21 = 0. (A map that is a ring automorphism, such as the
    reversed order E_ij -> E_(1-i)(1-j), would pass.)"""
    ring = compile_text("m(2,z(4))")
    real = checks.matrix_unit_index
    monkeypatch.setattr(checks, "matrix_unit_index", lambda on, i, j: real(on, j, i))
    return "m(2,z(4))", CheckContext(ring, compute_bundle(ring)), f"E11 * E12 = {ring.describe(ring.zero)}"


@pytest.mark.parametrize("check_id, mutant", [("L-dedekind", dedekind_mutant), ("L-munits", munits_mutant)])
def test_a_check_no_cut_fails_fails_on_its_mutant(monkeypatch, check_id, mutant):
    text, ctx, witness = mutant(monkeypatch)
    result = checks._evaluate(checks.get_check(check_id), ctx, text)
    assert (result.status, result.witness) == ("fail", witness)
    monkeypatch.undo()
    assert checks.run_check(check_id, text).status == "pass"
