"""Registry of executable claim checks and the corpus suite runner.

Each check verifies one statement over a single ring. Conditional
statements are applicability-gated: a ring that fails the hypothesis is
reported as a skip (with the reason), never as a silent pass, except
where a check is explicitly an implication evaluated contrapositively
(the group-ring necessity checks, which the corpus exercises through
rings violating the conclusion and the hypothesis together).
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import predicates as P
from .core import (
    ElemSet,
    GroupRingMeta,
    MatrixMeta,
    ProductMeta,
    SkewPolyMeta,
    TableRing,
    TriangularMeta,
    TrivialExtMeta,
    ZmodMeta,
    products,
    rows_equal_columns,
    validate_ring,
)
from .construct import (
    _reindex,
    additive_closure,
    build_corner,
    build_group_ring,
    build_quotient,
    ideal_closure,
    matrix_unit_index,
)
from .expr import compile_text
from .groups import p_group_prime
from .subsets import (
    InvariantBundle,
    additive_generators,
    augmentation_ideal,
    bundle_memo,
    compute_bundle,
    jacobson_radical,
    jacobson_radical_maximal_ideal_oracle,
    prime_radical_ideal_oracle,
    principal_ideals,
)

REPORT_VERSION = 1
IDEAL_ENUM_LIMIT = 64  # principal-ideal sweeps only below this order


class UnknownCheckError(KeyError):
    pass


class CorpusError(Exception):
    """A corpus expression failed to parse or compile."""

    def __init__(self, expr_text: str, cause: Exception):
        self.expr_text = expr_text
        self.cause = cause
        super().__init__(f"{expr_text!r}: {cause}")


class Outcome(NamedTuple):
    ok: bool
    witness: str | None = None
    note: str | None = None


_PASS = Outcome(True)


def _ok(note: str | None = None) -> Outcome:
    return _PASS if note is None else Outcome(True, None, note)


def _fail(witness: str) -> Outcome:
    return Outcome(False, witness)


class CheckContext:
    """Per-ring scratchpad shared by all checks in one suite pass."""

    def __init__(self, ring: TableRing, bundle: InvariantBundle, deep: bool = False, cap: int | None = None):
        self.ring = ring
        self.bundle = bundle
        self.deep = deep
        self.cap = cap
        self._verdicts: dict[str, P.Verdict] | None = None
        self._radical_ideals: list[ElemSet] | None = None
        self._radical_quotients: list[tuple[ElemSet, TableRing, np.ndarray]] | None = None
        self._corners = None
        self._searched: dict[str, P.Verdict] = {}
        self._aux: dict[int, InvariantBundle] = {id(ring): bundle}

    @property
    def verdicts(self) -> dict[str, P.Verdict]:
        if self._verdicts is None:
            self._verdicts = P.classify(self.ring, self.bundle)
        return self._verdicts

    def holds(self, name: str) -> bool:
        return self.verdicts[name].value

    def searched(self, name: str) -> P.Verdict:
        """The searched verdict of a class that `classify` reports true by
        theorem (`_FINITE_RING_SEARCHES`), computed once, so C2.7 and C3.17
        share each search."""
        if name not in self._searched:
            self._searched[name] = _FINITE_RING_SEARCHES[name](self.ring, self.bundle)
        return self._searched[name]

    def bundle_of(self, ring: TableRing) -> InvariantBundle:
        """The ring's bundle, kept for this context. A ring over R's own
        tables (R/{0}) gets R's bundle, wrapped for it; any other goes to
        `compute_bundle`, which inside a suite or check call computes each
        distinct table of order <= 64 once (`bundle_memo`)."""
        key = id(ring)
        if key not in self._aux:
            shared = ring.shares_tables(self.ring)
            self._aux[key] = self.bundle.on_copy(ring) if shared else compute_bundle(ring)
        return self._aux[key]

    def radical_quotient(self):
        """(R/J, projection, bundle of R/J), shared with the ring's bundle;
        `bundle_of(R/J)` then returns that bundle."""
        quotient, projection, qb = self.bundle.radical_quotient()
        self._aux[id(quotient)] = qb
        return quotient, projection, qb

    def radical_ideals(self) -> list[ElemSet]:
        """Ideals inside J: always {0} and J, plus on small rings the
        principal ideal (j) of each j in J, taken together in one masked
        fixpoint (`principal_ideals` on the rows of J)."""
        if self._radical_ideals is None:
            ring, jac = self.ring, self.bundle.jacobson
            small = ring.order <= IDEAL_ENUM_LIMIT
            closures = [ElemSet.from_mask(ring, row) for row in principal_ideals(ring, jac.index_array())] if small else []
            # {0} first and J last, each ideal once, in order of first appearance
            inside = [c for c in closures if c <= jac and c != jac]
            self._radical_ideals = list(dict.fromkeys([ElemSet.of(ring, [ring.zero]), *inside, jac]))
        return self._radical_ideals

    def radical_quotients(self) -> list[tuple[ElemSet, TableRing, np.ndarray]]:
        """(I, R/I, projection) for every I in `radical_ideals()`. The
        quotient by J is the bundle's R/J, whose bundle `bundle_of` then
        reuses; every other quotient is built (and validated) once here."""
        if self._radical_quotients is None:
            quotients = []  # kept only once complete: a quotient that fails to build leaves nothing
            for ideal in self.radical_ideals():
                if ideal == self.bundle.jacobson:
                    quotient, projection, _ = self.radical_quotient()
                else:
                    quotient, projection = build_quotient(self.ring, ideal)
                quotients.append((ideal, quotient, projection))
            self._radical_quotients = quotients
        return self._radical_quotients

    def corners(self):
        """(e, eRe, embedding) for every nonzero idempotent e."""
        if self._corners is None:
            self._corners = [(e, *self.corner(self.ring, e)) for e in self.bundle.idempotents if e != self.ring.zero]
        return self._corners

    def corner(self, ring: TableRing, e: int) -> tuple[TableRing, np.ndarray]:
        """(eRe, embedding) for a nonzero idempotent e of R or of a derived
        ring. At e = 1 the corner has R's tables, names, zero and one, so R
        itself is returned and `bundle_of` gives the bundle R already has.
        """
        if e == ring.one:
            return ring, np.arange(ring.order)
        return build_corner(ring, e)


@dataclass(frozen=True)
class Check:
    id: str
    paper_ref: str
    applies_text: str
    applies: Callable[[CheckContext], str | None]  # skip reason or None
    body: Callable[[CheckContext], Outcome] | None
    doc_only: str | None = None
    needs_deep: bool = False


class CheckResult(NamedTuple):
    check_id: str
    ring: str
    status: str  # pass | fail | skip
    witness: str | None
    note: str | None
    millis: float


@dataclass
class SuiteReport:
    version: int
    corpus: list[str]
    checks: list[dict]
    summary: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self, include_millis: bool = True) -> dict:
        out_checks = []
        for entry in self.checks:
            results = []
            for r in entry["results"]:
                item = {"ring": r.ring, "status": r.status}
                if r.witness is not None:
                    item["witness"] = r.witness
                if r.note is not None:
                    item["note"] = r.note
                if include_millis:
                    item["millis"] = r.millis
                results.append(item)
            out_checks.append({"id": entry["id"], "paper_ref": entry["paper_ref"], "results": results})
        return {
            "version": self.version,
            "corpus": list(self.corpus),
            "checks": out_checks,
            "summary": dict(self.summary),
        }

    def notes(self) -> list[tuple[str, str, str]]:
        return [
            (entry["id"], r.ring, r.note)
            for entry in self.checks
            for r in entry["results"]
            if r.note is not None and r.status != "skip"
        ]


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _always(_: CheckContext) -> None:
    return None


def _need(name: str, reason: str):
    def applies(ctx: CheckContext) -> str | None:
        return None if ctx.holds(name) else reason

    return applies


def _need_meta(kind, reason: str):
    def applies(ctx: CheckContext) -> str | None:
        return None if isinstance(ctx.ring.meta, kind) else reason

    return applies


def _u_minus_one(ring: TableRing, u: int) -> int:
    return int(ring.add[u, ring.neg[ring.one]])


def _sumset(ring: TableRing, left: ElemSet, right: ElemSet) -> ElemSet:
    """{a + b : a in left, b in right}. The |left| x |right| sums are
    scattered straight into a mask, so no intp copy of them is made."""
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.add[left.index_array()[:, None], right.index_array()]] = True
    return ElemSet(ring, mask)


def _ring_from_subset(ring: TableRing, subset: ElemSet) -> TableRing:
    """Reindex a unital subring (closed subset containing 0 and 1), proved
    by its embedding when R is (see `validate_ring`)."""
    elems = subset.index_array()
    add, mul, back = _reindex(ring, elems)
    return validate_ring(add, mul, int(back[ring.zero]), int(back[ring.one]), names=lambda i: ring.name_of(int(elems[i])), parent=ring, embedding=elems)


# ---------------------------------------------------------------------------
# check bodies
# ---------------------------------------------------------------------------


def _chk_l121(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    js = b.jsharp.index_array()
    rows = products(ring, js)  # (a, b) -> ab for every a in J#
    i, y = (~b.jsharp.mask())[rows].nonzero()  # the pairs whose ab leaves J#, row-major
    bad = (rows[i, y] == products(ring, y, js[i])).nonzero()[0]  # of them, those with ab = ba
    if len(bad):
        k = bad[0]
        return _fail(f"a = {ring.describe(int(js[i[k]]))}, b = {ring.describe(int(y[k]))}, ab outside J#")
    return _ok()


def _chk_l122(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    js = b.jsharp.mask()
    idx = np.arange(ring.order, dtype=ring.mul.dtype)
    power, seen = idx, set()
    for n in range(1, ring.order + 1):
        # a^(n+1) depends on a^n alone, so from a repeated vector of powers
        # on, every step repeats one already checked
        if (key := power.tobytes()) in seen:
            break
        seen.add(key)
        bad = np.where(js[power] != js[idx])[0]
        if len(bad):
            a = int(bad[0])
            return _fail(f"a = {ring.describe(a)}, n = {n}: a^n and a disagree on J# membership")
        power = ring.mul[power, idx]
    return _ok()


def _chk_l123(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    one_minus_unit = ElemSet.from_mask(ring, b.units.mask()[ring.add[ring.one, ring.neg]])  # a with 1 - a in U
    a = (b.jsharp - one_minus_unit).first()
    if a is not None:
        return _fail(f"a = {ring.describe(a)} but 1-a is not a unit")
    return _ok()


def _chk_l124(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    a = ((b.jsharp & b.center) - b.jacobson).first()
    if a is not None:
        return _fail(f"central a = {ring.describe(a)} in J# but outside J")
    return _ok()


def _chk_l125(ctx: CheckContext) -> Outcome:
    b = ctx.bundle
    for ideal, quotient, projection in ctx.radical_quotients():
        qb = ctx.bundle_of(quotient)
        image = ElemSet.of(quotient, projection[b.jsharp.index_array()])
        if image != qb.jsharp:
            off = (image ^ qb.jsharp).first()
            return _fail(
                f"I of size {len(ideal)}: J#(R/I) and the image of J#(R) differ at {quotient.describe(off)}"
            )
    return _ok()


def _chk_l126(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meta: ProductMeta = ring.meta
    x, componentwise = np.arange(ring.order), np.ones(ring.order, dtype=bool)
    for f in meta.factors:  # the first factor is the lowest digit
        x, r = np.divmod(x, f.order)
        componentwise &= ctx.bundle_of(f).jsharp.mask()[r]
    a = (ElemSet.from_mask(ring, componentwise) ^ b.jsharp).first()
    if a is not None:
        return _fail(f"{ring.describe(a)}: componentwise J# membership disagrees")
    return _ok()


def _chk_l127(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    loose = np.flatnonzero(~rows_equal_columns(ring.mul))  # ab = ba unless a, b are both outside the centre
    mask = b.jsharp.mask()[ring.mul[np.ix_(loose, loose)]]
    bad = np.argwhere(mask & ~mask.T)
    if len(bad):
        a, bb = map(int, loose[bad[0]])  # loose ascends, so this is the whole table's row-major first pair
        return _fail(f"ab in J# but ba outside for a = {ring.describe(a)}, b = {ring.describe(bb)}")
    return _ok()


def _chk_l128(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    extra = _sumset(ring, b.nilpotents, b.jacobson) - b.jsharp
    if extra:
        return _fail(f"Nil + J escapes J# at {ring.describe(extra.first())}")
    return _ok()


def _chk_x13(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    e12 = matrix_unit_index(ring, 0, 1)
    e21 = matrix_unit_index(ring, 1, 0)
    ones = int(ring.add[ring.add[matrix_unit_index(ring, 0, 0), e12], ring.add[e21, matrix_unit_index(ring, 1, 1)]])
    expected = ElemSet.of(ring, [ring.zero, e12, e21, ones])
    if b.jsharp != expected:
        return _fail(f"J# is {list(b.jsharp)}, expected {list(expected)}")
    return _ok(
        note=(
            "computed J# has exactly 4 elements {0, E12, E21, all-ones}; a published "
            "3-element tabulation omits the all-ones square-zero matrix (informational)"
        )
    )


def _chk_p38(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meet_id = b.jsharp & b.idempotents
    if meet_id.indices() != (ring.zero,):
        off = (meet_id - ElemSet.of(ring, [ring.zero])).first()
        return _fail(f"nonzero idempotent {ring.describe(off)} inside J#")
    meet_u = b.jsharp & b.units
    if meet_u:
        return _fail(f"unit {ring.describe(meet_u.first())} inside J#")
    return _ok()


def _chk_p37(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    off = (~(b.units | b.jsharp)).first()
    if (off is None) != ctx.holds("local"):
        if off is None:
            return _fail("R = U union J# but the ring is not local")
        return _fail(f"local ring misses {ring.describe(off)} from U union J#")
    return _ok()


def _chk_p34(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    centre = _ring_from_subset(ring, b.center)
    cb = ctx.bundle_of(centre)
    # the center is rationally closed: U(R) meet Z(R) = U(Z(R))
    ambient_units = ElemSet.from_mask(centre, b.units.mask()[b.center.index_array()])
    if ambient_units != cb.units:
        off = (ambient_units ^ cb.units).first()
        return _fail(f"center is not rationally closed at {centre.describe(off)}")
    verdict = P.is_ujsharp(centre, cb)
    if not verdict:
        return _fail(f"center fails: {verdict.witness}")
    return _ok()


def _chk_lprod(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    meta: ProductMeta = ring.meta
    whole = ctx.holds("ujsharp")
    parts = [P.is_ujsharp(f, ctx.bundle_of(f)).value for f in meta.factors]
    if whole != all(parts):
        return _fail(f"product verdict {whole} vs factor verdicts {parts}")
    return _ok()


def _chk_l15(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    sandwich_excess = []
    for e, corner, emb in ctx.corners():
        cb = ctx.bundle_of(corner)
        via_corner = ElemSet.of(ring, emb[cb.jsharp.index_array()])
        if via_corner != ElemSet.of(ring, emb) & b.jsharp:
            return _fail(f"e = {ring.describe(e)}: J#(eRe) and eRe meet J#(R) disagree")
        sandwich = ElemSet.of(ring, ring.mul[ring.mul[e, b.jsharp.index_array()], e])
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


def _chk_lcorner(ctx: CheckContext) -> Outcome:
    for e, corner, _ in ctx.corners():
        verdict = P.is_ujsharp(corner, ctx.bundle_of(corner))
        if not verdict:
            return _fail(f"corner at e = {ctx.ring.describe(e)} fails: {verdict.witness}")
    return _ok()


def _chk_t35(ctx: CheckContext) -> Outcome:
    whole = ctx.holds("ujsharp")
    for ideal, quotient, _ in ctx.radical_quotients():
        part = P.is_ujsharp(quotient, ctx.bundle_of(quotient)).value
        if part != whole:
            return _fail(f"quotient by ideal of size {len(ideal)} flips the verdict to {part}")
    return _ok()


def _chk_closeprod(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    bad = _sumset(ring, b.jsharp, b.jacobson) - b.jsharp
    if bad:
        return _fail(f"J# + J escapes J# at {ring.describe(bad.first())}")
    bad = _sumset(ring, b.jsharp, b.jsharp & b.center) - b.jsharp
    if bad:
        return _fail(f"J# + central J# escapes J# at {ring.describe(bad.first())}")
    return _ok()


def _chk_equuq(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    sums = _sumset(ring, b.units, b.units & b.center)
    if (sums == b.jsharp) != ctx.holds("ujsharp"):
        missing, extra = (b.jsharp - sums).first(), (sums - b.jsharp).first()
        direction = []
        if missing is not None:
            direction.append(f"J# element {ring.describe(missing)} is not such a sum")
        if extra is not None:
            direction.append(f"sum {ring.describe(extra)} escapes J#")
        return _fail("; ".join(direction) or "sum set equals J# yet the ring is not UJ#")
    return _ok()


def _units_summing_to_one(ring: TableRing, bundle: InvariantBundle) -> str | None:
    """The first pair of units u + v = 1, row-major, as "u + v", or None."""
    ua = bundle.units.index_array()
    bad = np.argwhere(ring.add[np.ix_(ua, ua)] == ring.one)
    if not len(bad):
        return None
    i, j = bad[0]
    return f"{ring.describe(int(ua[i]))} + {ring.describe(int(ua[j]))}"


def _chk_p22(ctx: CheckContext) -> Outcome:
    pair = _units_summing_to_one(ctx.ring, ctx.bundle)
    if pair:
        return _fail(f"units {pair} = 1")
    quotient, _, qb = ctx.radical_quotient()
    pair = _units_summing_to_one(quotient, qb)
    if pair:
        return _fail(f"in R/J: units {pair} = 1")
    return _ok()


def _chk_p23(ctx: CheckContext) -> Outcome:
    quotient, _, qb = ctx.radical_quotient()
    for e in qb.idempotents:
        if e == quotient.zero:
            continue
        corner, _ = ctx.corner(quotient, e)
        pair = _units_summing_to_one(corner, ctx.bundle_of(corner))
        if pair:
            return _fail(f"corner at {quotient.describe(e)}: units {pair} = e")
    return _ok()


def _chk_lmatrix(ctx: CheckContext) -> Outcome:
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
    if w not in b.units:
        return _fail(f"distinguished matrix {ring.describe(w)} is not a unit")
    if k == 2:
        wm1 = _u_minus_one(ring, w)
        if wm1 not in b.units or wm1 in b.jsharp:
            return _fail(f"u - 1 for u = {ring.describe(w)} should be a unit outside J#")
    return _ok()


def _chk_munits(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    meta: MatrixMeta = ring.meta
    k = meta.size
    eis = {(i, j): matrix_unit_index(ring, i, j) for i in range(k) for j in range(k)}
    for (i, j), eij in eis.items():
        for (s, t), est in eis.items():
            product = int(ring.mul[eij, est])
            expected = eis[(i, t)] if j == s else ring.zero
            if product != expected:
                return _fail(f"E{i + 1}{j + 1} * E{s + 1}{t + 1} = {ring.describe(product)}")
    return _ok()


def _chk_dedekind(ctx: CheckContext) -> Outcome:
    # the search itself: `classify` reports Dedekind-finiteness by theorem
    verdict = P.is_dedekind_finite(ctx.ring, ctx.bundle)
    if not verdict:
        return _fail(verdict.witness)
    return _ok()


def _chk_1ab(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    one_minus = ring.add[ring.one, ring.neg[ring.mul]]  # entry (a,b) holds 1 - ab; transpose holds 1 - ba
    mask = b.jsharp.mask()[one_minus]
    bad = np.argwhere(mask != mask.T)
    if len(bad):
        a, bb = map(int, bad[0])
        return _fail(f"1-ab vs 1-ba disagree for a = {ring.describe(a)}, b = {ring.describe(bb)}")
    return _ok()


def _chk_2inj(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    two = int(ring.add[ring.one, ring.one])
    if two not in b.jsharp:
        return _fail("2 is outside J#")
    if two not in b.jacobson:
        return _fail("2 is outside J")
    add_closed = _sumset(ring, b.jsharp, b.jsharp) <= b.jsharp
    js = b.jsharp.index_array()
    mul_closed = b.jsharp.mask()[ring.mul[np.ix_(js, js)]].all()
    if add_closed and not mul_closed:
        return _fail("J# closed under addition but not under multiplication")
    return _ok()


def _chk_zn(ctx: CheckContext) -> Outcome:
    n = ctx.ring.meta.n
    power_of_two = n & (n - 1) == 0
    if ctx.holds("ujsharp") != power_of_two:
        return _fail(f"Z/{n}: UJ# verdict {ctx.holds('ujsharp')} but power-of-two is {power_of_two}")
    return _ok()


def _chk_division(ctx: CheckContext) -> Outcome:
    if ctx.holds("ujsharp") != (ctx.ring.order == 2):
        return _fail(f"division ring of order {ctx.ring.order} has UJ# verdict {ctx.holds('ujsharp')}")
    return _ok()


def _chk_local(ctx: CheckContext) -> Outcome:
    residue = ctx.ring.order // len(ctx.bundle.jacobson)
    if ctx.holds("ujsharp") != (residue == 2):
        return _fail(f"local ring with |R/J| = {residue} has UJ# verdict {ctx.holds('ujsharp')}")
    return _ok()


def _chk_semisimple(ctx: CheckContext) -> Outcome:
    if ctx.holds("ujsharp") != ctx.holds("boolean"):
        return _fail(
            f"J = 0 ring: UJ# verdict {ctx.holds('ujsharp')} vs Boolean verdict {ctx.holds('boolean')}"
        )
    return _ok()


def _chk_uclean(ctx: CheckContext) -> Outcome:
    if ctx.holds("ujsharp") != ctx.holds("uniquely_clean"):
        return _fail(
            f"local ring: UJ# {ctx.holds('ujsharp')} vs uniquely clean {ctx.holds('uniquely_clean')}"
        )
    return _ok()


def _chk_tm(ctx: CheckContext) -> Outcome:
    quotient, _, qb = ctx.radical_quotient()
    quotient_uu = P.is_uu(quotient, qb)
    if ctx.holds("ujsharp") != quotient_uu.value:
        return _fail(f"UJ# {ctx.holds('ujsharp')} but R/J UU verdict {quotient_uu.value}")
    return _ok()


def _chk_j0(ctx: CheckContext) -> Outcome:
    if ctx.holds("ujsharp") != ctx.holds("uu"):
        return _fail(f"J = 0: UJ# {ctx.holds('ujsharp')} vs UU {ctx.holds('uu')}")
    return _ok()


def _chk_jnil(ctx: CheckContext) -> Outcome:
    if ctx.holds("ujsharp") != ctx.holds("uu"):
        return _fail(f"J nil: UJ# {ctx.holds('ujsharp')} vs UU {ctx.holds('uu')}")
    return _ok()


def _chk_t24(ctx: CheckContext) -> Outcome:
    # every finite ring is semipotent; C2.7 runs that search
    quotient, _, qb = ctx.radical_quotient()
    boolean_quotient = P.is_boolean(quotient, qb).value
    u1, u2, u3 = ctx.holds("ujsharp"), boolean_quotient, ctx.holds("uj")
    if not u1 == u2 == u3:
        return _fail(f"UJ# {u1}, R/J Boolean {u2}, UJ {u3} are not equivalent")
    return _ok()


def _chk_c25(ctx: CheckContext) -> Outcome:
    vals = [ctx.holds("ujsharp"), ctx.holds("uj"), ctx.holds("uu"), ctx.holds("boolean")]
    if len(set(vals)) != 1:
        return _fail(f"regular ring: UJ#/UJ/UU/Boolean = {vals}")
    return _ok()


def _chk_c27(ctx: CheckContext) -> Outcome:
    """The paper's finite collapse, then the searches for the classes every
    finite ring has (`_FINITE_RING_SEARCHES`). The registry statement names
    only the paper's part: it is printed in every verify report."""
    ring, b = ctx.ring, ctx.bundle
    # J is a nilpotent ideal: iterate ideal powers down to {0}
    current = b.jacobson
    for _ in range(ring.order + 1):
        if current.indices() == (ring.zero,):
            break
        nxt = additive_closure(ring, products(ring, b.jacobson.index_array()[:, None], current.index_array()))
        if nxt == current:
            return _fail("J is not nilpotent: ideal powers stabilise above zero")
        current = nxt
    else:
        return _fail("J power iteration did not terminate")
    if b.jsharp != b.nilpotents:
        off = (b.jsharp ^ b.nilpotents).first()
        return _fail(f"J# and Nil differ at {ring.describe(off)}")
    vals = [ctx.holds("ujsharp"), ctx.holds("uj"), ctx.holds("uu")]
    if len(set(vals)) != 1:
        return _fail(f"UJ#/UJ/UU = {vals} do not coincide")
    for name in _FINITE_RING_SEARCHES:
        verdict = ctx.searched(name)
        if not verdict:
            return _fail(f"finite ring not {name}: {verdict.witness}")
    return _ok()


# the classes `classify` reports true by theorem, each with its search, in the
# order C2.7 runs them (see `CheckContext.searched`); Dedekind-finiteness is
# L-dedekind's. Each name is looked up on `P` at call time.
_FINITE_RING_SEARCHES = {
    "exchange": lambda ring, b: P.is_exchange(ring, b),
    "potent": lambda ring, b: P.is_potent(ring, b),  # semipotent, then lifting modulo J
    "semiregular": lambda ring, b: P.is_semiregular(ring, b),
    "clean": lambda ring, b: P.clean_family(ring, b)["clean"],
    "strongly_clean": lambda ring, b: P.clean_family(ring, b)["strongly_clean"],
}


def _chk_t316(ctx: CheckContext) -> Outcome:
    a = ctx.holds("semiregular") and ctx.holds("ujsharp")
    bb = ctx.holds("exchange") and ctx.holds("ujsharp")
    c = ctx.holds("semiboolean")
    if not a == bb == c:
        return _fail(f"semiregular&UJ# {a}, exchange&UJ# {bb}, semi-Boolean {c}")
    return _ok()


def _chk_c317(ctx: CheckContext) -> Outcome:
    """Compares the searched verdicts (`CheckContext.searched`), which C2.7
    has already computed on the same context; `classify` reports all three
    true by theorem."""
    vals = [ctx.searched(name).value for name in ("semiregular", "exchange", "clean")]
    if len(set(vals)) != 1:
        return _fail(f"UJ# ring: semiregular/exchange/clean = {vals}")
    return _ok()


def _chk_c318(ctx: CheckContext) -> Outcome:
    b = ctx.bundle
    if not b.jacobson <= b.nilpotents:
        return _fail("J is not nil")
    a = ctx.holds("semiregular") and ctx.holds("ujsharp")
    bb = ctx.holds("exchange") and ctx.holds("ujsharp")
    c = ctx.holds("strongly_nil_clean")
    if not a == bb == c:
        return _fail(f"semiregular&UJ# {a}, exchange&UJ# {bb}, strongly nil-clean {c}")
    return _ok()


def _chk_pclean(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    d, _ = P.clean_decomposable(ring, ctx.bundle)
    plain = d["clean"] != d["jsharp_clean"]
    strong = d["strongly_clean"] != d["strongly_jsharp_clean"]
    if not (plain | strong).any():
        return _ok()
    a = int(np.argmax(plain | strong))  # at each a the plain pair is tested first
    if plain[a]:
        return _fail(f"{ring.describe(a)}: clean {d['clean'][a]} vs J#-clean {d['jsharp_clean'][a]}")
    sclean, sjclean = d["strongly_clean"][a], d["strongly_jsharp_clean"][a]
    return _fail(f"{ring.describe(a)}: strongly clean {sclean} vs strongly J#-clean {sjclean}")


def _chk_equclean(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    cond1 = ctx.holds("ujsharp")
    d, _ = P.clean_decomposable(ring, b)
    cond2 = not (d["clean"] & ~d["strongly_jsharp_clean"]).any()
    central_idem = (b.idempotents & b.center).index_array()
    # every unit u is e + j for some central idempotent e and j in J#
    cond3 = bool(b.jsharp.mask()[ring.add[np.ix_(b.units.index_array(), ring.neg[central_idem])]].any(axis=1).all())
    if not cond1 == cond2 == cond3:
        return _fail(f"UJ# {cond1}, clean=>strongly-J#-clean {cond2}, unit=central idem+J# {cond3}")
    return _ok()


def _chk_sjc(ctx: CheckContext) -> Outcome:
    lhs = ctx.holds("strongly_jsharp_clean")
    rhs = ctx.holds("ujsharp") and ctx.holds("strongly_clean")
    if lhs != rhs:
        return _fail(f"strongly J#-clean {lhs} vs UJ# & strongly clean {rhs}")
    return _ok()


def _chk_c16(ctx: CheckContext) -> Outcome:
    cond1 = ctx.holds("clean") and ctx.holds("ujsharp")
    cond2 = ctx.holds("jsharp_clean") and ctx.holds("ujsharp")
    cond3 = ctx.holds("jsharp_clean")
    if cond1 != cond2:
        return _fail(f"clean&UJ# {cond1} vs J#-clean&UJ# {cond2}")
    if cond3 != cond1:
        return _ok(
            note=(
                "stated three-way equivalence fails here: the ring is J#-clean without being UJ# "
                "(consistent with the 4-element J# of the 2x2 matrix ring; informational, "
                "the (1)<=>(2) equivalence above is enforced)"
            )
        )
    return _ok()


def _chk_2primal_comm(ctx: CheckContext) -> Outcome:
    verdict = ctx.verdicts["two_primal"]
    if not verdict:
        return _fail(f"commutative ring not 2-primal: {verdict.witness}")
    return _ok()


def _chk_p32(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    meta: SkewPolyMeta = ring.meta
    base_verdict = P.is_ujsharp(meta.base, ctx.bundle_of(meta.base)).value
    if meta.k >= 2:
        x = int(meta.base.order)  # digit 1 at position 1
        xideal = ideal_closure(ring, ElemSet.of(ring, [x]))
        if not xideal <= ctx.bundle.jacobson:
            return _fail("the ideal generated by x is not inside J")
    if ctx.holds("ujsharp") != base_verdict:
        return _fail(f"truncation verdict {ctx.holds('ujsharp')} vs base verdict {base_verdict}")
    return _ok(note="truncated quotient used as the finite stand-in for the power-series statement")


def _chk_ptriv(ctx: CheckContext) -> Outcome:
    meta = ctx.ring.meta
    base = meta.base
    base_verdict = P.is_ujsharp(base, ctx.bundle_of(base)).value
    if ctx.holds("ujsharp") != base_verdict:
        return _fail(f"extension verdict {ctx.holds('ujsharp')} vs base verdict {base_verdict}")
    return _ok()


def _chk_gseq(ctx: CheckContext) -> Outcome:
    """g_n = 1 + a + ... + a^n must be a unit for even n and in J# for odd
    n, n = 1..2|R|; every unit a is stepped at once, and the witness is
    the first failing unit with its first failing n. The state (n mod 2,
    g_n, a^(n+1)) decides every later step, so the scan stops at the
    first repeated state: from there on each step repeats a checked one."""
    ring, b = ctx.ring, ctx.bundle
    pools = (b.units.mask(), b.jsharp.mask())  # g_n must lie in pools[n % 2]
    units = np.array(b.units.indices(), dtype=np.int64)
    g = np.full(len(units), ring.one)
    power = units
    first_bad = np.zeros(len(units), dtype=np.int64)  # 0: no failing n yet
    seen = set()
    for n in range(1, 2 * ring.order + 1):
        g = ring.add[g, power]
        first_bad[(first_bad == 0) & ~pools[n % 2][g]] = n
        power = ring.mul[power, units]
        state = (n % 2, g.tobytes(), power.tobytes())
        if state in seen:
            break
        seen.add(state)
    failing = np.flatnonzero(first_bad)
    if len(failing):
        a, n = int(units[failing[0]]), int(first_bad[failing[0]])
        return _fail(f"a = {ring.describe(a)}, n = {n}: " + ("g_n outside J#" if n % 2 else "g_n not a unit"))
    return _ok()


def _chk_gext(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    meta: GroupRingMeta = ring.meta
    base = meta.base
    base_bundle = ctx.bundle_of(base)
    # r*g has digit r at position g: index r * |R|^g
    shifts = base.order ** np.arange(meta.group.order)
    meet = ElemSet.from_mask(base, b.jacobson.mask()[np.arange(base.order) * shifts[meta.group.identity]])
    if meet != base_bundle.jacobson:
        off = (meet ^ base_bundle.jacobson).first()
        return _fail(f"J(RG) meet R and J(R) differ at {base.describe(off)}")
    js = base_bundle.jacobson.index_array()
    outside = np.argwhere(~b.jacobson.mask()[js[:, None] * shifts])  # (j, g), row-major
    if len(outside):
        j, g = map(int, outside[0])
        return _fail(f"j*g outside J(RG) for j = {base.describe(int(js[j]))}, g = {meta.group.names[g]}")
    return _ok()


def _chk_g2grp(ctx: CheckContext) -> Outcome:
    ring = ctx.ring
    meta: GroupRingMeta = ring.meta
    if not ctx.holds("ujsharp"):
        return _ok(note="hypothesis fails here (contrapositive instance)")
    base_verdict = P.is_ujsharp(meta.base, ctx.bundle_of(meta.base)).value
    if not base_verdict:
        return _fail("RG is UJ# but the coefficient ring is not")
    if not meta.group.is_2group:
        return _fail(f"RG is UJ# but |G| = {meta.group.order} is not a 2-power")
    return _ok()


def _chk_gdelta(ctx: CheckContext) -> Outcome:
    ring, b = ctx.ring, ctx.bundle
    extra = augmentation_ideal(ring) - b.jacobson
    if extra:
        return _fail(f"augmentation ideal escapes J at {ring.describe(extra.first())}")
    return _ok()


def _chk_glocfin(ctx: CheckContext) -> Outcome:
    meta: GroupRingMeta = ctx.ring.meta
    base_verdict = P.is_ujsharp(meta.base, ctx.bundle_of(meta.base)).value
    if ctx.holds("ujsharp") != base_verdict:
        return _fail(f"RG verdict {ctx.holds('ujsharp')} vs R verdict {base_verdict}")
    return _ok()


def _chk_gartinian(ctx: CheckContext) -> Outcome:
    meta: GroupRingMeta = ctx.ring.meta
    base = meta.base
    base_bundle = ctx.bundle_of(base)
    if len(base_bundle.jacobson) == 1:
        reduced = ctx.ring  # J(R) = 0: (R/J)G is RG itself
        reduced_verdict = ctx.holds("ujsharp")
    else:  # R/J as the coefficient ring's bundle keeps it, J already proved an ideal
        reduced = build_group_ring(base_bundle.radical_quotient()[0], meta.group, ctx.cap)
        reduced_verdict = P.is_ujsharp(reduced, ctx.bundle_of(reduced)).value
    if ctx.holds("ujsharp") != reduced_verdict:
        return _fail(f"RG verdict {ctx.holds('ujsharp')} vs (R/J)G verdict {reduced_verdict}")
    return _ok()


def _chk_gexp2(ctx: CheckContext) -> Outcome:
    meta: GroupRingMeta = ctx.ring.meta
    if meta.group.exponent != 2:
        return _fail(f"group exponent is {meta.group.exponent}, not 2")
    return _ok()


def _chk_g3grp(ctx: CheckContext) -> Outcome:
    meta: GroupRingMeta = ctx.ring.meta
    if not ctx.holds("ujsharp"):
        return _ok(note="hypothesis fails here (contrapositive instance)")
    p = p_group_prime(meta.group)
    if p not in (None, 3):
        return _fail(f"RG is UJ# but G is a {p}-group, not a 3-group")
    return _ok()


def _chk_ojac(ctx: CheckContext) -> Outcome:
    # the bundle's J is the unit criterion's, as no ring of order <= 64
    # keeps a basis; the pruning of Nil is tested on greedy generators
    ring, b = ctx.ring, ctx.bundle
    oracle = jacobson_radical_maximal_ideal_oracle(ring)
    gens = additive_generators(ring, np.arange(ring.order))[0]
    pruned = jacobson_radical(ring, b.units.mask(), b.nilpotents.mask(), gens)
    for label, jac in (("unit-criterion J", b.jacobson), ("Nil pruned on additive generators", pruned)):
        if oracle != jac:
            return _fail(f"{label} and maximal-left-ideal J differ at {ring.describe((oracle ^ jac).first())}")
    return _ok()


def _chk_onilstar(ctx: CheckContext) -> Outcome:
    oracle = prime_radical_ideal_oracle(ctx.ring)
    computed = ctx.bundle.prime_radical
    if oracle != computed:
        off = (oracle ^ computed).first()
        return _fail(f"Nil* = J and the prime-ideal intersection differ at {ctx.ring.describe(off)}")
    return _ok()


# ---------------------------------------------------------------------------
# applicability predicates beyond the simple ones
# ---------------------------------------------------------------------------


def _applies_x13(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if isinstance(meta, MatrixMeta) and meta.size == 2 and isinstance(meta.base.meta, ZmodMeta) and meta.base.meta.n == 2:
        return None
    return "audit applies to the 2x2 matrix ring over Z/2 only"


def _applies_matrix2(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if isinstance(meta, MatrixMeta) and meta.size >= 2:
        return None
    return "applies to full matrix rings of size >= 2"


def _applies_commutative(ctx: CheckContext) -> str | None:
    if len(ctx.bundle.center) == ctx.ring.order:
        return None
    return "applies to commutative rings"


def _applies_j_zero(ctx: CheckContext) -> str | None:
    if ctx.bundle.jacobson.indices() == (ctx.ring.zero,):
        return None
    return "applies to rings with J = 0"


def _applies_j_nil(ctx: CheckContext) -> str | None:
    if ctx.bundle.jacobson <= ctx.bundle.nilpotents:
        return None
    return "applies to rings with J nil"


def _applies_g2group(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if not isinstance(meta, GroupRingMeta):
        return "applies to group rings"
    if not meta.group.is_2group:
        return "applies when G is a 2-group"
    return None


def _applies_gdelta(ctx: CheckContext) -> str | None:
    reason = _applies_g2group(ctx)
    if reason:
        return reason
    base = ctx.ring.meta.base
    if not P.is_ujsharp(base, ctx.bundle_of(base)):
        return "applies when the coefficient ring is UJ#"
    return None


def _three_in_base_jsharp(ctx: CheckContext) -> str | None:
    """The skip reason unless 3 lies in J# of the group ring's coefficient ring."""
    base = ctx.ring.meta.base
    three = int(base.add[base.one, base.add[base.one, base.one]])
    if three not in ctx.bundle_of(base).jsharp:
        return "applies when 3 lies in J# of the coefficient ring"
    return None


def _applies_gexp2(ctx: CheckContext) -> str | None:
    reason = _applies_g2group(ctx)
    if reason:
        return reason
    if not ctx.holds("ujsharp"):
        return "applies when RG is UJ#"
    return _three_in_base_jsharp(ctx)


def _applies_g3grp(ctx: CheckContext) -> str | None:
    meta = ctx.ring.meta
    if not isinstance(meta, GroupRingMeta):
        return "applies to group rings"
    reason = _three_in_base_jsharp(ctx)
    if reason:
        return reason
    p = p_group_prime(meta.group)
    if p is None or p == 2:
        return "applies when G is a p-group for an odd prime p"
    return None


def _applies_order(limit: int, reason: str):
    def applies(ctx: CheckContext) -> str | None:
        return None if ctx.ring.order <= limit else reason

    return applies


def _doc_entry(check_id: str, statement: str, reason: str) -> Check:
    return Check(
        id=check_id,
        paper_ref=statement,
        applies_text="not mechanically checkable",
        applies=lambda ctx: reason,
        body=None,
        doc_only=reason,
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _registry() -> tuple[Check, ...]:
    need_uj = _need("ujsharp", "applies to UJ# rings")
    checks = [
        Check("L1.2.1", "a in J# and ab = ba imply ab in J#", "all rings", _always, _chk_l121),
        Check("L1.2.2", "a^n in J# exactly when a in J#, for all n >= 1", "all rings", _always, _chk_l122),
        Check("L1.2.3", "a in J# implies 1 - a is a unit", "all rings", _always, _chk_l123),
        Check("L1.2.4", "central members of J# lie in J", "all rings", _always, _chk_l124),
        Check("L1.2.5", "for ideals I inside J: J#(R/I) is the image of J#(R)", "all rings", _always, _chk_l125),
        Check("L1.2.6", "J# of a direct product is the product of the J#", "product rings", _need_meta(ProductMeta, "applies to product constructions"), _chk_l126),
        Check("L1.2.7", "ab in J# implies ba in J#", "all rings", _always, _chk_l127),
        Check("L1.2.8", "Nil + J lies inside J#", "all rings", _always, _chk_l128),
        Check("X-1.3", "J# of the 2x2 matrix ring over Z/2 tabulated exactly", "M2(Z/2) only", _applies_x13, _chk_x13),
        Check("P3.8", "J# meets Id only in 0 and misses U entirely", "all rings", _always, _chk_p38),
        Check("P3.7", "local exactly when R = U union J#", "all rings", _always, _chk_p37),
        Check("P3.4", "the center of a UJ# ring is UJ# (and rationally closed)", "UJ# rings", need_uj, _chk_p34),
        Check("L-prod", "a product is UJ# exactly when every factor is", "product rings", _need_meta(ProductMeta, "applies to product constructions"), _chk_lprod),
        Check("L1.5", "J#(eRe) = eRe meet J#(R) = e J#(R) e", "all rings", _always, _chk_l15),
        Check("L-corner", "corners of a UJ# ring are UJ#", "UJ# rings", need_uj, _chk_lcorner),
        Check("T3.5", "for ideals I inside J: R is UJ# exactly when R/I is", "all rings", _always, _chk_t35),
        Check("L-closeprod", "J# + J and J# + central J# stay inside J#", "all rings", _always, _chk_closeprod),
        Check("L-equUQ", "UJ# exactly when U + (U meet Z) equals J#", "all rings", _always, _chk_equuq),
        Check("P2.2", "in UJ# rings two units never sum to 1, in R and R/J", "UJ# rings", need_uj, _chk_p22),
        Check("P2.3", "in potent UJ# rings no corner of R/J has units summing to its identity", "potent UJ# rings", lambda ctx: None if (ctx.holds("ujsharp") and ctx.holds("potent")) else "applies to potent UJ# rings", _chk_p23),
        Check("L-matrix", "full matrix rings of size >= 2 are never UJ#", "matrix rings", _applies_matrix2, _chk_lmatrix),
        Check("L-munits", "matrix units satisfy E_ij E_st = delta_js E_it", "matrix rings", _need_meta(MatrixMeta, "applies to full matrix rings"), _chk_munits),
        Check("L-dedekind", "one-sided inverses are two-sided (UJ# rings in particular)", "all rings", _always, _chk_dedekind),
        Check("C-1ab", "in UJ# rings 1 - ab lies in J# exactly when 1 - ba does", "UJ# rings", need_uj, _chk_1ab),
        Check("L-2inJ", "in UJ# rings 2 lies in J# and in J; additive closure of J# forces multiplicative closure", "UJ# rings", need_uj, _chk_2inj),
        Check("C-Zn", "Z/n is UJ# exactly when n is a power of 2", "Z/n rings", _need_meta(ZmodMeta, "applies to Z/n constructions"), _chk_zn),
        Check("L-division", "a division ring is UJ# exactly when it has two elements", "division rings", _need("division", "applies to division rings"), _chk_division),
        Check("L-local", "a local ring is UJ# exactly when |R/J| = 2", "local rings", _need("local", "applies to local rings"), _chk_local),
        Check("L-semisimple", "with J = 0: UJ# exactly when Boolean (product of order-2 fields)", "rings with J = 0", _applies_j_zero, _chk_semisimple),
        Check("C-uclean", "a local ring is UJ# exactly when it is uniquely clean", "local rings", _need("local", "applies to local rings"), _chk_uclean),
        Check("T-m", "UJ# exactly when R/J is a UU ring", "all rings", _always, _chk_tm),
        Check("C-J0", "with J = 0: UJ# exactly when UU", "rings with J = 0", _applies_j_zero, _chk_j0),
        Check("C-Jnil", "with J nil: UJ# exactly when UU", "rings with J nil", _applies_j_nil, _chk_jnil),
        Check("T2.4", "semipotent rings: UJ#, R/J Boolean and UJ are equivalent", "all rings (every finite ring is semipotent)", _always, _chk_t24),
        Check("C2.5", "regular rings: UJ#, UJ, UU and Boolean are equivalent", "regular rings", _need("regular", "applies to regular rings"), _chk_c25),
        Check("C2.7", "finite collapse: J nilpotent, J# = Nil, UJ#/UJ/UU coincide", "all rings", _always, _chk_c27),
        Check("T3.16", "semiregular UJ#, exchange UJ# and semi-Boolean are equivalent", "all rings", _always, _chk_t316),
        Check("C3.17", "UJ# rings: semiregular, exchange and clean are equivalent", "UJ# rings", need_uj, _chk_c317),
        Check("C3.18", "exchange UJ# with J nil exactly when strongly nil-clean", "all rings", _always, _chk_c318),
        Check("P-clean", "per element in UJ# rings: clean = J#-clean, strongly clean = strongly J#-clean", "UJ# rings", need_uj, _chk_pclean),
        Check("C-equclean", "UJ#, every clean element strongly J#-clean, every unit central idempotent + J#: equivalent", "all rings", _always, _chk_equclean),
        Check("C-sjc", "strongly J#-clean exactly when UJ# and strongly clean", "all rings", _always, _chk_sjc),
        Check("C1.6", "clean UJ# vs J#-clean UJ# vs J#-clean (audited)", "all rings", _always, _chk_c16),
        Check("P-2primal", "commutative rings are 2-primal", "commutative rings", _applies_commutative, _chk_2primal_comm),
        Check("P3.2", "truncated skew-polynomial quotients preserve the UJ# verdict", "skew/poly truncations", _need_meta(SkewPolyMeta, "applies to truncated polynomial constructions"), _chk_p32),
        Check("P-triv", "trivial extensions and T_n(R) are UJ# exactly when R is", "trivial extensions and triangular rings", _need_meta((TrivialExtMeta, TriangularMeta), "applies to trivial extensions and triangular matrix rings"), _chk_ptriv),
        Check("G-seq", "geometric partial sums over a unit alternate between U and J#", "UJ# rings", need_uj, _chk_gseq),
        Check("G-ext", "J(R) = J(RG) meet R and J(R)G lies inside J(RG)", "group rings", _need_meta(GroupRingMeta, "applies to group rings"), _chk_gext),
        _doc_entry("G-torsion", "coefficient groups of UJ# group rings are torsion", "every finite group is torsion; the infinite-order argument has no finite instance"),
        Check("G-2grp", "RG UJ# forces R UJ# and G a 2-group", "group rings", _need_meta(GroupRingMeta, "applies to group rings"), _chk_g2grp),
        Check("G-delta", "for UJ# coefficients and 2-groups the augmentation ideal sits inside J", "UJ# coefficients, 2-group", _applies_gdelta, _chk_gdelta),
        Check("G-locfin", "for 2-groups: RG UJ# exactly when R UJ#", "group rings over 2-groups", _applies_g2group, _chk_glocfin),
        Check("G-artinian", "RG UJ# exactly when (R/J(R))G UJ#", "group rings", _need_meta(GroupRingMeta, "applies to group rings"), _chk_gartinian),
        Check("G-exp2", "UJ# group ring, 3 in J#(R), 2-group: G has exponent 2", "never met on a nonzero ring: RG UJ# makes R UJ#, u = -1 then puts 2 in J#(R), and 2, 3 in J#(R) would make 1 = 3 - 2 nilpotent modulo J(R)", _applies_gexp2, _chk_gexp2),
        Check("G-3grp", "3 in J#(R), G an odd-p-group, RG UJ#: G is a 3-group", "group rings over odd p-groups with 3 in J#(R); RG is then never UJ#, since a UJ# R has 2 in J#(R) (u = -1) and 2, 3 in J#(R) would make 1 = 3 - 2 nilpotent modulo J(R)", _applies_g3grp, _chk_g3grp),
        Check("O-jac", "unit-criterion radical equals the maximal-left-ideal intersection", "order <= 64, --deep-oracle", _applies_order(64, "oracle runs on orders <= 64"), _chk_ojac, needs_deep=True),
        Check("O-nilstar", "graph Nil* equals the prime-ideal intersection", "order <= 16, --deep-oracle", _applies_order(16, "oracle runs on orders <= 16"), _chk_onilstar, needs_deep=True),
        _doc_entry("P2.10", "for 2-primal alpha-compatible rings J# of the skew polynomial ring is its prime radical", "requires a genuinely infinite polynomial ring; P3.2 covers the truncated stand-in"),
        _doc_entry("T-skew", "for 2-primal alpha-compatible rings: R UU iff R[x;a] UJ# iff UJ iff UU", "requires a genuinely infinite polynomial ring"),
        _doc_entry("T-2primal", "R is 2-primal iff J# of R[x] is Nil*(R)[x]; reduced iff it vanishes", "requires a genuinely infinite polynomial ring"),
        _doc_entry("X-UU-inf", "a power-series ring can be UJ# without being UU", "requires a genuinely infinite power-series ring; finite rings collapse UJ# and UU (see C2.7)"),
    ]
    return tuple(checks)


REGISTRY: tuple[Check, ...] = _registry()
_BY_ID = {c.id: c for c in REGISTRY}
if len(_BY_ID) != len(REGISTRY):
    raise RuntimeError("duplicate check ids")


def registry() -> tuple[Check, ...]:
    """All registered checks, in report order."""
    return REGISTRY


def get_check(check_id: str) -> Check:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise UnknownCheckError(check_id) from None


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def default_corpus() -> tuple[str, ...]:
    """The built-in verification corpus (30 rings)."""
    return (
        "z(2)",
        "z(3)",
        "z(4)",
        "z(6)",
        "z(8)",
        "z(12)",
        "z(16)",
        "z(32)",
        "gf(4)",
        "gf(8)",
        "gf(9)",
        "m(2,z(2))",
        "t(2,z(2))",
        "t(3,z(2))",
        "prod(z(2),z(2))",
        "prod(z(2),gf(4))",
        "triv(z(2))",
        "triv(z(4))",
        "quot(z(8),[4])",
        "corner(m(2,z(2)),1)",
        "poly(z(2),3)",
        "skew(gf(4),frob,2)",
        "group(z(2),c(2))",
        "group(z(2),c(4))",
        "group(z(2),c(2)xc(2))",
        "group(z(4),c(2))",
        "group(z(2),q8)",
        "group(z(2),s(3))",
        "group(z(2),c(3))",
        "group(z(9),c(3))",
    )


def _evaluate(check: Check, ctx: CheckContext, ring_text: str) -> CheckResult:
    start = time.perf_counter()
    if check.needs_deep and not ctx.deep:
        millis = (time.perf_counter() - start) * 1000.0
        return CheckResult(check.id, ring_text, "skip", None, "enable --deep-oracle to run", round(millis, 3))
    reason = check.applies(ctx)
    if reason is not None:
        millis = (time.perf_counter() - start) * 1000.0
        return CheckResult(check.id, ring_text, "skip", None, reason, round(millis, 3))
    outcome = check.body(ctx)
    millis = (time.perf_counter() - start) * 1000.0
    status = "pass" if outcome.ok else "fail"
    return CheckResult(check.id, ring_text, status, outcome.witness, outcome.note, round(millis, 3))


def make_context(ring: TableRing, deep: bool = False, cap: int | None = None) -> CheckContext:
    return CheckContext(ring, compute_bundle(ring), deep=deep, cap=cap)


def run_check(check_id: str, ring_or_text, deep: bool = False, cap: int | None = None) -> CheckResult:
    """Evaluate one check against one ring (expression text or TableRing)."""
    check = get_check(check_id)
    if isinstance(ring_or_text, TableRing):
        ring = ring_or_text
    else:
        ring = compile_text(str(ring_or_text), cap)
    text = ring.expr_text or f"<ring order {ring.order}>"
    with bundle_memo():
        return _evaluate(check, make_context(ring, deep=deep, cap=cap), text)


def run_suite(
    corpus: list[str] | tuple[str, ...] | None = None,
    filter_glob: str = "*",
    deep: bool = False,
    cap: int | None = None,
) -> SuiteReport:
    """Evaluate every matching check against every corpus ring."""
    selected = [c for c in REGISTRY if fnmatch.fnmatchcase(c.id, filter_glob)]
    if not selected:
        raise ValueError(f"no check id matches the filter {filter_glob!r}")
    texts = list(corpus) if corpus is not None else list(default_corpus())
    if not texts:
        raise CorpusError("<empty>", ValueError("corpus is empty"))

    # ring by ring, each compiled only when the one before it is checked and
    # released, so that one ring and its context (bundles, corners,
    # quotients) are alive at a time; the report stays check by check
    results: dict[str, list[CheckResult]] = {check.id: [] for check in selected}
    summary = {"pass": 0, "fail": 0, "skip": 0}
    with bundle_memo():  # one bundle per table for the whole suite
        for text in texts:
            try:
                ring = compile_text(text, cap)
            except Exception as exc:  # annotate with the offending expression
                raise CorpusError(text, exc) from exc
            ctx = make_context(ring, deep=deep, cap=cap)
            for check in selected:
                result = _evaluate(check, ctx, text)
                summary[result.status] += 1
                results[check.id].append(result)
            del ring, ctx
    entries = [{"id": check.id, "paper_ref": check.paper_ref, "results": results[check.id]} for check in selected]
    return SuiteReport(REPORT_VERSION, texts, entries, summary)
