import ast
import dataclasses
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from ringlab import ElemSet, RingError, checks, compile_text
from ringlab import predicates as P
from ringlab.construct import additive_closure, ideal_closure
from ringlab.subsets import compute_bundle
from ringlab.checks import CorpusError, UnknownCheckError, get_check, registry, run_check, run_suite

from conftest import results_for
from ringtables import ideal_masks, join_closure_oracle, joined_ideals


def test_registry_size_and_ids():
    reg = registry()
    assert len(reg) >= 30
    ids = [c.id for c in reg]
    assert len(set(ids)) == len(ids)
    for expected in ("T-m", "T2.4", "T3.5", "L-corner", "G-delta", "G-seq", "G-2grp", "G-3grp",
                     "P3.2", "X-1.3", "L-matrix", "G-exp2", "C2.7"):
        assert expected in ids
    assert all(c.paper_ref for c in reg)


def test_registry_covers_lemma_parts():
    ids = {c.id for c in registry()}
    assert {f"L1.2.{i}" for i in range(1, 9)} <= ids


def test_run_check_examples():
    assert run_check("T-m", "z(8)").status == "pass"
    assert run_check("L-matrix", "m(2,z(2))").status == "pass"  # correctly NOT UJ#
    result = run_check("G-2grp", "group(z(2),s(3))")
    assert result.status == "pass"
    assert "contrapositive" in result.note


def test_run_check_skip_vs_pass():
    result = run_check("L-corner", "z(12)")  # not a UJ# ring
    assert result.status == "skip"
    assert "UJ#" in result.note
    result = run_check("C-Zn", "t(2,z(2))")
    assert result.status == "skip"


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run_check("NOPE", "z(8)")


def test_doc_only_entries_always_skip():
    for check_id in ("G-torsion", "T-skew", "T-2primal", "P2.10", "X-UU-inf"):
        check = get_check(check_id)
        assert check.doc_only
        result = run_check(check_id, "z(8)")
        assert result.status == "skip"
        assert result.note == check.doc_only


def test_deep_oracle_gating():
    result = run_check("O-jac", "z(12)", deep=False)
    assert result.status == "skip" and "deep-oracle" in result.note
    assert run_check("O-jac", "z(12)", deep=True).status == "pass"
    assert run_check("O-nilstar", "z(12)", deep=True).status == "pass"
    # above the oracle order bound the deep checks skip with the reason
    assert run_check("O-nilstar", "t(3,z(2))", deep=True).status == "skip"


def test_run_suite_small_corpus():
    report = run_suite(["z(8)", "z(12)", "t(2,z(2))"])
    assert report.summary["fail"] == 0
    assert report.summary["pass"] > 0
    assert report.corpus == ["z(8)", "z(12)", "t(2,z(2))"]


def test_run_suite_filter():
    report = run_suite(["z(12)"], filter_glob="L1.2.*")
    assert [e["id"] for e in report.checks] == [f"L1.2.{i}" for i in range(1, 9)]
    # T2.4 biconditional holds on z(12): not UJ#, R/J = Z/6 not Boolean
    report = run_suite(["z(12)"], filter_glob="T2.4")
    (entry,) = report.checks
    assert entry["results"][0].status == "pass"


def test_run_suite_group_filter():
    report = run_suite(["group(z(4),c(2))"], filter_glob="G-*")
    by_id = {e["id"]: e["results"][0].status for e in report.checks}
    assert by_id["G-delta"] == "pass"
    assert by_id["G-2grp"] == "pass"
    assert by_id["G-locfin"] == "pass"
    assert by_id["G-torsion"] == "skip"


def test_run_suite_compile_error_annotated():
    with pytest.raises(CorpusError) as err:
        run_suite(["z(8)", "corner(m(2,z(2)),2)"])  # index 2 encodes E12, not idempotent
    assert "corner" in err.value.expr_text


def test_run_suite_compiles_ring_by_ring(monkeypatch):
    # each corpus ring is compiled once the one before it is checked and
    # released, so at most one is alive at a time; a bad text after good
    # ones still raises with its own text, the first bad one
    refs, alive, real = [], [], checks.compile_text

    def compiling(text, cap=None):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        ring = real(text, cap)
        refs.append(weakref.ref(ring))
        return ring

    monkeypatch.setattr(checks, "compile_text", compiling)
    report = run_suite(["z(4)", "group(z(9),c(3))", "m(2,z(2))", "z(4)"], deep=True)
    assert alive == [0, 0, 0, 0] and report.summary["fail"] == 0
    alive.clear()
    with pytest.raises(CorpusError) as err:
        run_suite(["z(8)", "t(2,z(2))", "corner(m(2,z(2)),2)", "nope(3)"])
    assert err.value.expr_text == "corner(m(2,z(2)),2)" and alive == [0, 0, 0]


def test_run_suite_empty_corpus_rejected():
    with pytest.raises(CorpusError):
        run_suite([])


def test_report_json_schema(suite_report):
    payload = suite_report.to_json_dict()
    assert set(payload) == {"version", "corpus", "checks", "summary"}
    assert payload["version"] == checks.REPORT_VERSION
    assert set(payload["summary"]) == {"pass", "fail", "skip"}
    assert len(payload["corpus"]) >= 25
    for entry in payload["checks"]:
        assert set(entry) <= {"id", "paper_ref", "results"}
        for result in entry["results"]:
            assert result["status"] in ("pass", "fail", "skip")
            assert result["ring"] in payload["corpus"]
            assert "millis" in result
    json.dumps(payload)  # serializable


def test_default_corpus_contents():
    corpus = checks.default_corpus()
    assert len(corpus) >= 25
    for required in ("z(32)", "group(z(2),q8)", "group(z(9),c(3))", "gf(9)", "skew(gf(4),frob,2)"):
        assert required in corpus


def test_suite_is_deterministic_modulo_timing(suite_report):
    second = run_suite()
    a = suite_report.to_json_dict(include_millis=False)
    b = second.to_json_dict(include_millis=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_failures_are_reproducible_with_witness():
    # mutate the claim target: run the matrix-exclusion check on a UJ# ring
    # by checking a deliberately wrong expectation through run_check twice
    first = run_check("C-Zn", "z(12)")
    second = run_check("C-Zn", "z(12)")
    assert first.status == second.status == "pass"
    # a real failure pathway: the informational audit stays deterministic too
    r1 = run_check("X-1.3", "m(2,z(2))")
    r2 = run_check("X-1.3", "m(2,z(2))")
    assert r1.status == r2.status == "pass"
    assert r1.note == r2.note


def test_lemma_sequ_on_ujsharp_rings(suite_report):
    for result in results_for(suite_report, "G-seq"):
        assert result.status in ("pass", "skip")
        if result.status == "skip":
            assert "UJ#" in result.note


def test_center_check_runs_on_ujsharp_rings(suite_report):
    statuses = {r.ring: r.status for r in results_for(suite_report, "P3.4")}
    assert statuses["z(8)"] == "pass"
    assert statuses["t(3,z(2))"] == "pass"
    assert statuses["z(12)"] == "skip"


def test_run_check_accepts_a_table_ring():
    ring = compile_text("z(8)")
    result = run_check("C-Zn", ring)
    assert result.status == "pass"
    assert result.ring == "z(8)"  # the compiled expression text labels the result
    anonymous = __import__("ringlab.construct", fromlist=["build_zmod"]).build_zmod(8)
    result = run_check("T-m", anonymous)
    assert result.status == "pass"
    assert "order 8" in result.ring


def test_exp2_check_skips_with_the_failing_hypothesis(suite_report):
    # the hypotheses (RG UJ# and 3 in J#(R)) exclude each other on nonzero
    # finite rings, so every corpus instance reports the gating reason
    results = results_for(suite_report, "G-exp2")
    assert all(r.status == "skip" for r in results)
    f2c4 = [r for r in results if r.ring == "group(z(2),c(4))"]
    assert "3" in f2c4[0].note or "UJ#" in f2c4[0].note


def test_ujsharp_rings_have_two_and_not_three_in_jsharp(corpus_bundles):
    # u = -1 puts 2 in J#(R); 2 and 3 both in J#(R) would make 1 = 3 - 2
    # nilpotent modulo J, so G-exp2 never applies and G-3grp never fails
    for text, ring, bundle in corpus_bundles:
        if not P.is_ujsharp(ring, bundle):
            continue
        two = int(ring.add[ring.one, ring.one])
        three = int(ring.add[two, ring.one])
        assert two in bundle.jsharp, text
        assert three not in bundle.jsharp, text


def test_g3grp_passes_through_its_contrapositive_on_every_test_group_ring():
    # on every group ring a test file spells out whose coefficient ring R has
    # 3 in J#(R), RG is not UJ#: 3 lies in J#(RG), were RG UJ# the unit -1
    # would put 2 there too, and 2, 3 in J#(RG) would make 1 = 3 - 2
    # nilpotent modulo J; so G-3grp's body passes through its contrapositive
    # branch, and the check passes so wherever it applies
    texts = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("group("):
                texts.add(node.value)
    texts = {text for text in texts if "@" not in text}  # a group table file exists only inside its own test
    contrapositive = checks._ok(note="hypothesis fails here (contrapositive instance)")
    seen, applied = [], 0
    for text in sorted(texts):
        try:
            ring = compile_text(text)
        except (RingError, ValueError):  # malformed or above the cap on purpose, or not an expression
            continue
        base = ring.meta.base
        if int(base.add[base.one, base.add[base.one, base.one]]) not in compute_bundle(base).jsharp:
            continue
        bundle = compute_bundle(ring)
        ctx = checks.CheckContext(ring, bundle)
        assert not P.is_ujsharp(ring, bundle).value, text
        assert checks._chk_g3grp(ctx) == contrapositive, text
        result = checks._evaluate(get_check("G-3grp"), ctx, text)
        if result.status != "skip":
            assert (result.status, result.note) == ("pass", contrapositive.note), text
            applied += 1
        seen.append(text)
    assert len(seen) >= 5 and applied >= 3, seen


def test_suite_summary_counts_are_consistent(suite_report):
    total = sum(len(e["results"]) for e in suite_report.checks)
    s = suite_report.summary
    assert s["pass"] + s["fail"] + s["skip"] == total
    assert total == len(suite_report.checks) * len(suite_report.corpus)


def test_mixed_product_decomposes_jsharp_componentwise():
    # Z/4 x M2(F2): J# splits across the factors and the product is not UJ#
    assert run_check("L1.2.6", "prod(z(4),m(2,z(2)))").status == "pass"
    assert run_check("L-prod", "prod(z(4),m(2,z(2)))").status == "pass"


def test_fail_path_rendering_through_the_evaluator():
    from ringlab.checks import Check, CheckContext, Outcome, _evaluate
    from ringlab.subsets import compute_bundle

    ring = compile_text("z(8)")
    ctx = CheckContext(ring, compute_bundle(ring))
    broken = Check(
        id="T-TEST",
        paper_ref="synthetic always-failing statement",
        applies_text="all rings",
        applies=lambda _: None,
        body=lambda c: Outcome(False, witness=c.ring.describe(3), note="engineered"),
    )
    result = _evaluate(broken, ctx, "z(8)")
    assert result.status == "fail"
    assert result.witness == "3 (#3)"
    assert result.note == "engineered"
    assert result.millis >= 0
    again = _evaluate(broken, ctx, "z(8)")
    assert again.witness == result.witness  # fails reproduce their witness


# ---------------------------------------------------------------------------
# the rewritten check kernels against the loops they replaced
# ---------------------------------------------------------------------------


def gseq_oracle(ctx):
    """The nested loop: unit by unit, n by n."""
    ring, b = ctx.ring, ctx.bundle
    for a in sorted(b.units.members):
        g, power = ring.one, a
        for n in range(1, 2 * ring.order + 1):
            g = int(ring.add[g, power])
            if n % 2 == 0 and g not in b.units.members:
                return checks._fail(f"a = {ring.describe(a)}, n = {n}: g_n not a unit")
            if n % 2 == 1 and g not in b.jsharp.members:
                return checks._fail(f"a = {ring.describe(a)}, n = {n}: g_n outside J#")
            power = int(ring.mul[power, a])
    return checks._ok()


def test_gseq_matches_the_nested_loop(corpus_bundles):
    # U cut to {1} leaves g_n = n*1, which fails "not a unit" at n = 2 in
    # characteristic 4; J# cut to {0} fails "outside J#" at n = 1 off
    # characteristic 2
    texts = set()
    for text, ring, b in corpus_bundles:
        for bundle in (
            b,
            dataclasses.replace(b, units=ElemSet.of(ring, [ring.one])),
            dataclasses.replace(b, jsharp=ElemSet.of(ring, [ring.zero])),
        ):
            ctx = checks.CheckContext(ring, bundle)
            outcome = checks._chk_gseq(ctx)
            assert outcome == gseq_oracle(ctx), text
            if not outcome.ok:
                texts.add(outcome.witness.rsplit(": ", 1)[1])
    assert texts == {"g_n not a unit", "g_n outside J#"}


def test_gseq_runs_past_a_repeated_vector_of_powers():
    # U cut to {0, 1} and J# to {1, 2} in z(3): the powers of 0 and 1 repeat from
    # n = 1 on, while g_n = n + 1 for a = 1 runs 2, 0, 1, 2 and first leaves its
    # pool at n = 4, after the vector of powers has repeated
    ring = compile_text("z(3)")
    b = dataclasses.replace(compute_bundle(ring), units=ElemSet.of(ring, [0, 1]), jsharp=ElemSet.of(ring, [1, 2]))
    ctx = checks.CheckContext(ring, b)
    assert checks._chk_gseq(ctx) == gseq_oracle(ctx) == checks._fail("a = 1 (#1), n = 4: g_n not a unit")


def l122_oracle(ctx):
    """The per-element loop: a^n for n = 1..|R|, element by element; the
    witness is the first failing n, and at it the first failing a."""
    ring, js = ctx.ring, ctx.bundle.jsharp.members
    mul, failing = ring.mul.tolist(), []
    for a in range(ring.order):
        power = a
        for n in range(1, ring.order + 1):
            if (power in js) != (a in js):
                failing.append((n, a))
                break
            power = mul[power][a]
    if failing:
        n, a = min(failing)
        return checks._fail(f"a = {ring.describe(a)}, n = {n}: a^n and a disagree on J# membership")
    return checks._ok()


def test_l122_matches_the_per_element_loop(corpus_bundles):
    # J# cut to {0} fails at the first nonzero nilpotent; J# grown by U holds,
    # as the powers of a unit are units and a non-unit's are not. J# cut to Id
    # fails where a unit's order is at least 3, as on gf(4) at n = 3, after
    # the membership of a^n has repeated at n = 2 but not a^n itself
    failed = set()
    for text, ring, b in corpus_bundles:
        for cut, bundle in (
            ("true", b),
            ("J# = {0}", dataclasses.replace(b, jsharp=ElemSet.of(ring, [ring.zero]))),
            ("J# grown by U", dataclasses.replace(b, jsharp=b.jsharp | b.units)),
            ("J# = Id", dataclasses.replace(b, jsharp=b.idempotents)),
        ):
            ctx = checks.CheckContext(ring, bundle)
            outcome = checks._chk_l122(ctx)
            assert outcome == l122_oracle(ctx), (text, cut)
            if not outcome.ok:
                failed.add(cut)
    assert failed == {"J# = {0}", "J# = Id"}


def sumset_oracle(ring, left, right):
    la = np.array(sorted(left), dtype=np.int64)
    ra = np.array(sorted(right), dtype=np.int64)
    if len(la) == 0 or len(ra) == 0:
        return frozenset()
    return frozenset(int(x) for x in ring.add[np.ix_(la, ra)].ravel())


def additive_closure_oracle(ring, items):
    members = set(items) | {ring.zero}
    while True:
        arr = np.array(sorted(members), dtype=np.int64)
        total = {int(v) for v in ring.add[np.ix_(arr, arr)].ravel()}
        if total <= members:
            return frozenset(members)
        members |= total


def test_set_kernels_match_their_generator_forms(corpus_bundles):
    rng = np.random.default_rng(3)
    for text, ring, b in corpus_bundles:
        for left, right in (
            (b.nilpotents, b.jacobson),
            (b.jsharp, b.jacobson),
            (b.jsharp, b.jsharp & b.center),
            (b.units, b.units & b.center),
            (b.units, ElemSet.of(ring, [])),
        ):
            want = sumset_oracle(ring, left.members, right.members)
            assert checks._sumset(ring, left, right).members == want, text
        jac = np.array(sorted(b.jacobson.members), dtype=np.int64)
        generators = [{a} for a in range(ring.order)]
        generators += [set(rng.integers(0, ring.order, 3).tolist()) for _ in range(5)]
        generators.append(ring.mul[np.ix_(jac, jac)].ravel().tolist())  # J*J, as C2.7 closes it
        for items in generators:
            assert additive_closure(ring, items).members == additive_closure_oracle(ring, items), text
        principal_sets = [{frozenset(ring.mul[:, a].tolist()) for a in range(ring.order)}]
        if ring.order <= 16:  # the orders O-nilstar joins two-sided ideals on
            closures = (ideal_closure(ring, ElemSet.of(ring, [a])) for a in range(ring.order))
            principal_sets.append({frozenset(c.members) for c in closures})
        for principal in principal_sets:
            assert joined_ideals(ring, ideal_masks(ring, principal)) == join_closure_oracle(ring, principal), text


def test_radical_quotients_are_built_once(corpus_bundles, monkeypatch):
    calls = []
    real = checks.build_quotient

    def counting(ring, ideal, *args, **kwargs):
        calls.append(ideal.members)
        return real(ring, ideal, *args, **kwargs)

    monkeypatch.setattr(checks, "build_quotient", counting)
    reused = 0
    for text, ring, b in corpus_bundles:
        calls.clear()
        ctx = checks.CheckContext(ring, b)
        checks._chk_l125(ctx)
        checks._chk_t35(ctx)
        others = [ideal.members for ideal in ctx.radical_ideals() if ideal.members != b.jacobson.members]
        assert calls == others, text
        by_j = [q for ideal, q, _ in ctx.radical_quotients() if ideal.members == b.jacobson.members]
        if by_j:  # R/J is the bundle's, with its bundle
            quotient, _, qb = b.radical_quotient()
            assert by_j == [quotient] and ctx.bundle_of(quotient) is qb, text
            reused += 1
    assert reused == len(corpus_bundles)  # J is a radical ideal, also when J = 0


def test_radical_quotients_are_kept_only_once_complete():
    # a bundle whose J is J(Z/4) at the identity of (Z/4)C2, not an ideal:
    # R/J fails to validate, on the first call and on every later one
    from ringlab import RingValidationError, compute_bundle

    ring = compile_text("group(z(4),c(2))")
    bundle = dataclasses.replace(compute_bundle(ring), jacobson=ElemSet.of(ring, [0, 2]))
    ctx = checks.CheckContext(ring, bundle)
    for _ in range(2):
        with pytest.raises(RingValidationError):
            ctx.radical_quotients()


# the checks with no default-corpus ring they fail on, each of which a
# flipped UJ# verdict makes fail on at least one
FLIP_REACHED = (
    "L-prod", "T3.5", "C-Zn", "L-division", "L-local", "L-semisimple", "C-uclean", "T-m", "C-J0",
    "C-Jnil", "T2.4", "C2.5", "T3.16", "C-sjc", "C1.6", "G-2grp", "G-artinian",
)


@pytest.fixture(scope="module")
def flipped_report():
    """The default corpus run with `CheckContext.holds` negating "ujsharp"."""
    real = checks.CheckContext.holds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks.CheckContext, "holds", lambda ctx, name: real(ctx, name) != (name == "ujsharp"))
        return run_suite()


@pytest.mark.parametrize("check_id", FLIP_REACHED)
def test_a_flipped_ujsharp_verdict_fails_the_check(flipped_report, check_id):
    assert any(r.status == "fail" for r in results_for(flipped_report, check_id))


def test_a_false_2primal_verdict_fails_p_2primal(monkeypatch):
    # P-2primal reads the 2-primal verdict, not the UJ# one
    monkeypatch.setattr(P, "is_2primal", lambda ring, bundle: P.Verdict(False, "flipped"))
    results = results_for(run_suite(filter_glob="P-2primal"), "P-2primal")
    assert any(r.status == "fail" and r.witness.endswith("flipped") for r in results)


def test_g_artinian_takes_r_over_j_from_the_coefficient_bundle(monkeypatch):
    # R/J is the one the coefficient ring's bundle keeps: J is not proved an ideal again
    def refuse(*args):
        raise AssertionError("G-artinian built a quotient")

    monkeypatch.setattr(checks, "build_quotient", refuse)
    built, real = [], checks.build_group_ring
    monkeypatch.setattr(checks, "build_group_ring", lambda base, group, cap=None: built.append(base) or real(base, group, cap))
    for text in ("group(z(4),c(2))", "group(z(9),c(3))"):  # the corpus group rings with J(R) != 0
        ctx = checks.make_context(compile_text(text))
        assert checks._chk_gartinian(ctx) == checks._ok(), text
        assert built.pop() is ctx.bundle_of(ctx.ring.meta.base).radical_quotient()[0], text


GOLDEN_VERIFY = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify_corpus.json"


def test_deep_verify_report_matches_the_recorded_golden():
    golden = json.loads(GOLDEN_VERIFY.read_text(encoding="utf-8"))
    report = run_suite(deep=True).to_json_dict(include_millis=False)
    # the golden is keyed by id and ring; the report lists them in order
    assert [entry["id"] for entry in report["checks"]] == [c.id for c in registry()]
    assert all([r["ring"] for r in entry["results"]] == report["corpus"] for entry in report["checks"])
    view = {
        "version": report["version"],
        "corpus": sorted(report["corpus"]),
        "summary": report["summary"],
        "checks": {
            entry["id"]: {
                "paper_ref": entry["paper_ref"],
                "results": {r["ring"]: {k: v for k, v in r.items() if k != "ring"} for r in entry["results"]},
            }
            for entry in report["checks"]
        },
    }
    assert view["summary"] == golden["summary"]
    assert view["checks"].keys() == golden["checks"].keys()
    for check_id, want in golden["checks"].items():
        assert view["checks"][check_id] == want, check_id
    assert view == golden


def test_run_suite_rejects_a_filter_matching_no_check():
    with pytest.raises(ValueError, match="'ZZZ'"):
        run_suite(["z(8)"], filter_glob="ZZZ")
