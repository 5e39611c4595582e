"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; everything here is exact discrete algebra, so every tolerance is
equality.
"""

import json

from ringlab import compile_text, compute_bundle
from ringlab import predicates as P
from ringlab.cli import main as cli_main
from ringlab.construct import (
    build_corner,
    build_gf,
    build_matrix,
    build_truncated_skew_poly,
    build_zmod,
    frobenius_endo,
    identity_endo,
    matrix_unit_index,
)
from ringlab.expr import ParseError, RangeError, parse, print_canonical
from ringlab.subsets import augmentation_ideal

from astgen import generate
from conftest import results_for


def report_line(number, ok, text):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_power_of_two():
    mismatches = []
    for n in range(2, 65):
        ring = build_zmod(n)
        verdict = P.is_ujsharp(ring, compute_bundle(ring)).value
        if verdict != (n & (n - 1) == 0):
            mismatches.append(n)
    report_line(1, not mismatches, f"Z/n UJ# exactly for 2-power n, 2 <= n <= 64 (mismatches: {mismatches})")


def test_criterion_02_matrix_exclusion():
    m2 = build_matrix(build_zmod(2), 2)
    b = compute_bundle(m2)
    witness = 2 + 4 + 8  # [[0,1],[1,1]] in the row-major little-endian encoding
    ok = not P.is_ujsharp(m2, b).value
    ok &= witness in b.units.members
    um1 = int(m2.add[witness, m2.neg[m2.one]])
    ok &= um1 in b.units.members and um1 not in b.jsharp.members

    m2z4 = build_matrix(build_zmod(4), 2)
    ok &= not P.is_ujsharp(m2z4, compute_bundle(m2z4)).value

    corner, _ = build_corner(m2, 1 + 8)  # corner at the identity idempotent
    ok &= not P.is_ujsharp(corner, compute_bundle(corner)).value
    report_line(2, ok, "M2(F2) not UJ# with witness [[0,1],[1,1]]; M2(Z/4) and the embedded corner excluded")


def test_criterion_03_theorem_m(suite_report):
    results = results_for(suite_report, "T-m")
    ok = len(results) >= 25 and all(r.status == "pass" for r in results)
    report_line(3, ok, f"UJ# iff R/J is UU on all {len(results)} corpus rings, zero failures")


def test_criterion_04_theorem_24(suite_report):
    results = results_for(suite_report, "T2.4")
    ok = all(r.status == "pass" for r in results)
    report_line(4, ok, "UJ# <=> R/J Boolean <=> UJ on the full corpus (semipotence is searched in C2.7)")


def test_criterion_05_lemma_12(suite_report):
    ok = True
    detail = []
    for part in range(1, 9):
        results = results_for(suite_report, f"L1.2.{part}")
        fails = [r for r in results if r.status == "fail"]
        ok &= not fails
        if part == 6:
            passes = [r for r in results if r.status == "pass"]
            ok &= all("prod(" in r.ring for r in passes) and len(passes) == 2
        else:
            small_skips = [
                r for r in results if r.status == "skip" and compile_text(r.ring).order <= 64
            ]
            ok &= not small_skips
        detail.append(f"part {part}: {sum(r.status == 'pass' for r in results)} pass")
    report_line(5, ok, "; ".join(detail))


def test_criterion_06_group_ring_suite():
    expectations = {
        "group(z(2),c(2))": True,
        "group(z(2),c(4))": True,
        "group(z(2),c(2)xc(2))": True,
        "group(z(2),q8)": True,
        "group(z(2),c(3))": False,
        "group(z(2),s(3))": False,
        "group(z(4),c(2))": True,
    }
    ok = True
    for text, expected in expectations.items():
        ring = compile_text(text)
        bundle = compute_bundle(ring)
        verdict = P.is_ujsharp(ring, bundle).value
        ok &= verdict == expected
        meta = ring.meta
        base_bundle = compute_bundle(meta.base)
        if meta.group.is_2group and P.is_ujsharp(meta.base, base_bundle).value:
            ok &= augmentation_ideal(ring).members <= bundle.jacobson.members
    report_line(6, ok, "F2[G] UJ# exactly for the 2-groups; Z/4[C2] UJ#; Delta(RG) inside J(RG)")


def test_criterion_07_finite_collapse(suite_report):
    results = results_for(suite_report, "C2.7")
    ok = all(r.status == "pass" for r in results)
    report_line(7, ok, "J nilpotent, J# = Nil and UJ#/UJ/UU coincide on every corpus ring")


def test_criterion_08_example_13_audit(suite_report):
    m2 = compile_text("m(2,z(2))")
    b = compute_bundle(m2)
    e12 = matrix_unit_index(m2, 0, 1)
    e21 = matrix_unit_index(m2, 1, 0)
    ok = b.jsharp.members == {0, e12, e21, 15} and len(b.jsharp) == 4
    audit = [r for r in results_for(suite_report, "X-1.3") if r.ring == "m(2,z(2))"]
    ok &= len(audit) == 1 and audit[0].status == "pass" and audit[0].note is not None
    ok &= "omits" in audit[0].note
    report_line(8, ok, "J#(M2(F2)) has exactly 4 elements and the report carries the discrepancy note")


def test_criterion_09_clean_element_propositions(suite_report, corpus_bundles):
    results = results_for(suite_report, "P-clean")
    ok = all(r.status in ("pass", "skip") for r in results)
    ok &= sum(r.status == "pass" for r in results) >= 10  # every UJ# corpus member
    locals_seen = 0
    for text, ring, bundle in corpus_bundles:
        if P.is_local(ring, bundle).value:
            locals_seen += 1
            fam = P.clean_family(ring, bundle)
            ok &= fam["uniquely_clean"].value == P.is_ujsharp(ring, bundle).value
    ok &= locals_seen >= 8
    report_line(9, ok, f"clean/J#-clean equivalences pass; uniquely-clean <=> UJ# on {locals_seen} local members")


def test_criterion_10_truncated_series_proxy():
    ok = True
    cases = []
    for base_text, base_builder in (("z(2)", lambda: build_zmod(2)), ("z(4)", lambda: build_zmod(4)), ("gf(4)", lambda: build_gf(4))):
        base = base_builder()
        base_verdict = P.is_ujsharp(base, compute_bundle(base)).value
        endos = [identity_endo(base)]
        if base_text == "gf(4)":
            endos.append(frobenius_endo(base))
        for alpha in endos:
            for k in (2, 3):
                ring = build_truncated_skew_poly(base, alpha, k)
                verdict = P.is_ujsharp(ring, compute_bundle(ring)).value
                cases.append((base_text, alpha.name, k))
                ok &= verdict == base_verdict
    report_line(10, ok, f"UJ#(R[x;a]/(x^k)) = UJ#(R) over {len(cases)} (base, endo, k) combinations")


def test_criterion_11_parser_round_trip():
    asts = generate(1000, seed=0xA5, max_depth=4)
    ok = all(parse(print_canonical(ast)) == ast for ast in asts)
    malformed = (
        "", "z", "z()", "z(1)", "m(0,z(2))", "prod()", "quot(z(8),[])",
        "corner(m(2,z(2)))", "group(z(2),)", "skew(gf(4),bogus,2)", "z(8", "z(8))",
        "s(9)", "poly(z(2),0)", "w(3)",
    )
    offsets_ok = True
    for text in malformed:
        try:
            parse(text)
            offsets_ok = False
        except (ParseError, RangeError) as exc:
            offsets_ok &= isinstance(exc.offset, int) and 0 <= exc.offset <= len(text)
    report_line(11, ok and offsets_ok, "1000 seeded ASTs round-trip; malformed fixtures raise offset-bearing errors")


def _strip_millis(payload):
    for entry in payload["checks"]:
        for result in entry["results"]:
            result.pop("millis", None)
    return payload


def test_criterion_12_cache_determinism(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("RINGLAB_CACHE", str(cache_dir))
    # inspect is what reads the cache: a cold run writes one entry, a warm run
    # reads it back, writes nothing, and prints the same payload
    entries = lambda: sorted((p.name, p.stat().st_ino, p.stat().st_mtime_ns) for p in cache_dir.iterdir())
    code_cold = cli_main(["inspect", "group(z(3),d(3))", "--json"])
    cold = capsys.readouterr().out
    after_cold = entries()
    code_warm = cli_main(["inspect", "group(z(3),d(3))", "--json"])
    warm = capsys.readouterr().out
    ok = code_cold == 0 and code_warm == 0 and cold == warm
    ok &= len(after_cold) == 1 and after_cold[0][0].endswith(".v6.bin") and entries() == after_cold
    # verify never touches the cache, and its report is reproducible
    code_a = cli_main(["verify", "--json"])
    first = capsys.readouterr().out
    code_b = cli_main(["verify", "--json"])
    second = capsys.readouterr().out
    ok &= code_a == 0 and code_b == 0 and entries() == after_cold
    ok &= _strip_millis(json.loads(first)) == _strip_millis(json.loads(second))
    report_line(
        12,
        ok,
        "cold and warm inspect payloads are identical, only the cold one writes the cache; verify reports repeat (timing excluded)",
    )
