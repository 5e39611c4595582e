import argparse
import json
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ringlab import cache, cli, construct, core
from ringlab.checks import default_corpus
from ringlab.cli import main

from ringtables import CAP_RINGS, bitwise_add_formula


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("RINGLAB_MAX_ORDER", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_human(capsys):
    code, out, _ = run_cli(capsys, "inspect", "z(8)")
    assert code == 0
    assert "order" in out and "8" in out
    assert "|U|" in out and "4" in out
    assert "ujsharp" in out and "yes" in out


def test_inspect_json(capsys):
    code, out, _ = run_cli(capsys, "inspect", "m(2,z(2))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 16
    assert payload["sizes"]["U"] == 6
    assert payload["sizes"]["J"] == 1
    assert payload["predicates"]["ujsharp"]["verdict"] is False


M2Z2_INSPECT = """\
ring                   m(2,z(2))
order                  16
validation             exhaustive
|U|                    6
|J|                    1
|Jsharp|               4
|Nil|                  4
|NilStar|              1
|Id|                   8
|Center|               2
ujsharp                no
uj                     no
uu                     no
boolean                no
local                  no
division               no
regular                yes
exchange               yes
semiregular            yes
semiboolean            no
semipotent             yes
potent                 yes
clean                  yes
strongly_clean         yes
jsharp_clean           yes
strongly_jsharp_clean  no
strongly_nil_clean     no
uniquely_clean         no
dedekind_finite        yes
two_primal             no
"""


def test_inspect_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "inspect", "m(2,z(2))")
    assert code == 0 and out == M2Z2_INSPECT
    code, out, _ = run_cli(capsys, "inspect", "m(2,z(2))", "--json")
    predicates = json.loads(out)["predicates"]
    assert list(predicates) == [line.split()[0] for line in M2Z2_INSPECT.splitlines()[10:]]
    assert predicates["uniquely_clean"] == {"verdict": False, "witness": "[[1,0],[0,0]] (#1) has 3 clean decompositions"}
    assert predicates["strongly_jsharp_clean"]["witness"] == "[[1,1],[1,0]] (#7) has no strongly jsharp clean decomposition"


def test_inspect_group_ring_not_ujsharp(capsys):
    code, out, _ = run_cli(capsys, "inspect", "group(z(2),c(3))", "--json")
    payload = json.loads(out)
    assert payload["predicates"]["ujsharp"]["verdict"] is False


def test_sets_output(capsys):
    code, out, _ = run_cli(capsys, "sets", "z(8)", "J")
    assert code == 0
    assert [line.split("\t")[0] for line in out.strip().splitlines()] == ["0", "2", "4", "6"]

    code, out, _ = run_cli(capsys, "sets", "m(2,z(2))", "Jsharp")
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert any("[[1,1],[1,1]]" in row for row in rows)  # the all-ones matrix is present

    code, out, _ = run_cli(capsys, "sets", "group(z(2),c(2))", "Delta")
    names = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert names == ["0", "1+g"]


def test_sets_delta_requires_group_ring(capsys):
    code, _, err = run_cli(capsys, "sets", "z(8)", "Delta")
    assert code == 2
    assert "group ring" in err


def test_sets_unknown_name(capsys):
    code, _, err = run_cli(capsys, "sets", "z(8)", "Bogus")
    assert code == 2 and "unknown set" in err


def test_elements_table(capsys):
    code, out, _ = run_cli(capsys, "elements", "corner(m(2,z(2)),1)")
    assert code == 0
    assert out.splitlines() == ["0\t[[0,0],[0,0]]", "1\t[[1,0],[0,0]]"]


def test_check_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "T-m", "z(8)")
    assert code == 0 and "pass" in out
    code, _, err = run_cli(capsys, "check", "NOPE", "z(8)")
    assert code == 2 and "unknown check" in err


def test_verify_default_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "T-m")
    assert code == 0
    assert "pass: 30, fail: 0, skip: 0" in out


def test_verify_empty_corpus_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(empty))
    assert code == 2 and "error" in err


def test_verify_filter_matching_no_check_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "ZZZ")
    assert code == 2 and out == ""
    assert err == "error: no check id matches the filter 'ZZZ'\n"


def test_verify_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# comment line\nz(8)\n\nz(12)  # trailing comment\n")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--filter", "L1.2.*")
    assert code == 0
    assert "fail: 0" in out


def test_verify_bad_corpus_exits_2(capsys, tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("m(0,z(2))\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 2
    assert "m(0,z(2))" not in err or "error" in err


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "inspect", "z(")
    assert code == 2
    assert "offset" in err


def test_inspect_quotient_by_the_whole_ring_exits_2(capsys):
    code, out, err = run_cli(capsys, "inspect", "quot(z(8),[1])")
    assert code == 2
    assert "quotient by the whole ring is the zero ring" in out + err


def test_corpus_command(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 25 and "z(32)" in lines


def test_registry_command(capsys):
    code, out, _ = run_cli(capsys, "registry", "--json")
    payload = json.loads(out)
    assert any(entry["id"] == "T-m" for entry in payload)


def test_cache_lifecycle(capsys):
    code, out, _ = run_cli(capsys, "cache", "path")
    assert code == 0 and "cache" in out
    run_cli(capsys, "inspect", "z(8)")
    code, out, _ = run_cli(capsys, "cache", "stats")
    assert "entries: 1" in out
    code, out, _ = run_cli(capsys, "cache", "clear")
    assert "removed 1" in out
    code, out, _ = run_cli(capsys, "cache", "stats")
    assert "entries: 0" in out


def test_cache_transparency_inspect(capsys, tmp_path):
    texts = default_corpus() + ("z(128)", "m(2,z(8))")  # and two rings whose entries hash only the basis rows
    for text in texts:
        code, cold, _ = run_cli(capsys, "inspect", text, "--json")
        assert code == 0 and cold, text
        assert run_cli(capsys, "inspect", text, "--json") == (0, cold, ""), text
    assert len(list((tmp_path / "cache").glob("*.bin"))) == len(texts)  # every warm run had an entry


def test_an_unusable_cache_directory_is_skipped(capsys, tmp_path, monkeypatch):
    code, expected, _ = run_cli(capsys, "inspect", "z(4)")
    assert code == 0
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("RINGLAB_CACHE", str(blocker / "sub"))  # a directory below a file
    assert run_cli(capsys, "inspect", "z(4)") == (0, expected, "")
    assert blocker.read_text() == ""


def test_max_order_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "inspect", "z(100)", "--max-order", "64")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "64")
    code, _, err = run_cli(capsys, "inspect", "z(100)")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "128")
    code, _, _ = run_cli(capsys, "inspect", "z(100)")
    assert code == 0
    # a bad or non-positive cap is a usage error, never a silent fallback
    for flag in ("0", "-5"):
        code, out, err = run_cli(capsys, "inspect", "z(4)", "--max-order", flag)
        assert code == 2 and out == "" and "--max-order" in err and len(err.splitlines()) == 1
    for env in ("lots", "", "0", "-1"):
        monkeypatch.setenv("RINGLAB_MAX_ORDER", env)
        code, out, err = run_cli(capsys, "inspect", "z(4)")
        assert code == 2 and out == "" and "RINGLAB_MAX_ORDER" in err and len(err.splitlines()) == 1
    code, _, _ = run_cli(capsys, "inspect", "z(4)", "--max-order", "8")
    assert code == 0  # the flag still wins over the environment


def test_a_cap_past_16_bit_storage_exits_2(capsys, monkeypatch):
    # every table entry is a uint16, so no ring above order 65536 can be stored
    code, out, err = run_cli(capsys, "inspect", "z(4)", "--max-order", "65536")
    assert code == 0 and out
    code, out, err = run_cli(capsys, "inspect", "z(4)", "--max-order", "65537")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "--max-order" in err and "65536" in err and "16-bit table storage" in err
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "100000")
    for argv in (("inspect", "z(4)"), ("verify", "--filter", "L1.2.1"), ("check", "L1.2.1", "z(4)")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert "RINGLAB_MAX_ORDER" in err and "16-bit table storage" in err, argv


@pytest.mark.parametrize(
    "text", ["m(120,z(2))", "poly(z(2),20000)", "m(2000,z(2))", "t(3000,z(2))", "poly(z(2),3000000)", "skew(gf(4),frob,100000)"]
)
def test_an_oversized_ring_is_refused_before_it_is_built(capsys, text):
    # the order is compared with the cap one radix at a time, before any
    # matrix position, power array or place value is made
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "inspect", text, "--no-cache")
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", "error: order above 2^64 exceeds cap 4096\n")


@pytest.mark.parametrize(
    "text, order",
    [("z(100000)", 100000), ("m(4,z(2))", 65536), ("m(5,z(2))", 33554432), ("t(6,z(2))", 2097152), ("group(z(2),c(20))", 1048576), ("m(8,z(2))", 2**64)],
)
def test_a_refused_order_up_to_2_to_the_64_is_printed_whole(capsys, text, order):
    assert run_cli(capsys, "inspect", text, "--no-cache") == (2, "", f"error: order {order} exceeds cap 4096\n")


def test_inspect_above_the_default_cap_keeps_its_derived_rings(capsys):
    # R/J and every corner are never larger than R, which met --max-order;
    # J = {0} here, so R/{0} is a ring of order 16384, above the default 4096
    code, out, err = run_cli(capsys, "inspect", "--max-order", "65536", "prod(m(2,gf(8)),gf(4))")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1].split() == ["order", "16384"] and lines[2].split() == ["validation", "exhaustive"]
    assert {"|U|": "10584", "|J|": "1", "|Id|": "148"}.items() <= dict(line.split() for line in lines[3:10]).items()
    assert [line.split() for line in lines if line.startswith("semiboolean")] == [["semiboolean", "no"]]


def test_an_inspect_above_the_default_cap_reads_only_quarter_tables(capsys, monkeypatch):
    # order 16384 with J != {0}: a whole table of R would be 512 MiB, and any
    # n^2 temporary 256 MiB or more; the quarter tables QL and QH are 128 KiB.
    # R/J, of order 128, keeps whole tables; nothing larger is filled, cold or
    # warm, and the peak stays within 8 MiB (16 MiB with the half tables)
    inspect_reads_only_quarter_tables(capsys, monkeypatch, "group(z(2),c(14))", 16384, 128, 8)


def test_an_inspect_at_order_65536_reads_only_quarter_tables(capsys, monkeypatch):
    # the largest order 16-bit storage holds: a whole table would be 8 GiB, the
    # half tables were 64 MiB (a 72 MiB bound), and QL and QH, 256 rows of 512
    # corner columns each, are 512 KiB; R/J = m(2,z(2)) has order 16
    inspect_reads_only_quarter_tables(capsys, monkeypatch, "m(2,z(16))", 65536, 16, 16)


def inspect_reads_only_quarter_tables(capsys, monkeypatch, text, order, quotient_order, bound_mib):
    """Inspect `text` under --max-order `order`, cold and then warm: no table
    above `quotient_order` is filled, R's tables stay deferred as its
    quarter tables, and the tracemalloc peak is at most `bound_mib` MiB."""
    rings, fills = [], []
    compile_real, fill_add, fill_mul = cli.compile_text, core._bitwise_add_table, core._bitwise_mul_table
    monkeypatch.setattr(cli, "compile_text", lambda *a: rings.append(compile_real(*a)) or rings[-1])
    monkeypatch.setattr(core, "_bitwise_add_table", lambda n, high: fills.append(("add", n)) or fill_add(n, high))
    monkeypatch.setattr(core, "_bitwise_mul_table", lambda quarters, high: fills.append(("mul", quarters_order(quarters))) or fill_mul(quarters, high))
    for _ in range(2):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "inspect", "--max-order", str(order), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "" and out.splitlines()[1].split() == ["order", str(order)]
        ring = rings.pop()
        assert ring._add[0] is None and ring._mul[0] is None and quarters_order(ring.mul_quarters) == order
        assert [f for f in fills if f[1] > quotient_order] == []
        assert peak <= bound_mib << 20, peak


def quarters_order(quarters):
    """The order of the ring whose quarter tables (QL, QH, s) these are:
    one row of QL per low half and one of QH per high half."""
    return len(quarters[0]) * len(quarters[1])


@pytest.mark.parametrize(
    "line, message",
    [
        ("9 -> 2", "index out of range 0..3: '9 -> 2'"),
        ("-1 -> 2", "index out of range 0..3: '-1 -> 2'"),
        ("2 -> 2", "source index 2 is mapped twice: '2 -> 2'"),
    ],
)
def test_endomorphism_file_rejects_bad_source_indices(capsys, tmp_path, monkeypatch, line, message):
    # the Frobenius map of gf(4), then one bad line
    (tmp_path / "f.endo").write_text("order 4\n0 -> 0\n1 -> 1\n2 -> 3\n3 -> 2\n" + line + "\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "inspect", "skew(gf(4),@f.endo,2)")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("text", CAP_RINGS + ("m(2,gf(8))",))
def test_inspect_of_a_cap_ring_never_fills_its_addition_table(capsys, monkeypatch, text):
    # cold, warm and --no-cache: every read of add on the inspect path is a
    # sum from the word formula, and every read of mul a product from the
    # quarter tables; a later read fills each table. m(2,gf(8)) has J = {0},
    # so its U comes from the scan of every product, by blocks of rows
    rings, fills = [], []
    compile_real, fill_add, fill_mul = cli.compile_text, core._bitwise_add_table, core._bitwise_mul_table
    monkeypatch.setattr(cli, "compile_text", lambda *a: rings.append(compile_real(*a)) or rings[-1])
    monkeypatch.setattr(core, "_bitwise_add_table", lambda n, high: fills.append(("add", n)) or fill_add(n, high))
    monkeypatch.setattr(core, "_bitwise_mul_table", lambda quarters, high: fills.append(("mul", quarters_order(quarters))) or fill_mul(quarters, high))
    for argv in ((), (), ("--no-cache",)):
        assert run_cli(capsys, "inspect", text, "--json", *argv)[0] == 0
        ring = rings.pop()  # at most one order-4096 ring is held
        assert ring.order == 4096 and ring._add[0] is None and ring._mul[0] is None, (text, argv)
        assert [f for f in fills if f[1] > 64] == [], (text, argv)
    add, mul = ring.add, ring.mul
    assert [f for f in fills if f[1] > 64] == [("add", 4096), ("mul", 4096)]
    for table in (add, mul):
        assert table.dtype == np.uint16 and not table.flags.writeable and table.flags.c_contiguous
    assert np.array_equal(add, bitwise_add_formula(ring.order, ring.top_bits))
    want = core._fill_bitwise_mul(core.products(ring, list(ring.basis)), ring.top_bits)  # the table the generator rows fill
    assert np.array_equal(mul, want)


@pytest.mark.parametrize("text", CAP_RINGS[:2])
def test_a_warm_inspect_of_a_cap_ring_builds_no_quotient(capsys, monkeypatch, text):
    # the cached bundle brings no R/J, and semiboolean is decided on R, so the
    # warm inspect builds none; its output is the cold one's
    code, cold, _ = run_cli(capsys, "inspect", text, "--json")
    assert code == 0
    calls, build = [], construct._build_quotient
    monkeypatch.setattr(construct, "_build_quotient", lambda *a, **k: calls.append(a) or build(*a, **k))
    monkeypatch.setattr(cache, "compute_bundle", lambda ring: pytest.fail("the warm inspect missed the cache"))
    assert run_cli(capsys, "inspect", text, "--json") == (0, cold, "")
    assert calls == []


GOLDEN_INSPECT = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "inspect.json"


def test_inspect_of_the_cap_rings_matches_the_recorded_golden(capsys):
    # every verdict and witness, the early-stopping searches' included;
    # `validation` is left out of the golden
    golden = json.loads(GOLDEN_INSPECT.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CAP_RINGS)
    for text in CAP_RINGS:
        code, out, _ = run_cli(capsys, "inspect", "--json", "--no-cache", text)
        assert code == 0, text
        payload = json.loads(out)
        del payload["validation"]
        assert payload == golden[text], text


@pytest.mark.parametrize("check_id, text", [("L1.2.1", "t(2,z(16))"), ("C2.7", "m(2,z(8))")])
def test_a_check_on_a_cap_ring_fills_no_table(capsys, monkeypatch, check_id, text):
    # the check bodies and the searches C2.7 runs read products from the
    # quarter tables and sums from the word formula
    fills, fill_add, fill_mul = [], core._bitwise_add_table, core._bitwise_mul_table
    monkeypatch.setattr(core, "_bitwise_add_table", lambda n, high: fills.append(("add", n)) or fill_add(n, high))
    monkeypatch.setattr(core, "_bitwise_mul_table", lambda quarters, high: fills.append(("mul", quarters_order(quarters))) or fill_mul(quarters, high))
    code, out, _ = run_cli(capsys, "check", check_id, text, "--json", "--no-cache")
    assert code == 0
    payload = json.loads(out)
    del payload["millis"]
    assert payload == {"id": check_id, "ring": text, "status": "pass"}
    assert [f for f in fills if f[1] > 64] == []


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    # two in-process calls print what two calls on fresh parsers print, and
    # build the `ring` parser once between them
    argvs = (("inspect", "z(4)"), ("inspect", "m(2,z(2))", "--json"), ("check", "L1.2.1", "z(8)"))
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
    cli.build_parser.cache_clear()
    try:
        assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    finally:
        cli.build_parser.cache_clear()
    assert built.count("ring") == 1 and len(built) > 1  # one top parser, its subparsers with it
