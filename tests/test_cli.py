import json

import pytest

from ringlab.checks import default_corpus
from ringlab.cli import main


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
    for text in default_corpus():
        code, cold, _ = run_cli(capsys, "inspect", text, "--json")
        assert code == 0 and cold, text
        assert run_cli(capsys, "inspect", text, "--json") == (0, cold, ""), text
    assert len(list((tmp_path / "cache").glob("*.bin"))) == len(default_corpus())  # every warm run had an entry


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
