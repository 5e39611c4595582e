"""Golden outputs and the comparison the benchmark's correctness gate uses.

The goldens were recorded from the commit that defined the benchmark.
Two fields are left out on purpose: the per-check ``millis`` of a verify
report, which is a timing, and the ``validation`` mode of an inspect
payload, which is planned to change from "sampled" to "exhaustive"
without changing any result.

Record them again from the current tree with::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
VERIFY_FILE = GOLDEN_DIR / "verify_corpus.json"
INSPECT_FILE = GOLDEN_DIR / "inspect.json"

VERIFY_ARGS = ["verify", "--deep-oracle", "--no-cache", "--json"]
INSPECT_RINGS = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))")


def verify_view(report: dict) -> dict:
    """A verify report without timings and independent of corpus order."""
    return {
        "version": report["version"],
        "corpus": sorted(report["corpus"]),
        "summary": report["summary"],
        "checks": {
            entry["id"]: {
                "paper_ref": entry["paper_ref"],
                "results": {
                    r["ring"]: {k: v for k, v in r.items() if k not in ("ring", "millis")}
                    for r in entry["results"]
                },
            }
            for entry in report["checks"]
        },
    }


def evaluations(view: dict) -> int:
    return sum(len(entry["results"]) for entry in view["checks"].values())


def verify_mismatches(golden: dict, got: dict) -> int:
    """How many of the golden's (check, ring) evaluations a verify view got wrong.

    A difference outside the evaluations (version, corpus, summary or an
    unexpected check) makes every evaluation count as wrong.
    """
    if any(got[k] != golden[k] for k in ("version", "corpus", "summary")) or set(got["checks"]) - set(golden["checks"]):
        return evaluations(golden)
    wrong = 0
    for check_id, want in golden["checks"].items():
        have = got["checks"].get(check_id, {"paper_ref": None, "results": {}})
        for ring, result in want["results"].items():
            if have["paper_ref"] != want["paper_ref"] or have["results"].get(ring) != result:
                wrong += 1
    return wrong


def inspect_view(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "validation"}


def load() -> tuple[dict, dict]:
    with VERIFY_FILE.open(encoding="utf-8") as fh:
        verify = json.load(fh)
    with INSPECT_FILE.open(encoding="utf-8") as fh:
        inspect = json.load(fh)
    return verify, inspect


def _run(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"ring {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def record() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from ringlab import cli

    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(VERIFY_FILE, verify_view(_run(cli, VERIFY_ARGS)))
    _write(INSPECT_FILE, {text: inspect_view(_run(cli, ["inspect", "--json", "--no-cache", text])) for text in INSPECT_RINGS})


if __name__ == "__main__":
    record()
