"""Self-tests of the benchmark on a tiny corpus: python3 -m pytest perfbench"""

import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# Every builder, sub-ring context and deep oracle is reached by these.
TINY_CORPUS = (
    "z(4)",
    "gf(4)",
    "m(2,z(2))",
    "t(2,z(2))",
    "prod(z(2),z(2))",
    "quot(z(8),[4])",
    "corner(m(2,z(2)),1)",
    "triv(z(2))",
    "group(z(2),c(2))",
    "poly(z(2),2)",
)
TINY_RINGS = ("z(8)", "t(2,z(2))", "m(2,z(3))")  # m(2,z(3)) is validated by sampling


@pytest.fixture
def benches(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("RINGLAB_MAX_ORDER", raising=False)
    verify = run.Bench(tmp_path, None, False, corpus=TINY_CORPUS)
    cold = run.Bench(tmp_path, TINY_RINGS, False)
    warm = run.Bench(tmp_path, TINY_RINGS, True)
    return verify, cold, warm


def traced_pass(bench, seed):
    tracer = spans.Tracer()
    result = run.run_traced(bench, tracer, random.Random(seed))
    assert not tracer.skipped
    return result, tracer


def test_traced_outputs_equal_untraced_and_every_span_fires(benches):
    fired = set()
    for bench in benches:
        if bench.warm:
            bench.setup(dict(os.environ))
        plain = bench.run_pass(random.Random(1))
        traced, tracer = traced_pass(bench, 2)
        assert plain.failed == traced.failed == 0
        assert traced.views == plain.views
        fired |= {name for name, n in tracer.calls.items() if n}
    declared = {label if isinstance(label, str) else None for _, _, label, _ in spans.TARGETS} - {None}
    declared |= {"checks." + c for c in spans.CHECK_IDS}
    assert declared - fired == set()


def test_counts_repeat_exactly(benches):
    counts = [name for name, unit, _ in spans.METRICS if unit == "count" or name == "cache.hit_ratio"]
    for bench in benches:
        if bench.warm:
            bench.setup(dict(os.environ))
        first, second = (traced_pass(bench, seed)[0].layers for seed in (3, 4))
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cache.hit_ratio"] == 1 and first["core.scan_axioms.sampled"] > 0  # the warm bench


def test_named_bindings_are_patched():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    want = {
        "predicates.build_quotient",
        "predicates.compute_bundle",
        "checks.build_corner",
        "checks.build_quotient",
        "checks.build_group_ring",
        "checks.compute_bundle",
        "checks.validate_ring",
        "checks.jacobson_radical_maximal_ideal_oracle",
        "checks.prime_radical_ideal_oracle",
        "cache.compute_bundle",
    }
    assert want <= set(tracer.bindings)


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [("ringlab.subsets", "no_such_fn", "subsets.no_such_fn", None)])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.skipped == ["ringlab.subsets.no_such_fn"]


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == spans.METRICS
    assert {m["name"] for m in declared["end_to_end"]} == {"pass_s", "ring_max_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)


def test_probes_during_a_call_are_left_out_of_its_wall_time():
    speed = hostspeed.HostSpeed()

    def busy(seconds=0.5):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall, scaled = speed.time(busy)
    assert result == "done"
    assert 0.3 < wall < 0.5  # about five probes ran, and were subtracted
    assert scaled > 0
    _, unprobed, _ = speed.time(busy, during=False)
    assert unprobed >= 0.5
