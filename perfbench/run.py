"""ringlab benchmark: drives the ``ring`` command the way a user does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one process with one thread. It sets up (several times, each
in a child process, reporting the median), then runs passes of the
workload's commands through ``ringlab.cli.main`` in process, with stdout
captured and the ``--json`` output parsed, until ``--seconds`` have gone.
The seed only permutes the order of the rings within each pass. Every
output is checked against the goldens in ``perfbench/golden``.

The speed of a shared host drifts by up to half over minutes, and the
program's time with it. So ``pass_s``, ``ring_max_s`` and ``setup_s``
are wall times scaled to a host of fixed speed, gauged by a probe task
timed around and, for untraced commands and set-up, during the work (see
``hostspeed.py``). The unscaled wall times go to stderr.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate, and it carries the per-layer metrics of the traced passes
(see ``spans.py``), with the traced over untraced pass-time ratio.

Workloads:
  verify_corpus  ``ring verify --deep-oracle --no-cache --json`` over the
                 30-ring corpus (61 checks x 30 rings per pass)
  inspect_cold   ``ring inspect --json`` on three rings of order 4096,
                 cache emptied before every pass (the cache write path)
  inspect_warm   ``ring inspect --json`` on two of them, cache filled by
                 the set-up process (the cache read path)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import golden  # noqa: E402
import hostspeed  # noqa: E402
from spans import Tracer, median_metrics  # noqa: E402

WORKLOADS = {
    "verify_corpus": {"rings": None, "warm": False},
    "inspect_cold": {"rings": golden.INSPECT_RINGS, "warm": False},
    # group(z(2),c(12)) is left out: its build would swamp the read path.
    "inspect_warm": {"rings": golden.INSPECT_RINGS[:2], "warm": True},
}
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Pass:
    seconds: float  # sum of the commands' wall times
    slowest: float  # the slowest single command
    scaled: float  # ``seconds``, each command scaled to the reference host
    scaled_slowest: float  # the slowest single command, scaled
    attempted: int
    failed: int
    views: dict = field(repr=False)  # normalized output of each command
    wrote_cache: bool = False  # on a warm pass, a lookup missed
    layers: dict | None = None


def run_cli(cli, argv: list[str], speed: hostspeed.HostSpeed, probe: bool) -> tuple[float, float, int | None, str]:
    """Run one ``ring`` command in process: (wall s, scaled s, exit code, stdout).

    Without ``probe`` the command runs unprobed, and is scaled by the
    probes around it only.
    """
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:
            err.write(traceback.format_exc())
            return None

    code, elapsed, scaled = speed.time(call, during=probe)
    if code != 0:
        print(f"perfbench: ring {' '.join(argv)} exited with {code}\n{err.getvalue()}", file=sys.stderr)
    return elapsed, scaled, code, out.getvalue()


class Bench:
    """The commands of one workload, their cache directory and goldens.

    ``rings`` is the list of inspect expressions, or None for a verify of
    ``corpus``. Without ``expected`` outputs are not compared.
    """

    def __init__(self, work: Path, rings, warm: bool, corpus=None, expected=None):
        from ringlab import cli

        self.cli = cli
        self.speed = hostspeed.HostSpeed()
        self.probe = True  # probe during commands; off for traced passes
        self.work = work
        self.cache = work / "cache"
        self.rings = list(rings) if rings else None
        self.corpus = list(corpus or ())
        self.warm = warm
        self.expected = expected
        self._cache_state = None

    def reset_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)

    def setup(self, env: dict) -> tuple[list[float], list[float]]:
        """Run the set-up child SETUP_REPEATS times, each in a new process.

        Returns the wall times and the scaled times.
        """
        fill = self.rings if self.warm else []
        times, scaled = [], []
        for _ in range(SETUP_REPEATS):
            self.reset_cache()
            samples = self.speed.edges()
            start = time.perf_counter()
            # No timeout: Popen.wait(timeout) polls every 50 ms, which would
            # quantize a set-up of a few hundred milliseconds.
            child = subprocess.run(
                [sys.executable, str(HERE / "setup_child.py"), *fill], env=env, check=True, stdout=subprocess.PIPE, text=True
            )
            elapsed = time.perf_counter() - start
            probed = json.loads(child.stdout.splitlines()[-1])
            times.append(elapsed - probed["spent"])
            scaled.append(hostspeed.scale(times[-1], samples + probed["samples"] + self.speed.edges()))
        self._cache_state = self._cache_listing()
        return times, scaled

    def _cache_listing(self) -> list[tuple[str, int, int]]:
        return sorted((p.name, (st := p.stat()).st_ino, st.st_mtime_ns) for p in self.cache.iterdir())

    def run_pass(self, rng: random.Random) -> Pass:
        if self.rings is None:
            return self._verify_pass(rng)
        return self._inspect_pass(rng)

    def _verify_pass(self, rng: random.Random) -> Pass:
        corpus = list(self.corpus)
        rng.shuffle(corpus)
        corpus_file = self.work / "corpus.txt"
        corpus_file.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        elapsed, scaled, code, out = run_cli(self.cli, [*golden.VERIFY_ARGS, "--corpus", str(corpus_file)], self.speed, self.probe)
        view = _parse(out, golden.verify_view) if code == 0 else None
        if self.expected is not None:
            attempted = golden.evaluations(self.expected)
            failed = attempted if view is None else golden.verify_mismatches(self.expected, view)
        else:
            attempted, failed = 1, int(view is None)
        return Pass(elapsed, elapsed, scaled, scaled, attempted, failed, {"verify": view})

    def _inspect_pass(self, rng: random.Random) -> Pass:
        rings = list(self.rings)
        rng.shuffle(rings)
        if not self.warm:
            self.reset_cache()
        times, scaled, failed, views = [], [], 0, {}
        for text in rings:
            elapsed, elapsed_scaled, code, out = run_cli(self.cli, ["inspect", "--json", text], self.speed, self.probe)
            times.append(elapsed)
            scaled.append(elapsed_scaled)
            views[text] = _parse(out, golden.inspect_view) if code == 0 else None
            if views[text] is None or (self.expected is not None and views[text] != self.expected[text]):
                failed += 1
        wrote = False
        if self.warm:
            state = self._cache_listing()
            wrote, self._cache_state = state != self._cache_state, state
        return Pass(sum(times), max(times), sum(scaled), max(scaled), len(rings), failed, views, wrote)


def _parse(out: str, view):
    try:
        return view(json.loads(out))
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def run_traced(bench: Bench, tracer: Tracer, rng: random.Random) -> Pass:
    """One pass with the tracer installed; its per-layer values in ``layers``."""
    tracer.reset()
    tracer.install()
    bench.probe = False  # a probe inside a span would count as its time
    try:
        result = bench.run_pass(rng)
    finally:
        bench.probe = True
        tracer.uninstall()
    result.layers = tracer.metrics(result.seconds)
    return result


def measure(bench: Bench, seconds: float, trace: bool, seed: int) -> tuple[list[Pass], list[Pass]]:
    """Run passes for ``seconds``; with ``trace``, alternate untraced and traced.

    Returns (untraced passes, traced passes); each list has at least one
    pass, the traced one only when tracing.
    """
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            result = run_traced(bench, tracer, rng)
            traced.append(result)
        else:
            result = bench.run_pass(rng)
            plain.append(result)
        kind = "traced " if result.layers else ""
        print(f"perfbench: {kind}pass {result.seconds:.3f} s wall, {result.scaled:.3f} s scaled, {result.failed}/{result.attempted} failed", file=sys.stderr)
    for name in tracer.skipped if tracer else ():
        print(f"perfbench: trace target {name} not found; its metrics read 0", file=sys.stderr)
    return plain, traced


def report(bench: Bench, setup_times: list[float], plain: list[Pass], traced: list[Pass]) -> dict:
    """The result line; ``setup_times`` are the scaled set-up times."""
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    if bench.warm:
        # every lookup of a warm pass must hit the cache the set-up filled
        misses = sum(p.wrote_cache or (p.layers is not None and p.layers["cache.hit_ratio"] != 1) for p in passes)
        if misses:
            print(f"perfbench: {misses} warm pass(es) missed the cache", file=sys.stderr)
            correct = False
    if traced:
        overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in plain)
        metrics = median_metrics([p.layers for p in traced], overhead)
    else:
        metrics = {
            "pass_s": {"value": statistics.median(p.scaled for p in plain), "unit": "s"},
            "ring_max_s": {"value": statistics.median(p.scaled_slowest for p in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringlab" / "cli.py").is_file():
        print(f"perfbench: ringlab sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Isolation: a cache the benchmark owns, the default order cap, and
    # single-threaded BLAS, all set before numpy is first imported.
    os.environ.update({name: "1" for name in THREAD_VARS})
    os.environ["RINGLAB_CACHE"] = str(work / "cache")
    os.environ.pop("RINGLAB_MAX_ORDER", None)
    sys.path.insert(0, str(SRC))
    try:
        spec = WORKLOADS[args.workload]
        expected_verify, expected_inspect = golden.load()
        if spec["rings"] is None:
            bench = Bench(work, None, False, corpus=expected_verify["corpus"], expected=expected_verify)
        else:
            bench = Bench(work, spec["rings"], spec["warm"], expected=expected_inspect)
        setup_wall, setup_scaled = bench.setup(dict(os.environ))
        plain, traced = measure(bench, args.seconds, bool(args.trace), args.seed)
        result = report(bench, setup_scaled, plain, traced)
        wall = {
            "pass_s": statistics.median(p.seconds for p in plain),
            "ring_max_s": statistics.median(p.slowest for p in plain),
            "setup_s": statistics.median(setup_wall),
        }
        print(f"perfbench: unscaled wall times {json.dumps(wall)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
