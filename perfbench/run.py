"""Layered benchmark of traversale, end to end and per layer.

    python3 perfbench/run.py --workload constructions --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
One caller in one thread runs a closed loop: the next task starts when the
previous one has returned.  The workloads and their metrics are described
in ``BENCHMARK.json`` and ``perfbench/README.md``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the same loop untraced for half the time and traced for
the other half, reports the per-layer metrics, and writes every span to
``.perfbench-out/trace-<workload>.jsonl.gz``.

Times are calibrated to machine speed: a fixed probe of stdlib exact
arithmetic runs between timing segments (one task, or one verify suite),
and each segment's time is scaled by ``PROBE_NOMINAL_S / probe time``
around it.  Raw times are printed too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched; a checkout without ``src/traversale`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Calibrated seconds are seconds on a machine where SpeedProbe() takes this
# long: about its time on an idle 2-vCPU x86-64 VM with Python 3.11 (it took
# 2.0 to 2.2 ms there when idle and 3.2 to 3.4 ms when the host was busy).
PROBE_NOMINAL_S = 0.002

SETUP_SPAWNS = 9
_SETUP_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import traversale.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = traversale.cli.main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"])
elapsed = time.perf_counter() - start
print(elapsed, code, out.getvalue().strip(), sep="\\t")
"""


class SpeedProbe:
    """A fixed mix of small-integer Fraction work and bigint gcds, no traversale.

    The machine this runs on changes speed by up to 2x over minutes; the
    probe's time tracks that, so dividing by it removes most of the drift.
    """

    def __init__(self):
        rng = random.Random("perfbench speed probe")
        self.small = [tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)) for _ in range(80)]
        self.big = [rng.getrandbits(1024) | 1 for _ in range(40)]

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = Fraction(0)
        for m in self.small:
            p = [[sum(m[i][k] * m[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            g = math.gcd(*(x for row in p for x in row)) or 1
            for row in p:
                acc += Fraction(row[0] // g - row[2], (row[1] // g) or 1)
        for x, y in zip(self.big, self.big[1:]):
            math.gcd(x * y + 1, y * y)
        return time.perf_counter() - start


def measure_setup(env, probe) -> tuple[float, list[str]]:
    """Median calibrated time to import traversale.cli and answer one polar call.

    Timed inside fresh interpreters, so interpreter start-up is excluded.
    The first spawn only warms the bytecode cache and is not counted.
    """
    times, problems = [], []
    for i in range(SETUP_SPAWNS + 1):
        before = probe()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
        )
        scale = PROBE_NOMINAL_S / ((before + probe()) / 2)
        fields = proc.stdout.strip().split("\t")
        if proc.returncode != 0 or fields[1:] != ["0", "[1, 0, -1/2]"]:
            problems.append(f"setup spawn: exit {proc.returncode}, stdout {proc.stdout!r}, stderr {proc.stderr[-300:]!r}")
        elif i > 0:
            times.append(float(fields[0]) * scale)
    return (statistics.median(times) if times else float("nan")), problems


class Stopwatch:
    """Times a chunk in segments and calibrates each segment by machine speed.

    The speed probe runs outside the timed region after every segment; a
    segment's factor is PROBE_NOMINAL_S over the mean of the probes taken
    just before and just after it.
    """

    def __init__(self, tally, probe):
        self.tally = tally
        self.probe = probe
        self.before = probe()

    def start(self):
        self.wall = self.scaled = 0.0
        self._open()

    def _open(self):
        self.first_sample = len(self.tally.latencies_ms)
        self.started = time.perf_counter()

    def lap(self):
        """Close the current segment and open the next one."""
        wall = time.perf_counter() - self.started
        after = self.probe()
        scale = PROBE_NOMINAL_S / ((self.before + after) / 2)
        self.tally.add_segment(self.first_sample, scale, after)
        self.wall += wall
        self.scaled += wall * scale
        self.before = after
        self._open()


def measure(workload, seconds, tracer, first_chunk, tally, probe):
    """Run chunks of the workload until ``seconds`` have passed (at least one).

    The workload calls ``lap()`` between the segments of a chunk; the end of
    the chunk closes its last segment.
    """
    undo = workload.instrument(tracer) if tracer.enabled else []
    watch = Stopwatch(tally, probe)
    chunk = first_chunk
    deadline = time.perf_counter() + seconds
    try:
        while chunk == first_chunk or time.perf_counter() < deadline:
            inputs = workload.prepare(chunk)
            tasks = tally.tasks
            watch.start()
            outputs = workload.run(inputs, tracer, tally, watch.lap)
            watch.lap()
            workload.check(inputs, outputs, tally)
            tally.add_chunk(watch.wall, watch.scaled, tally.tasks - tasks)
            chunk += 1
    finally:
        for fn in undo:
            fn()
    return chunk


def _quantile(values, q):
    """Inclusive quantile: q = 0.5 is the median, q = 0.9 the 90th percentile."""
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1] if len(values) > 1 else values[0]


def end_to_end(tally, setup_s):
    latencies = tally.scaled_latencies()
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(tally.scaled),
        "tasks_per_s": statistics.median(n / w for n, w in zip(tally.chunk_tasks, tally.scaled)),
        "task_p50_ms": _quantile(latencies, 0.5),
        "task_p90_ms": _quantile(latencies, 0.9),
        "success_ratio": 1 - tally.failed / max(tally.tasks, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


_SPAN_UNITS = {"_us": 1e-3, "_ms": 1e-6, "_s": 1e-9}  # nanoseconds -> unit
_CHAIN = re.compile(r"chain\.k(\d+)\.(max_coeff_bits|task_p50_ms)$")
_MEDIAN_COUNTS = ("verify.cases_checked", "scene.commands", "render.polyline_points", "render.svg_bytes")


def per_layer(name, tracer, durations, tally, plain):
    """One per-layer metric; 0 when the workload never calls that layer."""
    counts = tracer.counts.get(name)
    scale = statistics.median(tally.scales)
    if name == "trace.overhead_ratio":
        return statistics.median(tally.scaled) / statistics.median(plain.scaled)
    if name == "bench.raw_wall_s":
        return statistics.median(plain.walls)
    if name == "bench.speed_probe_ms":
        return statistics.median(plain.probes) * 1e3
    if name == "synthetic.build_ratio":
        return tally.tasks / tally.draws if tally.draws else 0.0
    if name in ("conic.max_coeff_bits", "projective.max_coeff_bits"):
        return max(counts) if counts else 0
    if name in _MEDIAN_COUNTS:
        return statistics.median(counts) if counts else 0
    chain = _CHAIN.match(name)
    if chain:
        bits, times = tally.growth().get(int(chain.group(1)), ([], []))
        values = bits if chain.group(2) == "max_coeff_bits" else times
        return statistics.median(values) if values else 0
    for suffix, unit in _SPAN_UNITS.items():
        if name.endswith(suffix):
            spans = durations.get(name[: -len(suffix)])
            return statistics.median(spans[0]) * unit * scale if spans else 0.0
    raise KeyError(f"no rule computes the per-layer metric {name!r}")


def _print_summary(args, tally, values, units, raw=None):
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {tally.tasks} tasks in {len(tally.walls)} chunks, "
          f"{len(tally.latencies_ms)} latency samples, {tally.failed} failed, {tally.draws} draws")
    for name, value in values.items():
        extra = f"   raw {raw[name]:.6g}" if raw and name in raw else ""
        print(f"#   {name:42s} {value:>16.6g} {units[name]}{extra}")
    print(f"#   error_rate {tally.failed / max(tally.tasks, 1):.6g} ratio")


def _print_growth(tally):
    growth = tally.growth()
    if len(growth) > 1:
        print("# coefficient growth: k, median conic max_coeff_bits, median task ms")
        for k, (bits, times) in growth.items():
            print(f"#   {k:4d} {statistics.median(bits):8.0f} {statistics.median(times):10.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the seed reaches the program only as generated inputs
    os.environ.pop("DESARGUES_SEED", None)
    if not os.path.isfile(os.path.join(SRC, "traversale", "__init__.py")):
        print(f"error: no traversale sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    sys.path.insert(0, SRC)
    import traversale
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Tally

    if not os.path.abspath(traversale.__file__).startswith(SRC + os.sep):
        print(f"error: traversale imported from {traversale.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    probe = SpeedProbe()
    problems: list[str] = []
    plain = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        if args.trace == 0:
            setup_s, problems = measure_setup(dict(os.environ), probe)
            measure(workload, args.seconds, NullTracer(), 0, plain, probe)
            tally, metrics = plain, spec["end_to_end"]
            values = end_to_end(plain, setup_s)
            raw = {"wall_s": statistics.median(plain.walls), "task_p50_ms": _quantile(plain.latencies_ms, 0.5),
                   "task_p90_ms": _quantile(plain.latencies_ms, 0.9)}
            _print_summary(args, plain, values, {m["name"]: m["unit"] for m in metrics}, raw)
        else:
            next_chunk = measure(workload, args.seconds / 2, NullTracer(), 0, plain, probe)
            tracer, tally, metrics = Tracer(), Tally(), spec["per_layer"]
            measure(workload, args.seconds / 2, tracer, next_chunk, tally, probe)
            durations = tracer.durations()
            values = {m["name"]: per_layer(m["name"], tracer, durations, tally, plain) for m in metrics}
            _print_summary(args, tally, values, {m["name"]: m["unit"] for m in metrics})
            print("# spans (raw): name, calls, median inclusive us, total self ms")
            for name, row in tracer.summary().items():
                print(f"#   {name:36s} {row['calls']:8d} {row['median_ns'] / 1e3:12.2f} {row['self_total_ns'] / 1e6:12.2f}")
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}.jsonl.gz"),
                         {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                          "speed_scale": statistics.median(tally.scales)})
            tally.merge_outcomes(plain)
        _print_growth(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # each setup spawn's answer is checked too, so it counts as attempted
    attempted = tally.tasks + (SETUP_SPAWNS + 1 if args.trace == 0 else 0)
    failed = tally.failed + len(problems)
    for problem in (problems + tally.failures)[:10]:
        print(f"mismatch: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
