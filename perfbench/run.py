"""Benchmark of polydc's library API: three seeded batch workloads.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `decompose` (solution_structure),
`dca_dual` (four DCA runs, is_critical at fixed points and
toland_singer_check per problem) and `classify_points` (classify at each
1/8 grid point of C).  The program is imported from `src/` next to this
directory; the run fails with exit code 2 if it is not there.

Every run is a closed loop with one caller in one thread: each op starts
when the previous one returns.  Ops repeat in passes over the workload's
batch until `--seconds` have passed, and the first pass always completes.
Every op's output is checked against the recorded reference and against
reference-free invariants; an op that raises or fails a check counts as
failed.

Times are CPU seconds scaled to a reference machine speed (see
REFERENCE_PROBE_S).  Latency metrics start from each op's median over its
repeats; `op_p50_ms` and `op_tail_ms` are Harrell-Davis estimates of the
median and of the highest percentile with ten ops beyond it, and
`ops_per_s` is the number of ops over the sum of their medians.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
pass, then whole traced passes with spans around the public functions of
each layer (spans.py), and prints the per-layer metrics: counts and
seconds are per traced pass, except `cli.*`, which cover the one set-up.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it, {"report": ...}, holds the run environment, the
failed ratio, the tail percentile with its sample count, ratio bases,
failure messages and layers that saw no calls.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the default seed, and a held-out seed for confirming a claimed gain on
# inputs it was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 5

# Every time reported is CPU time of this process, scaled to a reference
# machine speed.  On a shared machine the speed of a CPU drifts by tens of
# percent within seconds, in time stolen by other tenants and in time the
# process does get, and it can switch between a fast and a slow mode
# within a second.  A fixed exact-rational probe that uses no polydc code
# runs between ops whenever PROBE_EVERY_S of CPU time has passed, and each
# time is multiplied by REFERENCE_PROBE_S / (mean of the two probes that
# bracket it).
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.003

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# layers each workload is meant to load; zero calls there are flagged
EXPECTED_LAYERS = {
    "decompose": (
        "exactlp.lp_solve",
        "exactlp.lp_feasible",
        "exactlp.max_slack",
        "structure.solution_structure",
        "structure.global_solutions",
        "structure.local_pieces",
        "structure.components",
        "structure.pieces_adjacent",
    ),
    "dca_dual": (
        "exactlp.lp_solve",
        "model.MaxAffine.conjugate_value",
        "optimality.is_critical",
        "dca.run",
        "dca.solve_subproblem",
        "duality.dual_objective",
        "duality.toland_singer_check",
    ),
    "classify_points": (
        "exactlp.lp_solve",
        "exactlp.lp_feasible",
        "model.PolyhedralSet.normal_cone",
        "model.ConvexBody.issubset",
        "model.ConvexBody.intersection_witness",
        "model.MaxAffine.subdifferential",
        "optimality.classify",
        "optimality.is_critical",
        "optimality.is_stationary",
    ),
}
SETUP_LAYERS = ("cli.parse_problem", "cli.serialize_problem")


class ProgramMissing(Exception):
    pass


def import_program():
    """A fresh import of polydc from SRC, never from anywhere else."""
    package = SRC / "polydc"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no polydc package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "polydc" or k.startswith("polydc.")]:
        del sys.modules[key]
    P = importlib.import_module("polydc")
    if Path(P.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"polydc was imported from {P.__file__}, not {package}")
    return P


def load_checker(P, workload):
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    return workloads.checker(P, workload, reference)


def probe() -> float:
    """CPU seconds of a fixed exact-rational Gauss-Jordan elimination, the
    kind of work an LP pivot does, on a fixed 8 x 9 matrix."""
    t0 = time.process_time()
    n = 8
    rows = [
        [Fraction((3 * i + 7 * j) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(n + 1)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return time.process_time() - t0


class Meter:
    """Probes the machine's speed between ops; see PROBE_EVERY_S."""

    def __init__(self):
        self.probes: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Probe if one is due; the index of the latest probe."""
        if time.process_time() >= self._due:
            self.probes.append(probe())
            self._due = time.process_time() + PROBE_EVERY_S
        return len(self.probes) - 1

    def scale(self, index=None) -> float:
        """The factor for times near probe `index`, or for the whole run."""
        if index is None:
            return REFERENCE_PROBE_S / statistics.median(self.probes)
        return REFERENCE_PROBE_S / statistics.mean(self.probes[index : index + 2])

    def per_op(self, samples, n_ops: int) -> list[list[float]]:
        """Scaled seconds of each of `n_ops` ops from `samples`, the (CPU
        seconds, probe index) pairs of ops run in turn."""
        factors = {}
        per_op = [[] for _ in range(n_ops)]
        for i, (cpu, index) in enumerate(zip(*samples)):
            if index not in factors:
                factors[index] = self.scale(index)
            per_op[i % n_ops].append(cpu * factors[index])
        return per_op


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def run_ops(P, workload, ops, check, deadline, tally, meter, whole_passes):
    """Run passes over `ops` until `deadline` (a perf_counter value).

    The first pass always completes; later passes stop at the deadline
    unless `whole_passes`.  Returns the samples -- CPU seconds and probe
    index of each op run, in order, kept in flat arrays so that their
    memory barely grows with the run -- and the number of whole passes.
    """
    cpu, probe_at = array("d"), array("l")
    clock = time.process_time
    passes = 0
    while True:
        for op in ops:
            if passes and not whole_passes and time.perf_counter() >= deadline:
                return (cpu, probe_at), passes
            index = meter.tick()
            t0 = clock()
            try:
                out = workload.call(P, op)
            except Exception as exc:  # an op that raises counts as failed
                cpu.append(clock() - t0)
                errors = [f"problem {op.problem} part {op.part}: {exc!r}"]
            else:
                cpu.append(clock() - t0)
                errors = check(op, out)
            probe_at.append(index)
            tally.attempted += 1
            if errors:
                tally.failed += 1
                if len(tally.messages) < 10:
                    tally.messages.append(errors[0])
        passes += 1
        if time.perf_counter() >= deadline:
            return (cpu, probe_at), passes


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted `values`.

    A Beta-weighted mean of all order statistics: with a few dozen ops of
    widely different cost, a single order statistic jumps between
    neighbours that lie far apart, and this estimate does not.
    """
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))

    steps = 8  # trapezoid steps per order statistic's interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density((i * steps + k) * h) for k in range(steps + 1)]
        weights.append(h * (sum(ys) - (ys[0] + ys[-1]) / 2))
    return sum(w * x for w, x in zip(weights, values)) / sum(weights)


def latency_summary(latencies) -> dict:
    """From per-op medians: throughput of one pass, median and tail latency.

    The tail is taken at the highest percentile with at least ten ops
    beyond it.
    """
    per_op = sorted(statistics.median(samples) for samples in latencies)
    n = len(per_op)
    tail = max(n - 10, 1) / n
    return {
        "ops_per_s": n / sum(per_op),
        "op_p50_ms": 1000 * harrell_davis(per_op, 0.5),
        "op_tail_ms": 1000 * harrell_davis(per_op, tail),
        "tail_percentile": 100 * tail,
        "samples": n,
        "repeats_per_op": statistics.median(len(s) for s in latencies),
    }


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "polydc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _commit():
    """HEAD's commit when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(workload, seed, seconds, limit=None):
    """End-to-end metrics, tracing off."""
    meter = Meter()
    setup = (array("d"), array("l"))
    for _ in range(SETUP_REPEATS):
        setup[1].append(meter.tick())
        t0 = time.process_time()
        P = import_program()
        batch = workloads.set_up(P, workload, seed, limit)
        setup[0].append(time.process_time() - t0)
    check = load_checker(P, workload)
    gc.collect()
    gc.freeze()
    tally = Tally(messages=list(batch.errors))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    samples, passes = run_ops(
        P, workload, batch.ops, check, wall0 + seconds, tally, meter, whole_passes=False
    )
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = latency_summary(meter.per_op(samples, len(batch.ops)))
    metrics = {name: summary[name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = statistics.median(meter.per_op(setup, 1)[0])
    report = {
        "cpu_scale": meter.scale(),
        "probes": len(meter.probes),
        "loop_wall_s": wall_s,
        "loop_cpu_s": cpu_s,
        "whole_passes": passes,
        "ops_per_pass": len(batch.ops),
        "op_tail_percentile": summary["tail_percentile"],
        "latency_samples": summary["samples"],
        "repeats_per_op": summary["repeats_per_op"],
        "setup_repeats": SETUP_REPEATS,
    }
    return metrics, END_TO_END, tally, report


def _ratio(numerator, base):
    return numerator / base if base else 0.0


def layer_metrics(layers, setup_layers, passes, busy_s, overhead_ratio):
    """Per-layer metrics, with the base of each ratio."""
    per = lambda value: value / passes  # noqa: E731
    lp = layers["exactlp.lp_solve"]
    pieces = layers["structure.local_pieces"]
    sub = layers["dca.solve_subproblem"]
    values = {
        "exactlp.lp_solve.calls": (per(lp["calls"]), "count"),
        "exactlp.lp_solve.self_s": (per(lp["self_s"]), "s"),
        "exactlp.lp_solve.share": (_ratio(lp["self_s"], busy_s), "ratio"),
        "exactlp.lp_solve.rows_mean": (_ratio(lp.get("rows", 0), lp["calls"]), "rows"),
        "exactlp.lp_solve.rows_max": (lp.get("rows_max", 0), "rows"),
        "exactlp.lp_solve.dim_max": (lp.get("dim_max", 0), "cols"),
        "exactlp.lp_solve.infeasible_ratio": (
            _ratio(lp.get("infeasible", 0), lp["calls"]),
            "ratio",
        ),
        "exactlp.lp_solve.bits_max": (lp.get("bits_max", 0), "bits"),
        "exactlp.max_slack.calls": (per(layers["exactlp.max_slack"]["calls"]), "count"),
        "exactlp.max_slack.self_s": (per(layers["exactlp.max_slack"]["self_s"]), "s"),
        "exactlp.lp_feasible.calls": (per(layers["exactlp.lp_feasible"]["calls"]), "count"),
        "structure.local_pieces.self_s": (per(pieces["self_s"]), "s"),
        "structure.local_pieces.lp_calls": (per(pieces["lp_calls"]), "count"),
        "structure.local_pieces.kept_ratio": (
            _ratio(pieces.get("kept", 0), pieces.get("tried", 0)),
            "ratio",
        ),
        "structure.local_pieces.lp_per_piece": (
            _ratio(pieces["lp_calls"], pieces.get("kept", 0)),
            "count",
        ),
        "dca.solve_subproblem.calls": (per(sub["calls"]), "count"),
        "dca.solve_subproblem.self_s": (per(sub["self_s"]), "s"),
        "dca.solve_subproblem.lp_per_call": (_ratio(sub["lp_calls"], sub["calls"]), "count"),
        "dca.run.iterations": (per(layers["dca.run"].get("iterations", 0)), "count"),
        "structure.pieces_adjacent.calls": (
            per(layers["structure.pieces_adjacent"]["calls"]),
            "count",
        ),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for name in (
        "structure.global_solutions",
        "structure.components",
        "model.MaxAffine.conjugate_value",
        "duality.toland_singer_check",
        "duality.dual_objective",
        "model.ConvexBody.issubset",
        "model.ConvexBody.intersection_witness",
        "model.MaxAffine.subdifferential",
        "model.PolyhedralSet.normal_cone",
        "optimality.is_critical",
        "optimality.is_stationary",
        "optimality.classify",
    ):
        values[f"{name}.self_s"] = (per(layers[name]["self_s"]), "s")
    for name in ("model.MaxAffine.conjugate_value", "duality.dual_objective"):
        values[f"{name}.calls"] = (per(layers[name]["calls"]), "count")
    for name in SETUP_LAYERS:
        values[f"{name}.self_s"] = (setup_layers[name]["self_s"], "s")
    bases = {
        "exactlp.lp_solve.share": {"busy_s_all_traced_passes": busy_s},
        "exactlp.lp_solve.rows_mean": {"lp_calls": lp["calls"]},
        "exactlp.lp_solve.infeasible_ratio": {"lp_calls": lp["calls"]},
        "structure.local_pieces.kept_ratio": {"subsets_tried": pieces.get("tried", 0)},
        "structure.local_pieces.lp_per_piece": {"pieces_kept": pieces.get("kept", 0)},
        "dca.solve_subproblem.lp_per_call": {"calls": sub["calls"]},
    }
    metrics = {name: value for name, (value, _) in values.items()}
    units = {name: unit for name, (_, unit) in values.items()}
    return metrics, units, bases


def traced_run(workload, seed, seconds, limit=None):
    """Per-layer metrics: one untraced pass, then whole traced passes."""
    P = import_program()
    tracer = spans.Tracer()
    tracer.install()
    batch = workloads.set_up(P, workload, seed, limit)
    tracer.uninstall()
    setup_spans = len(tracer)
    check = load_checker(P, workload)
    gc.collect()
    gc.freeze()
    tally = Tally(messages=list(batch.errors))
    meter = Meter()
    deadline = time.perf_counter() + seconds
    untraced, _ = run_ops(
        P, workload, batch.ops, check, 0.0, tally, meter, whole_passes=True
    )
    untraced_s = sum(map(sum, meter.per_op(untraced, len(batch.ops))))
    tracer.install()
    try:
        traced, passes = run_ops(
            P, workload, batch.ops, check, deadline, tally, meter, whole_passes=True
        )
    finally:
        tracer.uninstall()
    traced_s = sum(map(sum, meter.per_op(traced, len(batch.ops))))
    scale = meter.scale()
    busy_s = scale * sum(traced[0])  # on the spans' scale, as the share's base
    layers = tracer.aggregate(setup_spans, len(tracer), scale)
    setup_layers = tracer.aggregate(0, setup_spans, scale)
    metrics, units, bases = layer_metrics(
        layers, setup_layers, passes, busy_s, (traced_s / passes) / untraced_s
    )
    unloaded = [
        name for name in EXPECTED_LAYERS[workload.name] if layers[name]["calls"] == 0
    ] + [name for name in SETUP_LAYERS if setup_layers[name]["calls"] == 0]
    for name in unloaded:
        print(f"warning: layer {name} saw no calls on {workload.name}", file=sys.stderr)
    report = {
        "traced_passes": passes,
        "ops_per_pass": len(batch.ops),
        "spans": len(tracer),
        "cpu_scale": scale,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s / passes,
        "ratio_bases": bases,
        "unloaded_layers": unloaded,
        "layers": {name: layer for name, layer in layers.items() if layer["calls"]},
    }
    return metrics, units, tally, report


def run_benchmark(name, seed, seconds, trace, limit=None):
    """(result, report) for one run; `limit` keeps a prefix of the pool."""
    workload = workloads.WORKLOADS[name]
    run = traced_run if trace else timed_run
    metrics, units, tally, report = run(workload, seed, seconds, limit)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.messages,
        **report,
    }
    result = {
        "correct": tally.failed == 0 and not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
