"""Benchmark ordspace on one seeded workload and print its metrics.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 26 --trace 0

Run it from anywhere inside a checkout: it imports the program from the
checkout's ``src/`` and nothing else.  It repeats whole passes over the
workload's inputs, one operation at a time, for about ``--seconds``.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
Their times are CPU times: of this process and of the command subprocesses
it waits for.  On a shared virtual machine wall time also holds the time the
hypervisor gives the CPU to other guests (steal), which comes in bursts that
can stretch a second of wall time by 1.7x; CPU time leaves it out.  The
report prints the wall-time figures next to them, and the run record keeps
both.
``--trace 1`` is the separate traced run: it alternates untraced and traced
passes, takes the tracing overhead from their difference, re-times single
layer functions on what the traced passes saw, and derives the per-layer
metrics from the spans.  Metrics that the workload's own calls do not
produce come from a short traced sweep of the other workloads at tiny size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Each run writes its record to ``perfbench/out/runs/``
and a traced run writes its spans to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns, process_time_ns

from tracing import LAYERS, UNTRACED, Tracer, layer_of

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9

# Per-operation tail percentile, per workload.  Each is the highest one
# with at least ten samples beyond it at the sample counts of a 26 s run,
# except extract, whose ~20 certificates per run cannot support a tail by
# that rule: its p90 lies inside the slowest instance of every set.
TAIL = {"fuzz": 99, "wide": 80, "extract": 90, "cli": 90}

# Workload-specific names under which the report also prints the generic
# end-to-end metrics.
ALIASES = {
    "fuzz": {"ops_per_cpu_s": "trials_per_s", "op_cpu_p50_ms": "trial_p50_ms", "op_cpu_tail_ms": "trial_p99_ms"},
    "wide": {"op_cpu_p50_ms": "wide_op_p50_ms", "op_cpu_tail_ms": "wide_op_p80_ms"},
    "extract": {"pass_cpu_s": "extract_s"},
    "cli": {"op_cpu_p50_ms": "cli_p50_ms", "op_cpu_tail_ms": "cli_p90_ms"},
}

# per-layer metric -> (span or count name, statistic)
#   median: median span duration; per_item: median of duration / items;
#   mean: mean of the counts recorded under that name.
LAYER_SOURCES = {
    "ordinal.construct_ns": ("ordinal.construct", "per_item"),
    "ordinal.compare_ns": ("ordinal.compare", "per_item"),
    "ordinal.add_ns": ("ordinal.add", "per_item"),
    "ordinal.terms_per_point": ("ordinal.terms_per_point", "mean"),
    "topology.cb_index_us": ("topology.cb_index", "median"),
    "topology.normalize_ms": ("topology.normalize", "median"),
    "topology.critical_atoms": ("topology.critical_atoms", "mean"),
    "topology.finite_points_ms": ("topology.finite_points", "median"),
    "topology.critical_points": ("topology.critical_points", "mean"),
    "topology.iterated_derivative_us": ("topology.iterated_derivative", "median"),
    "grasberg.random_step_function_ms": ("grasberg.random_step_function", "median"),
    "grasberg.check_king_ms": ("grasberg.check_king", "median"),
    "grasberg.check_queen_ms": ("grasberg.check_queen", "median"),
    "grasberg.phi_ms": ("grasberg.phi", "median"),
    "grasberg.grasberg_norm_ms": ("grasberg.grasberg_norm", "median"),
    "grasberg.sup_on_us": ("grasberg.sup_on", "median"),
    "grasberg.step_add_ms": ("grasberg.step_add", "median"),
    "grasberg.pieces": ("grasberg.pieces", "mean"),
    "grasberg.witness_ms": ("grasberg.witness", "median"),
    "trees.family_at_us": ("trees.family_at", "median"),
    "trees.facts_ms": ("trees.facts", "median"),
    "trees.nodes": ("trees.nodes", "mean"),
    "szlenk.extract_s": ("szlenk.extract", "median"),
    "szlenk.verify_ms": ("szlenk.verify", "median"),
    "szlenk.stages": ("szlenk.stages", "mean"),
    "szlenk.probes": ("szlenk.probes", "mean"),
    "cli.interpreter_ms": ("cli.interpreter", "median"),
    "cli.run_ms": ("cli.run", "median"),
}

NS_PER = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def cpu_ns() -> int:
    """CPU time, user and system, of this process and of the children it has
    waited for: the clock of the end-to-end metrics."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def load_program() -> None:
    """Put the checkout's src/ first on the path and import the program from it."""
    src = ROOT / "src"
    if not (src / "ordspace" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {src / 'ordspace'} is missing")
    sys.path.insert(0, str(src))
    import ordspace

    if Path(ordspace.__file__).resolve().parent != (src / "ordspace").resolve():
        raise SystemExit(f"error: imported ordspace from {ordspace.__file__}, not from {src}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return quantiles(values, n=100, method="inclusive")[p - 1]


def run_passes(workload, tracer, seconds: float, traced: bool, setups=None) -> dict:
    """Whole passes for about `seconds`: a round of passes starts only while
    it should end less than half a round past `seconds`.  Traced runs
    alternate an untraced and a traced pass in each round.  Every failure is
    counted, none stops the run.
    Before each pass, `setups` (a SetupTimer) may time set-ups; the time they
    take does not count towards `seconds`."""
    modes = (UNTRACED, tracer) if traced else (UNTRACED,)
    result = {
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "op_ns": [],
        "op_cpu_ns": [],
        "pass_ns": {0: [], 1: []},
        "pass_cpu_ns": [],
        "pass_sizes": [],
        "layer_ns": [],
    }
    start = perf_counter()
    paused = 0.0
    index = rounds = 0
    while rounds == 0 or (perf_counter() - start - paused) * (1 + 0.5 / rounds) < seconds:
        if setups is not None and rounds:
            pause = perf_counter()
            setups.keep_pace((pause - start - paused) / seconds)
            paused += perf_counter() - pause
        rounds += 1
        for t in modes:
            items = workload.pass_inputs(index)
            index += 1
            first_span = len(tracer.spans) if t.enabled else 0
            pass_cpu = cpu_ns()
            pass_start = perf_counter_ns()
            for item in items:
                op_cpu = cpu_ns()
                op_start = perf_counter_ns()
                try:
                    if t.enabled:
                        tracer.op += 1
                        t.call(f"bench.{workload.name}", workload.op, item, t)
                    else:
                        workload.op(item, t)
                except Exception as exc:  # counted as a failed operation; the run goes on
                    result["failed"] += 1
                    if len(result["errors"]) < 5:
                        result["errors"].append(f"{type(exc).__name__}: {exc}")
                        traceback.print_exc(file=sys.stderr)
                result["attempted"] += 1
                if not t.enabled:
                    result["op_ns"].append(perf_counter_ns() - op_start)
                    result["op_cpu_ns"].append(cpu_ns() - op_cpu)
            result["pass_ns"][int(t.enabled)].append(perf_counter_ns() - pass_start)
            if t.enabled:
                self_ns = tracer.self_times(first_span)
                result["layer_ns"].append(sum(ns for name, ns in self_ns if layer_of(name) in LAYERS))
            else:
                result["pass_cpu_ns"].append(cpu_ns() - pass_cpu)
                result["pass_sizes"].append(len(items))
    return result


def sweep(tracer, skip: str, seed: int, counts: dict) -> None:
    """Traced passes and probes of the other workloads at tiny size, so that
    every per-layer metric has spans in every traced run."""
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        if name == skip:
            continue
        tracer.source = name
        other = cls(seed, True, ROOT)
        try:
            for item in other.pass_inputs(0):
                tracer.op += 1
                counts["attempted"] += 1
                try:
                    tracer.call(f"bench.{name}", other.op, item, tracer)
                except Exception as exc:  # counted as a failed operation; the run goes on
                    counts["failed"] += 1
                    counts["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
            other.probes(tracer)
        finally:
            other.close()


def layer_metrics(tracer, own: str, result: dict, spec: dict) -> dict:
    """Per-layer metrics from the spans and counts, preferring those the
    workload's own calls made over those of the sweep."""
    durations: dict[str, dict[str, list]] = {}
    for name, start, end, _, _, source, items in tracer.spans:
        durations.setdefault(name, {}).setdefault(source, []).append((end - start, items))
    counts: dict[str, dict[str, list]] = {}
    for name, value, source in tracer.counts:
        counts.setdefault(name, {}).setdefault(source, []).append(value)

    def pick(table, name):
        by_source = table.get(name)
        if not by_source:
            raise RuntimeError(f"no spans or counts named {name}")
        if own in by_source:
            return by_source[own]
        return [x for values in by_source.values() for x in values]

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = {}
    for metric, (name, statistic) in LAYER_SOURCES.items():
        if statistic == "mean":
            found = pick(counts, name)
            values[metric] = sum(found) / len(found)
        else:
            found = pick(durations, name)
            ns = median(d / items for d, items in found) if statistic == "per_item" else median(d for d, _ in found)
            values[metric] = ns / NS_PER[units[metric]]
    values["szlenk.probe_hit_ratio"] = sum(pick(counts, "szlenk.stages")) / sum(pick(counts, "szlenk.probes"))
    values["cli.import_ms"] = (
        median(d for d, _ in pick(durations, "cli.import")) - median(d for d, _ in pick(durations, "cli.interpreter"))
    ) / 1e6
    untraced, traced = median(result["pass_ns"][0]), median(result["pass_ns"][1])
    values["trace.overhead_ms"] = (traced - untraced) / 1e6
    values["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    values["trace.accounted_pct"] = 100 * median(result["layer_ns"]) / untraced
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")
    return values


class SetupTimer:
    """Set-up timed in fresh processes, spread over the run so that the
    median sees the same stretch of host time as the passes do.

    Each process reports its own CPU time at the end of set-up; that clock
    counts from the start of the process, so it takes in interpreter
    start-up.  Wall time from spawning to that report is kept as well.
    """

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
        if tiny:
            self.argv.append("--tiny")
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.children_peak_kb = 0

    def keep_pace(self, fraction: float) -> None:
        """Time set-ups until `fraction` of them are done."""
        while len(self.cpu) < SETUP_REPEATS * min(fraction, 1):
            self.once()

    def finish(self) -> tuple[float, float]:
        """Median CPU time and median wall time of all set-ups, in seconds."""
        self.keep_pace(1)
        return median(self.cpu), median(self.wall)

    def once(self) -> None:
        if not self.cpu:  # the peak of the workload's own children, before any set-up process
            self.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        start = perf_counter()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            self.wall.append(perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, _, ns = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        self.cpu.append(int(ns) / 1e9)


def op_metrics(op_ns: list, pass_ns: list, pass_sizes: list, tail: int) -> dict:
    """Per-operation median and tail; rate and pass time over all the passes
    of the run, so that they average the host's speed over the whole run
    rather than take the middle of a few passes."""
    tail_ns = percentile(op_ns, tail)
    return {
        "ops_per_s": sum(pass_sizes) / (sum(pass_ns) / 1e9),
        "op_p50_ms": median(op_ns) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "pass_s": sum(pass_ns) / len(pass_ns) / 1e9,
        "beyond_tail": sum(1 for x in op_ns if x > tail_ns),
    }


def end_to_end_metrics(name: str, result: dict, setups: SetupTimer) -> tuple[dict, dict]:
    """The metrics from CPU time; the same figures from wall time go to the
    record and the report."""
    setup_cpu, setup_wall = setups.finish()
    if name == "cli":  # every pass runs every command, and one pass ends before the first set-up
        peak_kb = setups.children_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = TAIL[name]
    cpu = op_metrics(result["op_cpu_ns"], result["pass_cpu_ns"], result["pass_sizes"], tail)
    wall = op_metrics(result["op_ns"], result["pass_ns"][0], result["pass_sizes"], tail)
    values = {
        "ops_per_cpu_s": cpu["ops_per_s"],
        "op_cpu_p50_ms": cpu["op_p50_ms"],
        "op_cpu_tail_ms": cpu["op_tail_ms"],
        "pass_cpu_s": cpu["pass_s"],
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_cpu,
    }
    wall_values = {
        "ops_per_s": wall["ops_per_s"],
        "op_p50_ms": wall["op_p50_ms"],
        "op_tail_ms": wall["op_tail_ms"],
        "pass_s": wall["pass_s"],
        "setup_s": setup_wall,
    }
    info = {
        "tail_percentile": tail,
        "op_samples": len(result["op_cpu_ns"]),
        "samples_beyond_tail": cpu["beyond_tail"],
        "passes": len(result["pass_cpu_ns"]),
        "pass_cpu_s": [ns / 1e9 for ns in result["pass_cpu_ns"]],
        "pass_wall_s": [ns / 1e9 for ns in result["pass_ns"][0]],
        "wall": wall_values,
    }
    return values, info


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fuzz", "wide", "extract", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny, ROOT)
    gc.collect()  # set-up garbage is collected in set-up, not in the first timed pass
    if args.setup_only:
        print(f"ready {cpu_ns()}", flush=True)
        workload.close()
        return 0
    tracer = Tracer()
    tracer.source = args.workload
    try:
        setups = None if args.trace else SetupTimer(args.workload, args.seed, args.tiny)
        result = run_passes(workload, tracer, args.seconds, bool(args.trace), setups)
        if args.trace:
            workload.probes(tracer)
    finally:
        workload.close()

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    info = {"passes": len(result["pass_ns"][0]) + len(result["pass_ns"][1])}
    if args.trace:
        sweep(tracer, args.workload, args.seed, result)
        values = layer_metrics(tracer, args.workload, result, spec)
    else:
        values, info = end_to_end_metrics(args.workload, result, setups)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    attempted, failed = result["attempted"], result["failed"]
    fail_ratio = failed / attempted
    aliases = {} if args.trace else {ALIASES[args.workload].get(k, k): v for k, v in metrics.items()}
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "time": stamp,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "errors": result["errors"],
        "metrics": metrics,
        "report_names": aliases,
        **info,
    }
    if args.trace:
        record["layer_self_ms"] = layer_self_ms(tracer, args.workload)
        untraced = result["pass_ns"][0]
        q1, _, q3 = quantiles(untraced, n=4) if len(untraced) > 1 else (0, 0, 0)
        record["untraced_pass_spread_pct"] = 100 * (q3 - q1) / median(untraced)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{base}-{stamp}-{os.getpid()}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / "spans" / f"{base}.jsonl.gz")

    report(record, metrics if args.trace else aliases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_self_ms(tracer, own: str) -> dict:
    """Self time per layer over the workload's own spans, traced passes and probes."""
    total: dict[str, float] = {}
    for (name, ns), span in zip(tracer.self_times(), tracer.spans):
        if span[5] == own:
            total[layer_of(name)] = total.get(layer_of(name), 0) + ns / 1e6
    return total


def report(record: dict, metrics: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"ordspace benchmark: workload {record['workload']}, seed {record['seed']}, {mode}, {record['passes']} passes")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, fail_ratio {record['fail_ratio']:.4g}")
    if not record["trace"]:
        print(
            f"  tail p{record['tail_percentile']} from {record['op_samples']} operations, "
            f"{record['samples_beyond_tail']} beyond it"
        )
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record.get("wall", {}).items():
        print(f"  wall time {name:24} {value:14.6g}")
    for layer, ms in sorted(record.get("layer_self_ms", {}).items()):
        print(f"  self time {layer:24} {ms:14.6g} ms")
    if record["trace"]:
        gap = metrics["trace.accounted_pct"]["value"] - 100
        overhead = metrics["trace.overhead_pct"]["value"]
        noise = record["untraced_pass_spread_pct"]
        verdict = "within" if abs(gap) <= max(abs(overhead), noise) else "outside"
        print(
            f"  layer self times differ from the untraced pass by {gap:+.2f}%: {verdict} the "
            f"{overhead:+.2f}% tracing overhead or the {noise:.2f}% spread of untraced passes"
        )
    for error in record["errors"]:
        print(f"  failure: {error}")


if __name__ == "__main__":
    sys.exit(main())
