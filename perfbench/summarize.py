"""Summarize benchmark run records and check their spread against the bounds.

    python3 perfbench/summarize.py perfbench/out/runs/*.json
    python3 perfbench/summarize.py --write perfbench/out/runs/*.json

For each workload and metric it prints the median of the runs, the distance
between the first and third quartile as a share of the median, and whether
that spread stays within the metric's bound in BENCHMARK.json (for
``setup_s`` the bound applies to a change of the median, not to the spread).
``--write`` stores the summary as ``perfbench/trajectory/BENCH_<commit>.json``,
one file per measured commit, so the performance trajectory lives in the
repository.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q3, (q3 - q1) / abs(median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--write", action="store_true", help="write perfbench/trajectory/BENCH_<commit>.json")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(path.read_text(encoding="utf-8")) for path in args.records]
    records = [r for r in records if not r["tiny"]]
    if not records:
        raise SystemExit("error: no full-size run records given")

    summary: dict = {}
    ok = True
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = summary.setdefault(f"{r['workload']}/trace{r['trace']}", {"seeds": [], "failed": 0, "attempted": 0, "values": {}})
        entry["seeds"].append(r["seed"])
        entry["failed"] += r["failed"]
        entry["attempted"] += r["attempted"]
        for name, metric in r["metrics"].items():
            entry["values"].setdefault(name, {"unit": metric["unit"], "runs": []})["runs"].append(metric["value"])

    for key, entry in summary.items():
        print(f"{key}: {len(entry['seeds'])} runs, seeds {entry['seeds']}, failed {entry['failed']}/{entry['attempted']}")
        ok &= entry["failed"] == 0
        for name, metric in entry["values"].items():
            runs = metric["runs"]
            metric["median"] = median(runs)
            line = f"  {name:34} median {metric['median']:12.6g} {metric['unit']:6}"
            if len(runs) >= 2:
                metric["q1"], metric["q3"], metric["spread"] = spread(runs)
                line += f" spread {metric['spread']:7.2%}"
                if name in bounds:
                    limit = bounds[name] / 3
                    steady = name == "setup_s" or metric["spread"] <= limit
                    ok &= steady
                    line += f" (bound/3 {limit:.2%}) {'ok' if steady else 'TOO WIDE'}"
            print(line)

    if args.write:
        commits = {r["commit"] for r in records}
        name = commits.pop()[:12] if len(commits) == 1 else "mixed"
        first = records[0]
        out = HERE / "trajectory" / f"BENCH_{name}.json"
        out.parent.mkdir(exist_ok=True)
        payload = {
            "commit": first["commit"],
            "python": first["python"],
            "nproc": first["nproc"],
            "seconds": first["seconds"],
            "summary": summary,
        }
        out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
