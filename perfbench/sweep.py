#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise every metric.

    python3 perfbench/sweep.py                       # listed workloads, seed 1, both modes
    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0
    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BENCH_x.json

Each (workload, seed, trace) is one ``run.py`` child of ``run_seconds``
from BENCHMARK.json (``--smoke``: 60x60 grids, 1 s). Traced runs use only
the first seed. For each metric the
table gives the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median. An end-to-end metric is marked ``steady`` when that share is below
a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(bench: dict, workload: str, seed: int, trace: int, smoke: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=WORK, suffix=".json") as rec:
        argv = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1" if smoke else str(bench["run_seconds"]),
            "--trace", str(trace), "--record", rec.name,
        ] + (["--smoke"] if smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
        sys.stderr.write(proc.stderr)
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.load(open(rec.name))
    record["final"] = final
    return record


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", nargs="+", type=int, default=[0, 1], choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small grids, 1 s runs")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    trace_seeds = args.seeds[:1]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
               "trace_seeds": trace_seeds, "workloads": {}}
    all_steady = True
    for workload in args.workloads:
        entry = summary["workloads"][workload] = {"runs": []}
        for trace in args.trace:
            seeds = trace_seeds if trace else args.seeds
            records = [
                run_one(bench, workload, seed, trace, args.smoke)
                for seed in seeds
            ]
            summary["machine"] = records[-1]["machine"]
            section = "per_layer" if trace else "end_to_end"
            metrics = {}
            for name in records[0]["final"]["metrics"]:
                values = [r["final"]["metrics"][name]["value"] for r in records]
                metrics[name] = {
                    "unit": records[0]["final"]["metrics"][name]["unit"],
                    **summarise(values),
                }
            entry[section] = metrics
            for r in records:
                entry["runs"].append({
                    key: r[key]
                    for key in ("seed", "trace", "correct", "attempted", "failed",
                                "working_set_mb", "llc_mb", "inputs_sha256",
                                "outputs_sha256", "extra", "setup_s")
                })

            print(f"\n{workload}  trace {trace}  seeds {seeds}")
            print(f"  {'metric':32s} {'unit':>6s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>7s}")
            for name, m in metrics.items():
                spread = m.get("spread")
                line = (f"  {name:32s} {m['unit']:>6s} {m['median']:12.6g} "
                        f"{m.get('q1', m['median']):12.6g} {m.get('q3', m['median']):12.6g} "
                        f"{'' if spread is None else f'{spread:7.3f}'}")
                if name in bounds and spread is not None:
                    steady = name == "setup_s" or spread < bounds[name] / 3
                    all_steady &= steady
                    line += f"  bound {bounds[name]:.2f} {'steady' if steady else 'NOT STEADY'}"
                print(line)
            failed = sum(r["final"]["failed"] for r in records)
            attempted = sum(r["final"]["attempted"] for r in records)
            print(f"  {'failed_frac':32s} {'frac':>6s} {failed / attempted:12.6g}"
                  f"  ({failed} of {attempted} runs)")
            if not trace:
                reported = statistics.median(
                    r["extra"]["cli_reported_cells_per_second"] for r in records
                )
                print(f"  {'cli_reported_cells_per_second':32s} {'1/s':>6s} {reported:12.6g}"
                      "  (the CLI's own figure, beside cells_per_s)")
            if failed or not all(r["final"]["correct"] for r in records):
                all_steady = False

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
