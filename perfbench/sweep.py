"""Repeat run.py over seeds and summarise the spread of every metric.

    python3 perfbench/sweep.py --workloads embed_n500 evaluate_n400 --seeds 0-9
    python3 perfbench/sweep.py --trace 1 --seeds 0 --out perfbench/baseline/trace.json

Runs are sequential, each with BENCHMARK.json's run_seconds.  For each
workload and metric it prints the median, the quartiles
(statistics.quantiles with n=4) and their distance as a share of the median,
next to the metric's bound; --out writes every run and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_reference import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else None, "n": len(values)}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", default=["0-9"], help="seeds or ranges like 0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs, summary = {}, {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}" / "result.json"
            env = json.loads(record.read_text(encoding="utf-8"))["env"]
            runs[workload].append({"seed": seed, **result, "env": env})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {
            name: summarise([r["metrics"][name]["value"] for r in runs[workload]]) for name in names}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            spread = s["spread"]
            verdict = "" if bound is None or spread is None else \
                f" bound {bound:g} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {workload:<16} {name:<32} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {'n/a' if spread is None else f'{spread:.4f}'}{verdict}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"], "trace": args.trace,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
