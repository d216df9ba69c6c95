#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py [--seeds 1-10] [--trace 0|1]

Each (workload, seed) is one ``bench/run.py`` process of BENCHMARK.json's
``run_seconds``, run one after the other. For every metric the summary gives the median and the quartiles of
the runs (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median. End-to-end spreads
are compared with the bounds in BENCHMARK.json. The summary of each workload
is written to ``bench/baseline/<workload>.json`` together with the run metadata.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "baseline"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            meta, result = run_once(workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            summary[name] = {"unit": first["unit"], **summarise(values)}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = f"bound {bound:.2f}  " + ("ok" if summary[name]["spread"] <= bound / 3
                                                     else "WIDE" if summary[name]["spread"] > bound
                                                     else "over a third")
            s = summary[name]
            print(f"  {name:42s} median {s['median']:14.6g} {s['unit']:9s} "
                  f"spread {s['spread']:.4f}  {verdict}")
        record = {"workload": workload, "seconds": SECONDS, "trace": args.trace,
                  "seeds": seeds, "meta": meta, "summary": summary, "runs": runs}
        suffix = "" if args.trace == 0 else "-trace"
        (OUT / f"{workload}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
