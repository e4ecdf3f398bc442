"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py --seeds 10 --reference

Runs the workloads of BENCHMARK.json (or those named with --workload)
untraced on seeds 0..N-1 and once traced on seed 0, each as its own `run.py`
process, and prints per workload the median and spread (interquartile range
over median) of each end-to-end metric, the traced per-layer figures and the
operations attempted and failed, and, when train_b256 ran, the
measured-versus-ledger line. With --reference it also times the full
criterion-7 experiment (6 methods × 3 seeds at the reference scale) serially
and with TIC_THREADS=2. Output goes to stdout and to
.perfbench/results/figures.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The ledger's view of one B=256 iteration at dims 32/24 -> 32 -> 16.
ENCODER_MACS_PER_SAMPLE = 2816
BATCH, EMBED = 256, 16

REFERENCE_SCRIPT = """
import json, sys, time
import ticstream as ts
cfg = ts.reference_config(output_dir=sys.argv[1], seeds=(0, 1, 2))
cfg.methods = ["oracle", "cumulative_all", "cumulative_exp", "cumulative_equal",
               "sequential", "patching"]
start = time.perf_counter()
ts.run_experiment(cfg)
print(json.dumps(time.perf_counter() - start))
"""


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def time_reference(threads: int) -> float:
    out = OUT / f"reference-threads{threads}"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, TIC_THREADS=str(threads), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", REFERENCE_SCRIPT, str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable); default: those of BENCHMARK.json")
    args = ap.parse_args()
    in_benchmark = [w["name"] for w in BENCHMARK["workloads"]]
    lines = [f"Figures from `python3 perfbench/report.py --seeds {args.seeds}"
             f"{' --reference' if args.reference else ''}`, {args.seconds} s per run.", ""]
    traced_runs = {}
    for name in args.workload or in_benchmark:
        runs = [run_bench(name, seed, args.seconds, 0) for seed in range(args.seeds)]
        traced = traced_runs[name] = run_bench(name, 0, args.seconds, 1)
        note = "" if name in in_benchmark else " (not in BENCHMARK.json)"
        lines += [f"#### {name}{note}", "",
                  f"correct: {all(r['correct'] for r in runs + [traced])}; operations attempted "
                  f"{sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)} "
                  f"over {args.seeds} untraced runs", "",
                  "| metric | unit | median | spread | values |", "|---|---|---|---|---|"]
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            lines.append(f"| {metric} | {runs[0]['metrics'][metric]['unit']} | "
                         f"{statistics.median(values):.4g} | {spread(values):.3f} | "
                         f"{', '.join(f'{v:.3g}' for v in values)} |")
        lines += ["", "Traced run, seed 0:", "", "| layer metric | unit | value |", "|---|---|---|"]
        lines += [f"| {k} | {m['unit']} | {m['value']:.4g} |" for k, m in traced["metrics"].items()
                  if m["value"] != 0]
        lines.append("")

    if "train_b256" in traced_runs:
        layers = traced_runs["train_b256"]["metrics"]
        iter_ms = 1e3 / layers["methods.cumulative_exp.iters_per_s"]["value"]
        ledger_iter = 3 * ENCODER_MACS_PER_SAMPLE * BATCH
        lines += ["#### Measured vs ledger (train_b256, traced)", "",
                  f"Ledger: {ENCODER_MACS_PER_SAMPLE} encoder MACs per sample, "
                  f"{ENCODER_MACS_PER_SAMPLE * BATCH / 1e6:.2f} M per forward and "
                  f"{ledger_iter / 1e6:.2f} M per iteration at B={BATCH}; not counted: the B·B·E "
                  f"similarity block, {BATCH * BATCH * EMBED / 1e6:.2f} M per forward. Measured: "
                  f"{iter_ms:.2f} ms per cumulative_exp iteration "
                  f"({ledger_iter / iter_ms / 1e6:.2f} ledger GMAC/s); lwf teacher iterations cost "
                  f"{layers['methods.lwf.measured_multiplier']['value']:.2f}× a plain one, "
                  "against the ledger's 1.2×.", ""]
    if args.reference:
        serial, pooled = time_reference(1), time_reference(2)
        lines += ["#### Criterion-7 reference experiment (6 methods × 3 seeds, 4000 iterations)", "",
                  f"Serial: {serial:.1f} s. TIC_THREADS=2: {pooled:.1f} s. One timing each, "
                  f"default OpenBLAS threading, run one after the other.", ""]
    text = "\n".join(lines)
    print(text)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / "figures.md").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
