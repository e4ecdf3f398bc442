"""Run one benchmark workload of ticstream and print its metrics.

    python3 perfbench/run.py --workload train_b256 --seed 0 --seconds 60 --trace 0

Repeats whole rounds (see rounds.py) while the next fits in --seconds, checks
every round's outputs, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, medians over the rounds after the first. With --trace 1
the rounds after the first alternate traced and untraced, and the metrics
are the per-layer ones, medians over the traced rounds. ticstream is
imported from the src/ directory beside this one.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, operations

ROOT = Path(__file__).resolve().parent.parent

UNITS = {"setup_s": "s", "wall_s": "s", "eval_s": "s", "peak_rss_mb": "MB"}


def _openblas_threads():
    """Threads the loaded OpenBLAS uses, asked through its C API; None if not found."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb(workers: int) -> float:
    """Harness peak plus, for a pool, workers × the largest finished worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def ledger_totals(run_dirs) -> dict[str, float]:
    """MACs the runs' ledgers billed for training and for evaluation."""
    train = evals = 0.0
    for d in run_dirs:
        ledger = json.loads((d / "metrics.json").read_text())["ledger"]
        train += sum(ledger["train_macs"].values())
        evals += sum(ledger["eval_macs"].values())
    return {"schedule.ledger_train_macs": train, "schedule.ledger_eval_macs": evals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if not (ROOT / "src" / "ticstream" / "__init__.py").is_file():
        print(f"perfbench: no ticstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # NumPy reads the BLAS thread setting when it is first imported, and
    # forked pool workers inherit it; ticstream and NumPy load only from here on.
    if w.blas_threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(w.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    from rounds import run_round

    env = environment()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    rounds, traced, errors = [], [], []
    attempted = failed = 0
    first_digests = None
    saved_spans = None
    try:
        start = time.perf_counter()
        k, longest = 0, 0.0
        # whole rounds while the next one fits in --seconds, with at least one
        # counted untraced round and, when tracing, one traced round. Round 0
        # warms up (first calls, page cache) and is checked but not timed;
        # when tracing, the odd rounds are the traced ones.
        while (time.perf_counter() - start + longest <= args.seconds
               or not (failed or rounds and (traced or not args.trace))):
            round_start = time.perf_counter()
            round_dir = work / f"round-{k}"
            round_dir.mkdir()
            tracer = tracing.Tracer(round_dir) if args.trace and k % 2 == 1 else None
            k += 1
            attempted += operations(w)
            try:
                if tracer:
                    tracer.install()
                try:
                    r = run_round(w, args.seed, round_dir)
                finally:
                    if tracer:
                        tracer.uninstall()
            except Exception:
                traceback.print_exc()
                failed += operations(w)
                shutil.rmtree(round_dir)
                continue
            errors += checks.check_round(r)
            r.datasets = r.metrics_before_eval = None  # keep only timings across rounds
            digests = checks.artifact_digests(r.run_dirs)
            first_digests = first_digests or digests
            if digests != first_digests:
                errors.append(f"round {k - 1}{' (traced)' if tracer else ''}: artifacts differ from the first round's")
            if tracer:
                tracer.merge_spills()
                saved_spans = saved_spans or tracer.spans
                layers = tracing.layer_metrics(tracer.spans)
                layers.update(ledger_totals(r.run_dirs))
                traced.append((r, layers))
            elif k > 1:
                rounds.append(r)
            shutil.rmtree(round_dir)
            longest = max(longest, time.perf_counter() - round_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.environ.pop("TIC_THREADS", None)

    if not rounds or (args.trace and not traced):
        print("perfbench: no round finished", file=sys.stderr)
        return 1
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    wall = statistics.median(r.wall_s for r in rounds)
    if args.trace:
        layers = {name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]}
        layers["runner.pool_busy_share"] = statistics.median(
            sum(r.job_s) / (w.workers * r.wall_s) for r in rounds)
        layers["runner.pool_job_s_max"] = statistics.median(max(r.job_s) for r in rounds)
        layers["trace.overhead_s"] = statistics.median(r.wall_s for r, _ in traced) - wall
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in layers.items()}
    else:
        e2e = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "wall_s": wall,
            "eval_s": statistics.median(s for r in rounds for s in r.eval_s),
            "peak_rss_mb": peak_rss_mb(w.workers),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in e2e.items()}

    detail = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "rounds": [{"setup_s": r.setup_s, "wall_s": r.wall_s, "eval_s": r.eval_s, "job_s": r.job_s}
                   for r in rounds],
        "traced_rounds": [{"wall_s": r.wall_s, "layers": m} for r, m in traced],
        "check_failures": errors,
    }
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if saved_spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(saved_spans))
    print(f"# environment {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"# {w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# attempted {attempted}, failed {failed}, rounds {len(rounds)} untraced + {len(traced)} traced")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
