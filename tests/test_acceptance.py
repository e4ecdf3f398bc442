"""Acceptance suite for the continual-training framework.

Each test checks one release criterion and prints a single PASS/FAIL line
to the terminal (bypassing pytest capture). Criteria 7, 8, and 10 share
one reference-scale experiment over seeds {0, 1, 2}; everything else runs
on small purpose-built instances. Criteria 7-10 also hold the figures they
print to the pinned reference values in REFERENCE_FIGURES.
"""

import json
import shutil
import time

import numpy as np
import pytest

from ticstream.datagen import StreamConfig, generate_stream
from ticstream.methods import StepContext, resolve_method, run_step
from ticstream.model import (
    ModelDims,
    TwoTowerParams,
    clip_loss_and_grads,
    init_params,
    lwf_penalty_and_grads,
)
from ticstream.numerics import Rng, finite_diff_grad
from ticstream.replay import BufferPolicy, plan_replay
from ticstream.runner import (
    ExperimentConfig,
    _prepare_datasets,
    iid_split_experiment,
    reference_config,
    run_experiment,
    run_method_seed,
)
from ticstream.schedule import (
    BudgetLedger,
    ScheduleConfig,
    lr_at,
    macs_per_iteration,
)


@pytest.fixture
def report(capsys):
    """Prints one PASS/FAIL line per criterion, bypassing output capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# shared reference experiment (criteria 7, 8, 10)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def reference_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    cfg = reference_config(output_dir=str(out), seeds=(0, 1, 2))
    cfg.methods = [
        "oracle", "cumulative_all", "cumulative_exp",
        "cumulative_equal", "sequential", "patching",
    ]
    start = time.time()
    manifests = run_experiment(cfg)
    elapsed = time.time() - start
    by_method: dict[str, list[dict]] = {}
    for mp in manifests:
        metrics = json.loads((mp.parent / "metrics.json").read_text())
        by_method.setdefault(metrics["method"], []).append(metrics)
    return {"cfg": cfg, "by_method": by_method, "elapsed": elapsed}


# The figures criteria 7-10 print, to the printed 4 decimals. Each run is a
# pure function of its config, so they hold exactly for a given NumPy and
# BLAS build; the criteria's own bounds are checked beside them, unchanged.
REFERENCE_FIGURES = {
    7: {"cumulative_all backward": "0.4742", "sequential backward": "0.4500",
        "in-domain diff": "0.0173", "patching backward": "0.4678",
        "cumulative_equal backward": "0.4694", "cumulative_exp backward": "0.4690"},
    8: {"static gap": "0.0127", "compute ratio": "0.4000"},
    9: {"k=1": "0.6576", "k=2": "0.6589", "k=4": "0.6445", "k=8": "0.6458", "max diff": "0.0130"},
    10: {"lag 0": "0.4801", "lag 1": "0.4518", "lag 2": "0.4167", "lag 3": "0.3607"},
}


def off_reference(num: int, figures: dict) -> str:
    """The report's note on `figures` against REFERENCE_FIGURES[num]; empty when all match."""
    off = [f"{k} {figures[k]:.4f} (pinned {v})" for k, v in REFERENCE_FIGURES[num].items()
           if f"{figures[k]:.4f}" != v]
    return "; off the pinned figures: " + ", ".join(off) if off else ""


def mean_retrieval(results, method, key):
    return float(np.mean([m["retrieval"][key] for m in results["by_method"][method]]))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences(report):
    start = time.time()
    worst = 0.0
    rng = Rng(2024)
    for trial in range(20):
        sub = rng.split(trial)
        dims = ModelDims(
            image_dim=int(sub.split("di").uniform(1)[0] * 5) + 3,
            text_dim=int(sub.split("dt").uniform(1)[0] * 5) + 3,
            hidden_dim=int(sub.split("dh").uniform(1)[0] * 5) + 4,
            embed_dim=int(sub.split("de").uniform(1)[0] * 3) + 2,
        )
        n = int(sub.split("n").uniform(1)[0] * 4) + 2
        params = init_params(dims, sub.split("params"))
        teacher = init_params(dims, sub.split("teacher"))
        imgs = sub.split("imgs").normal((n, dims.image_dim))
        txts = sub.split("txts").normal((n, dims.text_dim))

        # relative error per named tensor: each layer's W and b, and log_scale
        def named(p):
            return [a for layer in p.image_layers + p.text_layers for a in layer] + [p.vector[-1:]]

        _, grads = clip_loss_and_grads(params, imgs, txts)
        fd = finite_diff_grad(lambda _: clip_loss_and_grads(params, imgs, txts)[0], params.vector)
        for got, want in zip(named(grads), named(TwoTowerParams(fd, params.layout))):
            denom = max(1e-8, float(np.abs(want).max()))
            worst = max(worst, float(np.abs(got - want).max()) / denom)

        _, grads = lwf_penalty_and_grads(teacher, params, imgs, txts, 0.8)
        fd = finite_diff_grad(
            lambda _: lwf_penalty_and_grads(teacher, params, imgs, txts, 0.8)[0], params.vector
        )
        for got, want in zip(named(grads), named(TwoTowerParams(fd, params.layout))):
            denom = max(1e-8, float(np.abs(want).max()))
            worst = max(worst, float(np.abs(got - want).max()) / denom)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(1, ok, f"20 instances, worst rel err {worst:.2e} (<=1e-4), {elapsed:.1f}s (<10s)")


def test_criterion_02_loss_identities(report):
    dims = ModelDims(6, 5, 8, 4)
    params = init_params(dims, Rng(0))
    rng = Rng(1)
    img1 = rng.split("i1").normal((1, 6))
    txt1 = rng.split("t1").normal((1, 5))
    single, _ = clip_loss_and_grads(params, img1, txt1)

    uniform_errs = []
    for n in (2, 4, 8):
        img = np.tile(rng.split("iu").normal((1, 6)), (n, 1))
        txt = np.tile(rng.split("tu").normal((1, 5)), (n, 1))
        loss, _ = clip_loss_and_grads(params, img, txt)
        uniform_errs.append(abs(loss - np.log(n)))

    imgs = rng.split("im").normal((4, 6))
    txts = rng.split("tm").normal((4, 5))
    pen, _ = lwf_penalty_and_grads(params, params, imgs, txts, 1.0)

    ok = single == 0.0 and max(uniform_errs) < 1e-9 and abs(pen) < 1e-12
    report(2, ok, f"N=1 loss {single!r} (==0), uniform-logit err {max(uniform_errs):.1e} "
                  f"(<1e-9), self-distillation penalty {abs(pen):.1e} (<1e-12)")


def test_criterion_03_replay_plans(report):
    avail = {t: 10**6 for t in range(1, 12)}
    exp3 = plan_replay(BufferPolicy("exp"), 3, 512, avail).per_source_counts
    exp4 = plan_replay(BufferPolicy("exp"), 4, 512, avail).per_source_counts
    eq4 = plan_replay(BufferPolicy("equal"), 4, 513, avail).per_source_counts
    worked = (
        exp3 == {1: 256, 2: 256}
        and exp4 == {1: 128, 2: 128, 3: 256}
        and eq4 == {1: 171, 2: 171, 3: 171}
    )
    bounded = True
    for kind in ("exp", "equal"):
        for t in range(1, 11):
            for d in range(1, 10_001, 13):
                if plan_replay(BufferPolicy(kind), t, d, avail).total() > 2 * d:
                    bounded = False
    for kind in ("exp", "equal"):  # exact edges of the sweep range
        for d in (1, 2, 3, 9_999, 10_000):
            for t in range(1, 11):
                if plan_replay(BufferPolicy(kind), t, d, avail).total() > 2 * d:
                    bounded = False
    ok = worked and bounded
    report(3, ok, f"worked examples {'ok' if worked else 'WRONG'}, "
                  f"totals <= 2D over t<=10, D<=1e4 {'ok' if bounded else 'VIOLATED'}")


def test_criterion_04_budget_ledger_t7(report):
    cfg = StreamConfig(
        num_steps=7, per_step_train_size=32, per_step_eval_size=8,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 3),), drift_angle=0.2, noise_sigma=0.1,
        static_class_count=1, seed=3,
    )
    datasets = generate_stream(cfg)
    dims = ModelDims(6, 5, 8, 4)
    per_step = 14
    sched = ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=per_step, warmup_iters=2)
    c = per_step * macs_per_iteration(dims.layout, 8)

    totals = {}
    for method in ("oracle", "sequential", "cumulative_all", "lwf"):
        ledger = BudgetLedger(c)
        ctx = StepContext(seed=0, dims=dims, batch_size=8, per_step_iters=per_step,
                          schedule=sched, per_step_size=32, lwf_lambda=1.0, ledger=ledger)
        spec = resolve_method(method)
        deploy = carry = None
        for t in range(1, 8):
            deploy, carry, _ = run_step(spec, t, datasets, deploy, carry, ctx)
        totals[method] = ledger.total_train_macs()

    oracle_ok = int(totals["oracle"]) == 28 * c and totals["oracle"] == int(totals["oracle"])
    seq_ok = int(totals["sequential"]) == 7 * c
    cum_ok = int(totals["cumulative_all"]) == 7 * c
    lwf_ratio = totals["lwf"] / (7 * c)
    lwf_ok = 1.15 <= lwf_ratio <= 1.25
    ok = oracle_ok and seq_ok and cum_ok and lwf_ok
    report(4, ok, f"T=7 ledger: oracle {totals['oracle']/c:.0f}C (==28C), "
                  f"sequential {totals['sequential']/c:.0f}C (==7C), "
                  f"cumulative {totals['cumulative_all']/c:.0f}C (==7C), "
                  f"distillation {lwf_ratio:.4f}x7C (in [1.15,1.25])")


def test_criterion_05_schedule_values(report):
    wc = ScheduleConfig(kind="warmup_cosine", max_lr=1e-2, min_lr=2e-3,
                        total_iters=1101, warmup_iters=100)
    warmup_end = lr_at(wc, 99)
    midpoint = lr_at(wc, 600)  # middle of the 1000-iteration cosine span
    cc = ScheduleConfig(kind="const_cosine", max_lr=1e-2, total_iters=5000,
                        warmup_iters=0, decay_fraction=0.2)
    const_ok = all(lr_at(cc, it) == 1e-2 for it in range(0, 4001, 40)) and lr_at(cc, 4100) < 1e-2
    ok = (
        warmup_end == 1e-2
        and abs(midpoint - (1e-2 + 2e-3) / 2) < 1e-12
        and const_ok
    )
    report(5, ok, f"warmup end {warmup_end:.0e} (==max_lr), cosine midpoint err "
                  f"{abs(midpoint - 6e-3):.1e} (<1e-12), constant through 80% then decays: {const_ok}")


def test_criterion_06_metric_oracles(report):
    from ticstream.evaluation import _paired_hits, summarize
    from ticstream.numerics import l2_normalize_rows

    rng = Rng(6)
    sum_ok = True
    for trial in range(100):
        t = int(rng.split(trial, "t").uniform(1)[0] * 6) + 2
        e = rng.split(trial, "e").uniform(t * t).reshape(t, t)
        s = summarize(e)
        diag = np.mean([e[i, i] for i in range(t)])
        lower = np.mean([e[i, j] for i in range(t) for j in range(t) if i > j])
        upper = np.mean([e[i, j] for i in range(t) for j in range(t) if i < j])
        if (abs(s["in_domain"] - diag) > 1e-12 or abs(s["backward"] - lower) > 1e-12
                or abs(s["forward"] - upper) > 1e-12):
            sum_ok = False

    recall_ok = True
    for trial in range(100):
        sub = rng.split("recall", trial)
        n = int(sub.uniform(1)[0] * 63) + 1
        q = l2_normalize_rows(sub.split("q").normal((n, 5)))
        g = l2_normalize_rows(sub.split("g").normal((n, 5)))
        # both directions: q -> g from the rows, g -> q from the columns of one q @ g.T
        for hits, queries, gallery in zip(_paired_hits(q, g), (q, g), (g, q)):
            brute = 0
            for qi in range(n):
                best, best_sim = 0, -np.inf
                for gi in range(n):
                    sim = float(queries[qi] @ gallery[gi])
                    if sim > best_sim:
                        best, best_sim = gi, sim
                brute += int(best == qi)
            if float(np.mean(hits)) != brute / n:
                recall_ok = False
    ok = sum_ok and recall_ok
    report(6, ok, f"matrix summary vs direct averaging on 100 matrices: {sum_ok}; "
                  f"recall@1, both directions, vs brute-force on 100 instances: {recall_ok}")


def test_criterion_07_method_ordering(report, reference_results):
    all_bwd = mean_retrieval(reference_results, "cumulative_all", "backward")
    seq_bwd = mean_retrieval(reference_results, "sequential", "backward")
    patch_bwd = mean_retrieval(reference_results, "patching", "backward")
    eq_bwd = mean_retrieval(reference_results, "cumulative_equal", "backward")
    exp_bwd = mean_retrieval(reference_results, "cumulative_exp", "backward")
    seq_id = mean_retrieval(reference_results, "sequential", "in_domain")
    all_id = mean_retrieval(reference_results, "cumulative_all", "in_domain")
    elapsed = reference_results["elapsed"]
    off = off_reference(7, {
        "cumulative_all backward": all_bwd, "sequential backward": seq_bwd,
        "in-domain diff": abs(seq_id - all_id), "patching backward": patch_bwd,
        "cumulative_equal backward": eq_bwd, "cumulative_exp backward": exp_bwd,
    })
    ok = (
        all_bwd > seq_bwd
        and abs(seq_id - all_id) <= 0.03
        and patch_bwd >= seq_bwd
        and eq_bwd >= exp_bwd
        and elapsed < 15 * 60
        and not off
    )
    report(7, ok, f"backward: cum-all {all_bwd:.4f} > seq {seq_bwd:.4f}; "
                  f"|in-domain diff| {abs(seq_id - all_id):.4f} (<=0.03); "
                  f"patching {patch_bwd:.4f} >= seq; equal {eq_bwd:.4f} >= exp {exp_bwd:.4f}; "
                  f"{elapsed:.0f}s (<900s){off}")


def test_criterion_08_oracle_gap_and_efficiency(report, reference_results):
    by = reference_results["by_method"]
    cum_static = float(np.mean([m["static_final"] for m in by["cumulative_all"]]))
    orc_static = float(np.mean([m["static_final"] for m in by["oracle"]]))
    gap = orc_static - cum_static

    def train_macs(method):
        return float(np.mean(
            [BudgetLedger.from_json(m["ledger"]).total_train_macs() for m in by[method]]
        ))

    t = reference_results["cfg"].stream.num_steps
    ratio = train_macs("cumulative_all") / train_macs("oracle")
    bound = 2 / (t + 1)
    off = off_reference(8, {"static gap": gap, "compute ratio": ratio})
    ok = gap <= 0.03 and ratio <= bound + 1e-9 and not off
    report(8, ok, f"static accuracy gap {gap:.4f} (<=0.03); "
                  f"compute ratio {ratio:.4f} (<= 2/(T+1) = {bound:.4f}){off}")


def test_criterion_09_iid_split(report, tmp_path):
    cfg = reference_config(output_dir=str(tmp_path), seeds=(0, 1, 2))
    d = cfg.stream.to_json()
    d.update(drift_angle=0.0, class_birth_schedule=[], static_class_count=12)
    cfg.stream = StreamConfig.from_json(d)
    cfg.total_iters = 2000
    table = iid_split_experiment(cfg, splits=(1, 2, 4, 8))
    diffs = {k: abs(table[k] - table[1]) for k in (2, 4, 8)}
    off = off_reference(9, {**{f"k={k}": table[k] for k in (1, 2, 4, 8)}, "max diff": max(diffs.values())})
    ok = max(diffs.values()) <= 0.02 and not off
    report(9, ok, "accuracy " + ", ".join(f"k={k}: {table[k]:.4f}" for k in (1, 2, 4, 8))
                  + f"; max |acc(k)-acc(1)| {max(diffs.values()):.4f} (<=0.02){off}")


def test_criterion_10_forward_transfer_decay(report, reference_results):
    mats = [
        np.asarray(m["classification"]["entries"]).reshape(4, 4)
        for m in reference_results["by_method"]["oracle"]
    ]
    e = np.mean(mats, axis=0)
    lags = [float(np.mean([e[i, i + d] for i in range(4 - d)])) for d in range(4)]
    off = off_reference(10, {f"lag {d}": v for d, v in enumerate(lags)})
    ok = all(a >= b for a, b in zip(lags, lags[1:])) and not off
    report(10, ok, "mean zero-shot accuracy by lag "
                   + ", ".join(f"{v:.4f}" for v in lags) + f" (non-increasing){off}")


def test_criterion_11_determinism_and_resume(report, tmp_path):
    stream = StreamConfig(
        num_steps=3, per_step_train_size=128, per_step_eval_size=32,
        image_dim=12, text_dim=10, latent_dim=6,
        class_birth_schedule=((1, 4), (2, 2)), drift_angle=0.4, noise_sigma=0.2,
        static_class_count=2, seed=7,
    )
    cfg = ExperimentConfig(
        stream=stream,
        schedule=ScheduleConfig(kind="warmup_cosine", max_lr=3e-3, total_iters=0, warmup_iters=10),
        methods=["cumulative_exp"], seeds=[0],
        total_iters=150, batch_size=32, hidden_dim=16, embed_dim=8,
        output_dir=str(tmp_path / "a"),
    )
    run_experiment(cfg)
    cfg_b = ExperimentConfig.from_json(cfg.to_json())
    cfg_b.output_dir = str(tmp_path / "b")
    run_experiment(cfg_b)

    run_a = tmp_path / "a" / "cumulative_exp" / "seed_0"
    run_b = tmp_path / "b" / "cumulative_exp" / "seed_0"
    identical = True
    for name in ("step_001.ticc", "step_002.ticc", "step_003.ticc", "metrics.json", "progress.json"):
        if (run_a / name).read_bytes() != (run_b / name).read_bytes():
            identical = False
    man_a = json.loads((run_a / "manifest.json").read_text())
    man_b = json.loads((run_b / "manifest.json").read_text())
    for man in (man_a, man_b):
        man.pop("wall_clock_seconds")
        man["config"].pop("output_dir")  # differs by construction
    identical = identical and man_a == man_b

    # resume: keep only the step-1 artifacts, rerun, compare to uninterrupted
    run_c = tmp_path / "c" / "cumulative_exp" / "seed_0"
    run_c.mkdir(parents=True)
    shutil.copy(run_a / "step_001.ticc", run_c / "step_001.ticc")
    progress = json.loads((run_a / "progress.json").read_text())
    ledger = progress["ledger"]
    for key in ("train_macs", "eval_macs", "train_iters"):
        ledger[key] = {t: v for t, v in ledger[key].items() if t == "1"}
    (run_c / "progress.json").write_text(json.dumps(
        {"done_through": 1, "records": progress["records"][:1], "ledger": ledger}
    ))
    datasets = _prepare_datasets(cfg, tmp_path / "a" / "data")
    run_method_seed(cfg, datasets, "cumulative_exp", 0, run_c)
    resumed = all(
        (run_c / f"step_{t:03d}.ticc").read_bytes() == (run_a / f"step_{t:03d}.ticc").read_bytes()
        for t in (2, 3)
    )
    ok = identical and resumed
    report(11, ok, f"independent reruns byte-identical: {identical}; "
                   f"resume from step boundary bit-exact: {resumed}")
