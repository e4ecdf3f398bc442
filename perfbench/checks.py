"""Correctness checks on one round's outputs.

Each check recomputes a figure apart from the program, or tests a property
the method must have; none compares against stored output. Every check
returns a list of failure messages, empty when the round is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from ticstream import datagen, model

# Σ fan_in·fan_out of both towers at dims 32/24 -> 32 -> 16: the ledger's
# encoder MACs per sample.
ENCODER_MACS_PER_SAMPLE = (32 * 32 + 32 * 16) + (24 * 32 + 32 * 16)
LWF_BILL = 1.2
REPLAY_POLICY = {
    "oracle": "all", "cumulative_all": "all", "restart": "all",
    "cumulative_exp": "exp", "cumulative_equal": "equal",
    "sequential": "new_only", "patching": "new_only", "lwf": "new_only",
}
ALPHA_GRID = [i / 10 for i in range(11)]


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_stream_roundtrip(datasets, stream_cfg, data_dir) -> list[str]:
    """load_stream returns arrays bitwise equal to generate_stream's."""
    loaded, stored_cfg = datagen.load_stream(data_dir)
    errors = [] if stored_cfg == stream_cfg else ["stored stream config differs"]
    if len(loaded) != len(datasets):
        return errors + [f"{len(loaded)} steps loaded, {len(datasets)} generated"]
    for g, l in zip(datasets, loaded):
        pairs = [(g.prototype_ids, l.prototype_ids), (g.prototypes, l.prototypes)]
        for split in ("train", "eval_retrieval", "eval_classification"):
            gb, lb = getattr(g, split), getattr(l, split)
            pairs += [(gb.class_ids, lb.class_ids), (gb.images, lb.images),
                      (gb.texts, lb.texts), (gb.timesteps, lb.timesteps)]
        if g.timestep != l.timestep or not all(_same_array(a, b) for a, b in pairs):
            errors.append(f"step {g.timestep}: loaded arrays differ from generated ones")
    return errors


def _split_counts(shares: dict[int, float], actual: dict[int, int]) -> dict[int, set]:
    """Admissible counts per source: the ideal share rounded down or up, capped by the data."""
    return {j: {min(math.floor(s), actual[j]), min(math.ceil(s), actual[j])} for j, s in shares.items()}


def check_replay_plan(method: str, records: list[dict], positions: list[int],
                      actual: dict[int, int], per_step_size: int) -> list[str]:
    """train_set_size = current + replayed, and per-source counts follow the policy."""
    errors = []
    policy = REPLAY_POLICY[method]
    for p, rec in enumerate(records, start=1):
        t = positions[p - 1]
        plan = rec["plan"]
        counts = {int(k): v for k, v in plan["per_source_counts"].items()}
        if rec["train_set_size"] != plan["current_count"] + sum(counts.values()):
            errors.append(f"{method} step {t}: train_set_size != current + replayed")
        if policy == "new_only":
            ok = not counts and plan["current_count"] == actual[t]
        else:
            ok = plan["current_count"] == min(per_step_size, actual[t])
            old = positions[: p - 1]
            if policy == "all":
                ok = ok and counts == {j: actual[j] for j in old}
            elif p > 1:
                # exp: the q-th most recent old step gets D/2^q, the oldest
                # shares the smallest fraction; equal: D split over old steps
                if policy == "exp":
                    shares = {j: per_step_size / 2 ** (p - 1 - q) for q, j in enumerate(old)}
                    shares[old[0]] = per_step_size / 2 ** (p - 2)
                else:
                    shares = {j: per_step_size / (p - 1) for j in old}
                allowed = _split_counts(shares, actual)
                ok = ok and set(counts) == set(old)
                ok = ok and all(counts[j] in allowed[j] for j in old)
                ok = ok and sum(counts.values()) == min(per_step_size, sum(actual[j] for j in old))
            else:
                ok = ok and not counts
        if not ok:
            errors.append(f"{method} step {t}: replay plan {plan} breaks the {policy} policy")
    return errors


def check_ledger(method: str, ledger: dict, positions: list[int], per_step_iters: int,
                 batch_size: int) -> list[str]:
    """Training MACs per step equal mult(pos) × iters × 3 × Σ fan_in·fan_out × B."""
    errors = []
    for p, t in enumerate(positions, start=1):
        mult = {"oracle": float(p), "lwf": LWF_BILL if p >= 2 else 1.0}.get(method, 1.0)
        iters = per_step_iters * (p if method == "oracle" else 1)
        want = mult * per_step_iters * 3 * ENCODER_MACS_PER_SAMPLE * batch_size
        got = ledger["train_macs"][str(t)]
        if not math.isclose(got, want, rel_tol=1e-9) or ledger["train_iters"][str(t)] != iters:
            errors.append(f"{method} step {t}: ledger {got} MACs / {ledger['train_iters'][str(t)]} "
                          f"iters, closed form {want} / {iters}")
    return errors


def check_summaries(method: str, metrics: dict) -> list[str]:
    """in_domain, backward and forward are averages of the diagonal and the triangles."""
    errors = []
    for task in ("retrieval", "classification"):
        m = metrics[task]
        t = m["T"]
        e = [m["entries"][i * t : (i + 1) * t] for i in range(t)]
        diag = [e[i][i] for i in range(t)]
        lower = [e[i][j] for i in range(t) for j in range(i)]
        upper = [e[i][j] for i in range(t) for j in range(i + 1, t)]
        for key, cells in (("in_domain", diag), ("backward", lower), ("forward", upper)):
            want = sum(cells) / len(cells)
            if not math.isclose(m[key], want, rel_tol=1e-12, abs_tol=1e-15):
                errors.append(f"{method} {task} {key} {m[key]} != mean of cells {want}")
    return errors


def _embed(layers, x):
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h / np.sqrt((h * h).sum(axis=1, keepdims=True))


def _brute_recall_at_1(queries, gallery) -> float:
    """Query i is a hit when gallery row i scores highest against it (ties: lowest row)."""
    best = np.argmax(queries @ gallery.T, axis=1)
    return float(np.count_nonzero(best == np.arange(len(queries)))) / len(queries)


def check_retrieval_cell(method: str, ckpt_path, metrics: dict, batch) -> list[str]:
    """The final model's score on the final step, recomputed from its .ticc file."""
    params = model.load_checkpoint(ckpt_path).params
    u = _embed(params.image_layers, batch.images)
    v = _embed(params.text_layers, batch.texts)
    mine = 0.5 * (_brute_recall_at_1(u, v) + _brute_recall_at_1(v, u))
    got = metrics["retrieval"]["entries"][-1]
    # one query per direction may flip on a last-bit near-tie
    if abs(mine - got) > 1.0 / len(batch) + 1e-12:
        return [f"{method}: final retrieval cell {got}, recomputed {mine}"]
    return []


def check_losses(method: str, records: list[dict], batch_size: int) -> list[str]:
    """Every step ends below ln(B), the symmetric loss at chance."""
    return [f"{method} step {r['step']}: final_loss {r['final_loss']} >= ln({batch_size})"
            for r in records if not r["final_loss"] < math.log(batch_size)]


def check_alphas(method: str, records: list[dict]) -> list[str]:
    if method != "patching":
        return []
    alphas = [r["alpha"] for r in records]
    if alphas[0] != 1.0 or not all(any(abs(a - g) < 1e-12 for g in ALPHA_GRID) for a in alphas):
        return [f"patching alphas {alphas} are off the 0.0-1.0 grid or do not start at 1.0"]
    return []


def check_round(r) -> list[str]:
    """Every check on one round (see rounds.RoundResult)."""
    cfg = r.cfg
    merged = datagen.aggregate_early_steps(r.datasets, cfg.merge_first_k)
    positions = [d.timestep for d in merged]
    actual = {d.timestep: len(d.train) for d in merged}
    per_step = cfg.total_iters // len(positions)
    errors = check_stream_roundtrip(r.datasets, cfg.stream, r.data_dir)
    for run_dir in r.run_dirs:
        metrics_bytes = (run_dir / "metrics.json").read_bytes()
        if metrics_bytes != r.metrics_before_eval[run_dir]:
            errors.append(f"{run_dir.name}: evaluate_run changed metrics.json")
        metrics = json.loads(metrics_bytes)
        method = metrics["method"]
        records = json.loads((run_dir / "progress.json").read_text())["records"]
        errors += check_ledger(method, metrics["ledger"], positions, per_step, cfg.batch_size)
        errors += check_summaries(method, metrics)
        errors += check_retrieval_cell(method, run_dir / f"step_{positions[-1]:03d}.ticc",
                                       metrics, merged[-1].eval_retrieval)
        errors += check_losses(method, records, cfg.batch_size)
        errors += check_replay_plan(method, records, positions, actual, cfg.stream.per_step_train_size)
        errors += check_alphas(method, records)
    return errors


def artifact_digests(run_dirs) -> dict[str, str]:
    """SHA-256 of the artifacts determinism compares: checkpoints, progress, metrics."""
    out = {}
    for run_dir in run_dirs:
        for path in sorted(run_dir.iterdir()):
            if path.suffix == ".ticc" or path.name in ("progress.json", "metrics.json"):
                key = f"{run_dir.parent.name}/{run_dir.name}/{path.name}"
                out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
