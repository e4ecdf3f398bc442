import ast
from pathlib import Path

import numpy as np
import pytest

from ticstream import methods
from ticstream.datagen import StreamConfig, generate_stream
from ticstream.errors import ConfigError, RunError
from ticstream.methods import (
    METHOD_IDS,
    StepContext,
    apply_patch,
    resolve_method,
    run_step,
    tune_patch_alpha,
)
from ticstream.model import ModelDims, init_params
from ticstream.numerics import Rng
from ticstream.schedule import BudgetLedger, ScheduleConfig, decay_start_iter, macs_per_iteration

DIMS = ModelDims(image_dim=6, text_dim=5, hidden_dim=8, embed_dim=4)
PER_STEP_ITERS = 12
BATCH = 8


@pytest.fixture(scope="module")
def stream():
    cfg = StreamConfig(
        num_steps=4, per_step_train_size=40, per_step_eval_size=10,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 3),), drift_angle=0.3, noise_sigma=0.1,
        static_class_count=1, seed=17,
    )
    return generate_stream(cfg)


def make_ctx(seed=0, kind="warmup_cosine", per_step_iters=PER_STEP_ITERS, budget_mult=1.0):
    sched = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=per_step_iters,
                           warmup_iters=2, decay_fraction=0.5)
    budget = per_step_iters * macs_per_iteration(DIMS.layout, BATCH) * budget_mult
    return StepContext(
        seed=seed, dims=DIMS, batch_size=BATCH, per_step_iters=per_step_iters,
        schedule=sched, per_step_size=40, lwf_lambda=1.0,
        ledger=BudgetLedger(budget),
    )


def run_through(method_id, stream, upto, ctx=None):
    spec = resolve_method(method_id)
    ctx = ctx or make_ctx()
    deploy = carry = None
    out = []
    for t in range(1, upto + 1):
        deploy, carry, rec = run_step(spec, t, stream, deploy, carry, ctx)
        out.append((deploy, carry, rec))
    return out, ctx


def flat_equal(a, b):
    return a.layout == b.layout and np.array_equal(a.vector, b.vector)


def method_id_comparisons(source: str) -> list[tuple[int, str]]:
    """(line, id) for each comparison or `case` in `source` against a method id literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        operands += [node.value] if isinstance(node, ast.MatchValue) else []
        for operand in operands:
            for e in operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]:
                if isinstance(e, ast.Constant) and e.value in METHOD_IDS:
                    found.append((node.lineno, e.value))
    return sorted(found)


def test_scanner_finds_method_id_comparisons():
    source = ('if spec.id == "patching": pass\nok = m in ("oracle", "restart")\nx = "lwf" != y\n'
              'match m:\n    case "sequential": pass\n'
              'name = "patching"\nresolve_method("lwf")\nok = kind == "const_cosine"\n')
    assert method_id_comparisons(source) == [
        (1, "patching"), (2, "oracle"), (2, "restart"), (3, "lwf"), (5, "sequential"),
    ]


def test_only_methods_compares_against_method_ids():
    # what differs between methods lives in their `_TABLE` rows alone: even
    # `methods` handles a method only through its spec, and every other
    # module only through its id and its step records
    for path in sorted(Path(methods.__file__).parent.glob("*.py")):
        assert method_id_comparisons(path.read_text()) == [], path.name


class TestResolve:
    def test_all_ids_resolve(self):
        for mid in METHOD_IDS:
            assert resolve_method(mid).id == mid

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            resolve_method("ewc")

    def test_compute_multipliers(self):
        assert resolve_method("oracle").compute_multiplier_at(5) == 5.0
        assert resolve_method("sequential").compute_multiplier_at(5) == 1.0
        assert resolve_method("lwf").compute_multiplier_at(1) == 1.0
        assert resolve_method("lwf").compute_multiplier_at(3) == pytest.approx(1.2)

    def test_init_sources(self):
        assert resolve_method("oracle").init_source == "random"
        assert resolve_method("restart").init_source == "random"
        assert resolve_method("patching").init_source == "last_patched"
        assert resolve_method("cumulative_exp").init_source == "last_checkpoint"


class TestPatchArithmetic:
    def test_endpoints(self):
        a = init_params(DIMS, Rng(1))
        b = init_params(DIMS, Rng(2))
        assert flat_equal(apply_patch(a, b, 0.0), a)
        assert flat_equal(apply_patch(a, b, 1.0), b)

    def test_midpoint_elementwise(self):
        a = init_params(DIMS, Rng(3))
        b = init_params(DIMS, Rng(4))
        mid = apply_patch(a, b, 0.5)
        assert np.allclose(mid.vector, 0.5 * a.vector + 0.5 * b.vector, atol=1e-15)
        w, bias = mid.text_layers[1]
        assert np.allclose(w, 0.5 * a.text_layers[1][0] + 0.5 * b.text_layers[1][0], atol=1e-15)
        assert np.allclose(bias, 0.5 * a.text_layers[1][1] + 0.5 * b.text_layers[1][1], atol=1e-15)
        assert mid.log_scale == 0.5 * a.log_scale + 0.5 * b.log_scale

    def test_alpha_out_of_range(self):
        a = init_params(DIMS, Rng(0))
        with pytest.raises(ConfigError):
            apply_patch(a, a, 1.5)

    def test_shape_mismatch(self):
        a = init_params(DIMS, Rng(0))
        b = init_params(ModelDims(6, 5, 9, 4), Rng(0))
        with pytest.raises(RunError, match="different parameter shapes"):
            apply_patch(a, b, 0.5)


class TestTunePatchAlpha:
    def test_clear_winner_gets_alpha_one(self, stream):
        # new model trained on nothing vs itself: identical models tie on
        # every alpha, so the tie rule selects the largest alpha
        p = init_params(DIMS, Rng(5))
        alpha = tune_patch_alpha(p, p, [stream[0]], BudgetLedger(10**9), 2)
        assert alpha == 1.0

    def test_prefers_better_endpoint(self, stream):
        # a briefly trained model beats a fresh one on step-1 retrieval
        out, _ = run_through("sequential", stream, 1, make_ctx(per_step_iters=60))
        trained = out[0][0].params
        fresh = init_params(DIMS, Rng(99))
        from ticstream.evaluation import retrieval_score

        if retrieval_score(trained, stream[0].eval_retrieval) > retrieval_score(
            fresh, stream[0].eval_retrieval
        ):
            assert tune_patch_alpha(fresh, trained, [stream[0]], BudgetLedger(10**9), 2) >= 0.5

    def test_bills_eval_macs(self, stream):
        p = init_params(DIMS, Rng(5))
        led = BudgetLedger(10**9)
        tune_patch_alpha(p, p, [stream[0]], led, 2)
        assert list(led.eval_macs) == [2] and led.total_eval_macs() > 0
        assert led.total_train_macs() == 0

    def test_requires_eval_sets(self):
        p = init_params(DIMS, Rng(5))
        with pytest.raises(ConfigError):
            tune_patch_alpha(p, p, [], BudgetLedger(10**9), 2)


class TestRunStepBasics:
    def test_deterministic_replay(self, stream):
        a, _ = run_through("cumulative_exp", stream, 3)
        b, _ = run_through("cumulative_exp", stream, 3)
        for (da, *_), (db, *_) in zip(a, b):
            assert flat_equal(da.params, db.params)

    def test_first_step_identical_across_methods(self, stream):
        # at t=1 every method sees the same data, init, and rng keys
        ref, _ = run_through("sequential", stream, 1)
        for mid in METHOD_IDS:
            out, _ = run_through(mid, stream, 1)
            assert flat_equal(out[0][0].params, ref[0][0].params), mid

    def test_methods_diverge_at_second_step(self, stream):
        seq, _ = run_through("sequential", stream, 2)
        cum, _ = run_through("cumulative_all", stream, 2)
        assert not flat_equal(seq[1][0].params, cum[1][0].params)

    def test_missing_prev_checkpoint_rejected(self, stream):
        spec = resolve_method("sequential")
        with pytest.raises(RunError, match="requires the previous checkpoint"):
            run_step(spec, 2, stream, None, None, make_ctx())

    def test_restart_ignores_history(self, stream):
        # restart's step-2 model must not depend on the step-1 checkpoint
        out, _ = run_through("restart", stream, 2)
        spec = resolve_method("restart")
        ctx = make_ctx(budget_mult=2.0)
        fake_deploy, fake_carry, _ = run_through("sequential", stream, 1)[0][0]
        deploy, *_ = run_step(spec, 2, stream, fake_deploy, fake_carry, ctx)
        assert flat_equal(deploy.params, out[1][0].params)

    def test_adam_state_reset_each_step(self, stream, monkeypatch):
        # each step trains from an AdamState of its own, at zero when it
        # starts; the const-cosine decay branch continues it to the step's end
        calls = []
        train_minibatch = methods.train_minibatch

        def spy(*args, adam, **kw):
            calls.append((adam, adam.step_count, adam.first_moment.any(), adam.second_moment.any()))
            return train_minibatch(*args, adam=adam, **kw)

        monkeypatch.setattr(methods, "train_minibatch", spy)
        run_through("cumulative_all", stream, 2, make_ctx(kind="const_cosine"))
        steps = [calls[:PER_STEP_ITERS], calls[PER_STEP_ITERS:]]
        assert [len(step) for step in steps] == [PER_STEP_ITERS] * 2
        for step in steps:
            assert step[0][1:] == (0, False, False)
            assert all(adam is step[0][0] for adam, *_ in step)
            assert [count for _, count, *_ in step] == list(range(PER_STEP_ITERS))
            assert step[0][0].step_count == PER_STEP_ITERS
        assert steps[0][0][0] is not steps[1][0][0]

    def test_step_record_fields(self, stream):
        out, _ = run_through("cumulative_all", stream, 2)
        rec = out[1][2]
        assert rec["step"] == 2
        assert rec["iterations"] == PER_STEP_ITERS
        assert rec["train_set_size"] == 80  # all of steps 1 and 2
        assert np.isfinite(rec["mean_loss"])


class TestDataAssembly:
    def test_sequential_uses_only_new(self, stream):
        out, _ = run_through("sequential", stream, 3)
        plan = out[2][2]["plan"]
        assert plan["per_source_counts"] == {}
        assert plan["current_count"] == 40

    def test_cumulative_all_takes_everything(self, stream):
        out, _ = run_through("cumulative_all", stream, 3)
        plan = out[2][2]["plan"]
        assert plan["per_source_counts"] == {"1": 40, "2": 40}

    def test_exp_buffer_at_step_three(self, stream):
        out, _ = run_through("cumulative_exp", stream, 3)
        plan = out[2][2]["plan"]
        assert plan["per_source_counts"] == {"1": 20, "2": 20}

    def test_equal_buffer_at_step_four(self, stream):
        out, _ = run_through("cumulative_equal", stream, 4)
        plan = out[3][2]["plan"]
        counts = plan["per_source_counts"]
        assert sum(counts.values()) == 40
        assert max(counts.values()) - min(counts.values()) <= 1


class TestBudgets:
    def iter_macs(self):
        return macs_per_iteration(DIMS.layout, BATCH)

    def test_standard_method_bills_one_budget_per_step(self, stream):
        _, ctx = run_through("cumulative_all", stream, 3)
        c = PER_STEP_ITERS * self.iter_macs()
        for t in (1, 2, 3):
            assert ctx.ledger.train_macs[t] == c

    def test_oracle_bills_t_budgets(self, stream):
        _, ctx = run_through("oracle", stream, 3, make_ctx(budget_mult=1.0))
        c = PER_STEP_ITERS * self.iter_macs()
        assert ctx.ledger.train_macs[1] == c
        assert ctx.ledger.train_macs[2] == 2 * c
        assert ctx.ledger.train_macs[3] == 3 * c

    def test_lwf_bills_teacher_surcharge(self, stream):
        _, ctx = run_through("lwf", stream, 2, make_ctx(budget_mult=1.2))
        c = PER_STEP_ITERS * self.iter_macs()
        assert ctx.ledger.train_macs[1] == c
        assert ctx.ledger.train_macs[2] == pytest.approx(1.2 * c)

    def test_overbudget_step_raises(self, stream):
        ctx = make_ctx(budget_mult=0.5)
        spec = resolve_method("sequential")
        with pytest.raises(RunError, match="consumed"):
            run_step(spec, 1, stream, None, None, ctx)


class TestLwfBehavior:
    def test_teacher_embeds_once_per_step(self, stream, monkeypatch):
        # a const-cosine step's decayed branch reuses the step's teacher targets
        calls = []
        teacher_targets = methods.teacher_targets

        def spy(*args):
            calls.append(len(args[1]))
            return teacher_targets(*args)

        monkeypatch.setattr(methods, "teacher_targets", spy)
        out, _ = run_through("lwf", stream, 2, make_ctx(kind="const_cosine", budget_mult=1.2))
        assert calls == [out[1][2]["train_set_size"]]  # none at step 1, one at step 2

    def test_first_step_matches_sequential(self, stream):
        lwf, _ = run_through("lwf", stream, 1)
        seq, _ = run_through("sequential", stream, 1)
        assert flat_equal(lwf[0][0].params, seq[0][0].params)

    def test_zero_lambda_matches_sequential(self, stream):
        ctx = make_ctx(budget_mult=1.2)
        ctx.lwf_lambda = 0.0
        lwf, _ = run_through("lwf", stream, 2, ctx)
        seq, _ = run_through("sequential", stream, 2)
        assert flat_equal(lwf[1][0].params, seq[1][0].params)

    def test_penalty_changes_solution(self, stream):
        ctx = make_ctx(budget_mult=1.2)
        ctx.lwf_lambda = 5.0
        lwf, _ = run_through("lwf", stream, 2, ctx)
        seq, _ = run_through("sequential", stream, 2)
        assert not flat_equal(lwf[1][0].params, seq[1][0].params)


class TestPatchingMethod:
    def test_first_step_alpha_is_one(self, stream):
        out, _ = run_through("patching", stream, 1, make_ctx(budget_mult=2.0))
        _, _, rec = out[0]
        assert rec["alpha"] == 1.0

    def test_deploy_is_patched_model(self, stream):
        # the patched model is deployed as a checkpoint of the step that trained it
        out, _ = run_through("patching", stream, 2, make_ctx(budget_mult=2.0))
        deploy, carry, rec = out[1]
        assert flat_equal(deploy.params, apply_patch(out[0][0].params, carry.params, rec["alpha"]))
        assert (deploy.trained_through_step, deploy.method_id) == (2, "patching")
        assert 0.0 <= rec["alpha"] <= 1.0

    def test_patched_equals_manual_interpolation(self, stream):
        # each step interpolates against the previous deploy model, which from
        # step 3 on is itself patched (alpha 0.9 at step 3 of this stream)
        out, _ = run_through("patching", stream, 4, make_ctx(budget_mult=2.0))
        for (prev_deploy, _, _), (deploy, carry, rec) in zip(out, out[1:]):
            manual = apply_patch(prev_deploy.params, carry.params, rec["alpha"])
            assert flat_equal(deploy.params, manual)
        assert not flat_equal(out[2][0].params, out[2][1].params)


class TestConstCosine:
    def test_carry_and_deploy_differ(self, stream):
        ctx = make_ctx(kind="const_cosine")
        out, _ = run_through("sequential", stream, 1, ctx)
        deploy, carry, *_ = out[0]
        assert not flat_equal(deploy.params, carry.params)

    def test_carry_feeds_next_step(self, stream):
        # the next step must warm-start from the pre-decay branch
        ctx = make_ctx(kind="const_cosine")
        out, _ = run_through("sequential", stream, 2, ctx)
        assert out[1][2]["step"] == 2

    def test_warmup_cosine_deploy_equals_carry(self, stream):
        out, _ = run_through("sequential", stream, 1)
        deploy, carry, *_ = out[0]
        assert flat_equal(deploy.params, carry.params)


class TestSegmentsOwnTheirState:
    """Training updates parameters in place, so each step's loop trains a
    copy: the parameters it starts from are never changed."""

    def test_decay_branch_leaves_the_carry_unchanged(self, stream, monkeypatch):
        # the carry is the model as it stood before the decay start's
        # iteration, which the decayed branch trains on without changing it
        starts, before_each = [], []
        train, train_minibatch = methods._train, methods.train_minibatch

        def spy_train(params, *args):
            starts.append((params, params.vector.tobytes()))
            return train(params, *args)

        def spy_minibatch(params, *args, **kw):
            before_each.append(params.vector.copy())
            return train_minibatch(params, *args, **kw)

        monkeypatch.setattr(methods, "_train", spy_train)
        monkeypatch.setattr(methods, "train_minibatch", spy_minibatch)
        ctx = make_ctx(kind="const_cosine")
        out, _ = run_through("sequential", stream, 2, ctx)
        d = decay_start_iter(ctx.schedule)
        assert 0 < d < PER_STEP_ITERS and len(before_each) == 2 * PER_STEP_ITERS
        for t, (deploy, carry, _) in enumerate(out):
            assert np.array_equal(carry.params.vector, before_each[t * PER_STEP_ITERS + d])
            assert not flat_equal(deploy.params, carry.params)
        assert len(starts) == 2  # one loop per step
        assert starts[1][0] is out[0][1].params  # step 2 starts from step 1's carry
        for params, before in starts:
            assert params.vector.tobytes() == before

    def test_patching_leaves_the_previous_patch_unchanged(self, stream):
        ctx = make_ctx(budget_mult=2.0)
        spec = resolve_method("patching")
        deploy, carry, _ = run_step(spec, 1, stream, None, None, ctx)
        before = deploy.params.vector.copy()
        run_step(spec, 2, stream, deploy, carry, ctx)
        assert np.array_equal(deploy.params.vector, before)
