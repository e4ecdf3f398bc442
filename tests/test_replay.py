import numpy as np
import pytest

from ticstream.datagen import StreamConfig, generate_stream
from ticstream.errors import RunError
from ticstream.numerics import Rng
from ticstream.replay import (
    BufferPolicy,
    ReplayPlan,
    assemble_training_set,
    plan_replay,
    sample_buffer,
)


def sizes(upto, each=1000):
    return {t: each for t in range(1, upto + 1)}


class TestPlanExp:
    def test_step3_halves(self):
        plan = plan_replay(BufferPolicy("exp"), 3, 512, sizes(3))
        assert plan.per_source_counts == {1: 256, 2: 256}

    def test_step4_quarters(self):
        plan = plan_replay(BufferPolicy("exp"), 4, 512, sizes(4))
        assert plan.per_source_counts == {1: 128, 2: 128, 3: 256}

    def test_step2_full_buffer(self):
        plan = plan_replay(BufferPolicy("exp"), 2, 512, sizes(2))
        assert plan.per_source_counts == {1: 512}

    def test_old_counts_sum_to_buffer(self):
        for t in range(2, 11):
            for d in (64, 100, 513, 9999):
                plan = plan_replay(BufferPolicy("exp"), t, d, sizes(t, 10**6))
                assert sum(plan.per_source_counts.values()) == d

    def test_halving_between_consecutive_steps(self):
        d = 512
        for t in range(3, 9):
            now = plan_replay(BufferPolicy("exp"), t, d, sizes(t, 10**6)).per_source_counts
            nxt = plan_replay(BufferPolicy("exp"), t + 1, d, sizes(t + 1, 10**6)).per_source_counts
            for j in range(2, t - 1):
                assert nxt[j] == now[j] // 2 or nxt[j] == (now[j] + 1) // 2

    def test_capped_at_availability(self):
        plan = plan_replay(BufferPolicy("exp"), 3, 512, {1: 100, 2: 100, 3: 100})
        assert plan.per_source_counts == {1: 100, 2: 100}
        assert plan.current_count == 100


class TestPlanEqual:
    def test_step4_thirds(self):
        plan = plan_replay(BufferPolicy("equal"), 4, 512, sizes(4))
        counts = plan.per_source_counts
        assert sum(counts.values()) == 512
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_divisible_split_is_exact(self):
        plan = plan_replay(BufferPolicy("equal"), 4, 513, sizes(4))
        assert plan.per_source_counts == {1: 171, 2: 171, 3: 171}

    def test_largest_remainder_ties_to_earliest(self):
        plan = plan_replay(BufferPolicy("equal"), 4, 10, sizes(4))
        assert plan.per_source_counts == {1: 4, 2: 3, 3: 3}

    def test_counts_differ_by_at_most_one(self):
        for t in range(2, 11):
            for d in (7, 100, 513):
                counts = plan_replay(BufferPolicy("equal"), t, d, sizes(t)).per_source_counts
                if counts:
                    assert max(counts.values()) - min(counts.values()) <= 1


class TestPlanGeneral:
    def test_all_policy_takes_everything(self):
        actual = {1: 11, 2: 22, 3: 33}
        plan = plan_replay(BufferPolicy("all"), 3, 512, actual)
        assert plan.per_source_counts == {1: 11, 2: 22}
        assert plan.current_count == 33

    def test_first_step_has_no_old_data(self):
        for kind in ("all", "exp", "equal"):
            plan = plan_replay(BufferPolicy(kind), 1, 512, sizes(1))
            assert plan.per_source_counts == {}

    def test_total_at_most_2d_property_sweep(self):
        for kind in ("exp", "equal"):
            for t in range(1, 11):
                for d in (1, 17, 100, 4096, 10_000):
                    plan = plan_replay(BufferPolicy(kind), t, d, sizes(t, 10**6))
                    assert plan.total() <= 2 * d

    def test_unknown_policy(self):
        with pytest.raises(RunError, match="unknown buffer policy"):
            BufferPolicy("fifo")


@pytest.fixture(scope="module")
def stream():
    cfg = StreamConfig(
        num_steps=4, per_step_train_size=30, per_step_eval_size=5,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 3),), drift_angle=0.2, noise_sigma=0.1,
        static_class_count=1, seed=5,
    )
    return generate_stream(cfg)


class TestSampling:
    def test_full_count_returns_entire_step(self, stream):
        plan = ReplayPlan(3, {1: 30, 2: 30}, 30)
        out = sample_buffer(plan, stream, Rng(0))
        assert len(out) == 60
        assert sorted(set(out.timesteps.tolist())) == [1, 2]

    def test_zero_count_skips_step(self, stream):
        plan = ReplayPlan(3, {1: 0, 2: 10}, 30)
        out = sample_buffer(plan, stream, Rng(0))
        assert np.all(out.timesteps == 2)

    def test_deterministic(self, stream):
        plan = ReplayPlan(4, {1: 5, 2: 7, 3: 9}, 30)
        a = sample_buffer(plan, stream, Rng(3))
        b = sample_buffer(plan, stream, Rng(3))
        assert np.array_equal(a.images, b.images)

    def test_no_duplicates_within_source(self, stream):
        plan = ReplayPlan(2, {1: 30}, 30)
        out = sample_buffer(plan, stream, Rng(1))
        rows = {tuple(r) for r in out.images}
        assert len(rows) == 30

    def test_overdraw_rejected(self, stream):
        plan = ReplayPlan(2, {1: 31}, 30)
        with pytest.raises(RunError, match="plan wants 31 of 30"):
            sample_buffer(plan, stream, Rng(0))


class TestAssemble:
    def test_multiset_preserved(self, stream):
        old = stream[0].train
        new = stream[1].train
        out = assemble_training_set(old, new, Rng(9))
        assert len(out) == 60
        got = sorted(map(tuple, out.images))
        want = sorted(map(tuple, np.concatenate([old.images, new.images])))
        assert got == want

    def test_empty_old(self, stream):
        new = stream[1].train
        out = assemble_training_set(
            stream[0].train.take(np.arange(0)), new, Rng(2)
        )
        assert len(out) == len(new)

    def test_same_seed_same_order(self, stream):
        out1 = assemble_training_set(stream[0].train, stream[1].train, Rng(4))
        out2 = assemble_training_set(stream[0].train, stream[1].train, Rng(4))
        assert np.array_equal(out1.images, out2.images)
