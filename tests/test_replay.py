import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ticstream.datagen import RecordBatch, StreamConfig, generate_stream
from ticstream.errors import RunError
from ticstream.numerics import Rng
from ticstream.replay import (
    ReplayPlan,
    assemble_training_set,
    plan_replay,
    sample_buffer,
)


def seen(train_sizes, first=1):
    """A stream up to and including position len(train_sizes), as `plan_replay` reads it: each
    position's timestep, from `first` on, and its training-set size."""
    return [SimpleNamespace(timestep=t, train=range(n)) for t, n in enumerate(train_sizes, first)]


def sizes(upto, each=1000):
    return seen([each] * upto)


def total(plan):
    """Every record a plan draws, old and current."""
    return plan.current_count + sum(plan.per_source_counts.values())


def drawn(sources):
    """The rows `sample_buffer`'s (batch, indices) sources name, in order."""
    return RecordBatch.concat([batch.take(idx) for batch, idx in sources])


def whole(batch):
    """A source of every row of `batch`, in order."""
    return batch, np.arange(len(batch))


class TestPlanExp:
    def test_step3_halves(self):
        plan = plan_replay("exp", 512, sizes(3))
        assert plan.per_source_counts == {1: 256, 2: 256}

    def test_step4_quarters(self):
        plan = plan_replay("exp", 512, sizes(4))
        assert plan.per_source_counts == {1: 128, 2: 128, 3: 256}

    def test_step2_full_buffer(self):
        plan = plan_replay("exp", 512, sizes(2))
        assert plan.per_source_counts == {1: 512}

    def test_old_counts_sum_to_buffer(self):
        for t in range(2, 11):
            for d in (64, 100, 513, 9999):
                plan = plan_replay("exp", d, sizes(t, 10**6))
                assert sum(plan.per_source_counts.values()) == d

    def test_halving_between_consecutive_steps(self):
        d = 512
        for t in range(3, 9):
            now = plan_replay("exp", d, sizes(t, 10**6)).per_source_counts
            nxt = plan_replay("exp", d, sizes(t + 1, 10**6)).per_source_counts
            for j in range(2, t - 1):
                assert nxt[j] == now[j] // 2 or nxt[j] == (now[j] + 1) // 2

    def test_capped_at_availability(self):
        plan = plan_replay("exp", 512, seen([100, 100, 100]))
        assert plan.per_source_counts == {1: 100, 2: 100}
        assert plan.current_count == 100


class TestPlanEqual:
    def test_step4_thirds(self):
        plan = plan_replay("equal", 512, sizes(4))
        counts = plan.per_source_counts
        assert sum(counts.values()) == 512
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_divisible_split_is_exact(self):
        plan = plan_replay("equal", 513, sizes(4))
        assert plan.per_source_counts == {1: 171, 2: 171, 3: 171}

    def test_largest_remainder_ties_to_earliest(self):
        plan = plan_replay("equal", 10, sizes(4))
        assert plan.per_source_counts == {1: 4, 2: 3, 3: 3}

    def test_counts_differ_by_at_most_one(self):
        for t in range(2, 11):
            for d in (7, 100, 513):
                counts = plan_replay("equal", d, sizes(t)).per_source_counts
                if counts:
                    assert max(counts.values()) - min(counts.values()) <= 1


class TestPlanGeneral:
    def test_all_policy_takes_everything(self):
        plan = plan_replay("all", 512, seen([11, 22, 33]))
        assert plan.per_source_counts == {1: 11, 2: 22}
        assert plan.current_count == 33

    def test_first_step_has_no_old_data(self):
        for kind in ("all", "exp", "equal"):
            plan = plan_replay(kind, 512, sizes(1))
            assert plan.per_source_counts == {}

    def test_total_at_most_2d_property_sweep(self):
        for kind in ("exp", "equal"):
            for t in range(1, 11):
                for d in (1, 17, 100, 4096, 10_000):
                    plan = plan_replay(kind, d, sizes(t, 10**6))
                    assert total(plan) <= 2 * d

    def test_unknown_policy(self):
        with pytest.raises(RunError, match="unknown buffer policy 'fifo'"):
            plan_replay("fifo", 512, sizes(2))


class TestPlanNewOnly:
    def test_replays_nothing_and_takes_every_current_record(self):
        for t in range(1, 8):
            actual = [100 * j + 7 for j in range(1, t + 1)]
            for d in (1, 100, 513, 10_000):
                plan = plan_replay("new_only", d, seen(actual))
                assert plan.per_source_counts == {}
                assert plan.current_count == actual[-1]

    def test_first_position_over_d(self):
        # Today's rule for a first position (e.g. merged early steps) larger
        # than D: new_only trains on all of it, the replay policies on D.
        # ROADMAP item 3 Step A gives every method one first-position set.
        assert plan_replay("new_only", 1024, seen([2048])).current_count == 2048
        for kind in ("all", "exp", "equal"):
            assert plan_replay(kind, 1024, seen([2048])).current_count == 1024


class TestPlanNames:
    def test_sources_by_timestep_formulas_by_position(self):
        # merged early steps start the stream above timestep 1: position 1 is timestep 2
        plan = plan_replay("exp", 512, seen([1000, 1000, 1000], first=2))
        assert (plan.current_step, plan.per_source_counts) == (4, {2: 256, 3: 256})
        plan = plan_replay("all", 512, seen([11, 22, 33], first=2))
        assert (plan.current_step, plan.per_source_counts, plan.current_count) == (4, {2: 11, 3: 22}, 33)


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
        sources = sample_buffer(plan, stream[:3], Rng(0))
        old = drawn(sources[:-1])
        assert len(old) == 60
        assert sorted(set(old.timesteps.tolist())) == [1, 2]
        # the current step's draw comes last, under its own key
        assert sources[-1][0] is stream[2].train
        assert np.array_equal(sources[-1][1], Rng(0).split("current").choice(30, 30))

    def test_zero_count_skips_step(self, stream):
        plan = ReplayPlan(3, {1: 0, 2: 10}, 30)
        sources = sample_buffer(plan, stream[:3], Rng(0))
        assert np.all(drawn(sources[:-1]).timesteps == 2)
        assert [len(idx) for _, idx in sources] == [10, 30]

    def test_deterministic(self, stream):
        plan = ReplayPlan(4, {1: 5, 2: 7, 3: 9}, 30)
        a = drawn(sample_buffer(plan, stream, Rng(3)))
        b = drawn(sample_buffer(plan, stream, Rng(3)))
        assert np.array_equal(a.images, b.images)

    def test_no_duplicates_within_source(self, stream):
        plan = ReplayPlan(2, {1: 30}, 30)
        out = drawn(sample_buffer(plan, stream[:2], Rng(1)))
        rows = {tuple(r) for r in out.images}
        assert len(rows) == 60

    def test_overdraw_rejected(self, stream):
        for plan in (ReplayPlan(2, {1: 31}, 30), ReplayPlan(2, {1: 30}, 31)):
            with pytest.raises(RunError, match="plan wants 31 of 30"):
                sample_buffer(plan, stream[:2], Rng(0))

    def test_plan_naming_a_step_outside_the_stream_seen_is_refused(self, stream):
        # a source after the current step, the current step as a source, another current step
        for plan in (ReplayPlan(3, {4: 5}, 30), ReplayPlan(3, {3: 5}, 30), ReplayPlan(4, {1: 5}, 30)):
            with pytest.raises(RunError, match="outside steps \\[1, 2, 3\\]"):
                sample_buffer(plan, stream[:3], Rng(0))


class TestAssemble:
    def test_multiset_preserved(self, stream):
        old = stream[0].train
        new = stream[1].train
        out = assemble_training_set([whole(old), whole(new)], Rng(9))
        assert len(out) == 60
        got = sorted(map(tuple, out.images))
        want = sorted(map(tuple, np.concatenate([old.images, new.images])))
        assert got == want

    def test_empty_old(self, stream):
        new = stream[1].train
        out = assemble_training_set([whole(stream[0].train.take(np.arange(0))), whole(new)], Rng(2))
        assert len(out) == len(new)

    def test_same_seed_same_order(self, stream):
        out1 = assemble_training_set([whole(stream[0].train), whole(stream[1].train)], Rng(4))
        out2 = assemble_training_set([whole(stream[0].train), whole(stream[1].train)], Rng(4))
        assert np.array_equal(out1.images, out2.images)

    def test_equals_concatenating_then_shuffling(self, stream):
        sources = [(stream[0].train, np.array([4, 0, 29, 7])), whole(stream[1].train.take(np.arange(0))),
                   (stream[2].train, Rng(1).choice(30, 17))]
        out = assemble_training_set(sources, Rng(6))
        want = drawn(sources).take(Rng(6).split("shuffle").permutation(21))
        for name in ("class_ids", "images", "texts", "timesteps"):
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_peaks_at_one_copy_of_its_output_plus_indices(self):
        # five sources of 1024 drawn rows, as cumulative_equal assembles at position 5
        rng = Rng(3)
        sources = []
        for t in range(1, 6):
            batch = RecordBatch(np.zeros(2048, dtype=np.int64), rng.split("i", t).normal((2048, 32)),
                                rng.split("t", t).normal((2048, 24)), np.full(2048, t, dtype=np.int64))
            sources.append((batch, rng.split("pick", t).choice(2048, 1024)))
        tracemalloc.start()
        try:
            out = assemble_training_set(sources, Rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = sum(getattr(out, c).nbytes for c in ("class_ids", "images", "texts", "timesteps"))
        one_column_of_one_source = 1024 * 32 * 8
        assert len(out) == 5 * 1024
        assert peak <= out_bytes + 2 * 8 * len(out) + one_column_of_one_source
