import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ticstream
from ticstream.errors import ConfigError, RunError
from ticstream.model import ModelDims
from ticstream.schedule import (
    BudgetLedger,
    ScheduleConfig,
    decay_start_iter,
    eval_macs,
    forward_macs_per_sample,
    lr_at,
    macs_per_iteration,
)


def wc(total=1000, warmup=100, max_lr=1e-2, min_lr=0.0, **kw):
    return ScheduleConfig(kind="warmup_cosine", max_lr=max_lr, min_lr=min_lr,
                          total_iters=total, warmup_iters=warmup, **kw)


class TestWarmupCosine:
    def test_warmup_is_linear_and_hits_max(self):
        cfg = wc()
        assert lr_at(cfg, 0) == pytest.approx(1e-2 / 100)
        assert lr_at(cfg, 49) == pytest.approx(1e-2 * 50 / 100)
        assert lr_at(cfg, 99) == 1e-2

    def test_continuous_at_boundary(self):
        cfg = wc()
        assert abs(lr_at(cfg, 99) - lr_at(cfg, 100)) < 1e-12 + 1e-4 * 1e-2
        # cosine start equals max_lr exactly
        assert lr_at(cfg, 100) == pytest.approx(1e-2, abs=1e-12)

    def test_cosine_midpoint(self):
        cfg = wc(total=101, warmup=0, min_lr=2e-3)
        # midpoint of the cosine span
        assert lr_at(cfg, 50) == pytest.approx((1e-2 + 2e-3) / 2, abs=1e-12)

    def test_last_iter_is_min_lr(self):
        for min_lr in (0.0, 1e-3):
            cfg = wc(min_lr=min_lr)
            assert lr_at(cfg, 999) == pytest.approx(min_lr, abs=1e-12)

    def test_subsequent_step_skips_warmup_by_default(self):
        cfg = wc()
        assert lr_at(cfg, 0, is_first_step=False) == pytest.approx(1e-2, abs=1e-12)

    def test_subsequent_step_partial_warmup(self):
        cfg = wc(warmup_on_subsequent=0.1)  # 10 warmup iters
        assert lr_at(cfg, 0, is_first_step=False) == pytest.approx(1e-2 / 10)
        assert lr_at(cfg, 9, is_first_step=False) == pytest.approx(1e-2)

    def test_out_of_range(self):
        with pytest.raises(RunError, match="out of range"):
            lr_at(wc(), 1000)
        with pytest.raises(RunError, match="out of range"):
            lr_at(wc(), -1)


class TestConstCosine:
    def cfg(self, total=5000, frac=0.2, warmup=0):
        return ScheduleConfig(kind="const_cosine", max_lr=1e-2, total_iters=total,
                              warmup_iters=warmup, decay_fraction=frac)

    def test_constant_through_eighty_percent(self):
        cfg = self.cfg()
        assert decay_start_iter(cfg) == 4000
        for it in (0, 1000, 3999, 4000):
            assert lr_at(cfg, it) == 1e-2
        assert lr_at(cfg, 4001) < 1e-2

    def test_decays_to_min(self):
        cfg = self.cfg()
        assert lr_at(cfg, 4999) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decay_segment(self):
        cfg = self.cfg(total=100, frac=0.5)
        vals = [lr_at(cfg, it) for it in range(50, 100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_respected(self):
        cfg = self.cfg(warmup=10)
        assert lr_at(cfg, 0) == pytest.approx(1e-3)
        assert lr_at(cfg, 9) == pytest.approx(1e-2)

    @pytest.mark.parametrize("total", [6, 7])
    def test_refuses_a_cycle_that_decays_over_one_iteration(self, total):
        # the decay branch's one iteration would train at min_lr and change nothing
        cfg = self.cfg(total=total)
        assert total - decay_start_iter(cfg) == 1
        with pytest.raises(ConfigError, match="const_cosine"):
            cfg.validate()

    def test_accepts_a_cycle_that_decays_over_two_iterations(self):
        cfg = self.cfg(total=8)
        assert 8 - decay_start_iter(cfg) == 2
        cfg.validate()


class TestMacs:
    # towers 16->32->8 and 12->32->8
    LAYOUT = ModelDims(16, 12, 32, 8).layout

    def test_forward_macs(self):
        assert forward_macs_per_sample(self.LAYOUT) == 1408

    def test_iteration_macs(self):
        assert macs_per_iteration(self.LAYOUT, 4) == 16896
        assert macs_per_iteration(self.LAYOUT, 1) == 3 * 1408

    def test_eval_macs_forward_only(self):
        assert eval_macs(self.LAYOUT, 10) == 14080


def init_params_calls(source: str) -> list[int]:
    """Lines of `source` that call `init_params`, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  and "init_params" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_scanner_finds_init_params_calls():
    source = 'p = init_params(d, r)\nq = model.init_params(d, r)\nf = init_params\nx = dims.layout\n'
    assert init_params_calls(source) == [1, 2]


SOURCES = Path(ticstream.__file__).parent


def test_only_methods_builds_a_model():
    # the ledger bills from a layout: only a method step draws a model's weights
    for path in sorted(SOURCES.glob("*.py")):
        assert bool(init_params_calls(path.read_text())) == (path.name == "methods.py"), path.name


def test_schedule_imports_nothing_from_model():
    tree = ast.parse((SOURCES / "schedule.py").read_text())
    assert "model" not in [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]


class TestLedger:
    def test_totals_and_budget_check(self):
        led = BudgetLedger(budget_c_macs=100)
        led.charge_train(1, 100, 10)
        led.charge_train(2, 100, 10)
        led.charge_eval(2, 7)
        assert led.total_train_macs() == 200
        assert led.total_eval_macs() == 7
        led.assert_within(1, 1.0)
        led.charge_train(1, 1, 1)
        with pytest.raises(RunError, match="consumed 101 MACs"):
            led.assert_within(1, 1.0)

    def test_json_round_trip(self):
        led = BudgetLedger(50)
        led.charge_train(3, 25, 5)
        led.charge_eval(3, 2)
        back = BudgetLedger.from_json(led.to_json())
        assert back.budget_c_macs == 50
        assert back.train_macs == led.train_macs
        assert back.eval_macs == led.eval_macs
        assert back.train_iters == led.train_iters


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(kind="step", max_lr=1e-3, total_iters=10).validate()

    def test_bad_lr_order(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, min_lr=2e-3, total_iters=10).validate()

    @pytest.mark.parametrize("kind", ["warmup_cosine", "const_cosine"])
    def test_a_cycle_trains_at_least_one_iteration(self, kind):
        with pytest.raises(ConfigError, match="total_iters"):
            ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0).validate()
        ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=1).validate()

    @pytest.mark.parametrize("field, value", [
        ("decay_fraction", 0.0), ("decay_fraction", 1.5),
        ("warmup_on_subsequent", -0.1), ("warmup_on_subsequent", 1.5),
    ])
    def test_fractions_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=10, **{field: value}).validate()

    def test_with_total_validates_the_cycle(self):
        # a warmup that fits 1000 iterations but not a 50-iteration cycle
        with pytest.raises(ConfigError, match="warmup_iters"):
            wc(warmup=100).with_total(50)
