import ctypes
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from ticstream import datagen, runner
from ticstream.cli import main
from ticstream.datagen import StreamConfig
from ticstream.errors import ConfigError, FormatError, RunError
from ticstream.methods import METHOD_IDS
from ticstream.model import load_checkpoint
from ticstream.numerics import Rng
from ticstream.runner import (
    ExperimentConfig,
    emit_report,
    evaluate_run,
    iid_split_experiment,
    reference_config,
    run_experiment,
    run_method_seed,
    _prepare_datasets,
)
from ticstream.schedule import ScheduleConfig


def tiny_config(output_dir, **overrides):
    stream = StreamConfig(
        num_steps=3, per_step_train_size=24, per_step_eval_size=12,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 3),), drift_angle=0.3, noise_sigma=0.1,
        static_class_count=2, seed=11,
    )
    schedule = ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)
    base = dict(
        stream=stream, schedule=schedule,
        methods=["sequential", "cumulative_all"], seeds=[0],
        total_iters=18, batch_size=8, hidden_dim=8, embed_dim=4,
        output_dir=str(output_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def artifact_digests(run_dir):
    """SHA-256 of each artifact that determinism compares: checkpoints, progress and metrics."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run_dir.iterdir()
            if p.suffix == ".ticc" or p.name in ("progress.json", "metrics.json")}


def openblas_thread_calls():
    """(set, get) of the loaded OpenBLAS's thread count, found through /proc/self/maps; None if absent."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        calls = [getattr(dll, f"scipy_openblas_{op}_num_threads64_", None) for op in ("set", "get")]
        if None not in calls:
            calls[0].argtypes, calls[1].restype = [ctypes.c_int], ctypes.c_int
            return tuple(calls)
    return None


def children_of(pid):
    """The pids whose parent is `pid`, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()  # state, parent pid, ...
        except OSError:  # gone since the listing
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def is_running(pid):
    """Whether `pid` exists and has not yet exited: a zombie waiting to be reaped has."""
    try:
        os.kill(pid, 0)
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def record_blas_threads(cfg, datasets, method_id, seed, run_dir):
    """A stand-in pool job: writes the BLAS thread count of the process that runs it."""
    Path(run_dir).mkdir(parents=True)
    (Path(run_dir) / "blas_threads").write_text(str(openblas_thread_calls()[1]()))


class TestConfig:
    def test_validate_accepts_tiny(self, tmp_path):
        tiny_config(tmp_path).validate()

    def test_reference_config_validates(self):
        reference_config()

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, merge_first_k=2, lwf_lambda=0.5)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back.stream == cfg.stream
        assert back.methods == cfg.methods
        assert back.merge_first_k == 2
        assert back.lwf_lambda == 0.5

    def test_reference_config_json_is_pinned(self):
        text = json.dumps(reference_config().to_json(), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ef68acabf988b8cfa0b83cb9ec60d5d0840930b2ada23820aac9cacfd88a34fc")

    def test_left_out_fields_read_the_dataclass_defaults(self, tmp_path):
        d = tiny_config(tmp_path).to_json()
        for name in ("merge_first_k", "lwf_lambda", "output_dir"):
            del d[name]
        cfg = ExperimentConfig.from_json(d)
        assert (cfg.merge_first_k, cfg.lwf_lambda, cfg.output_dir) == (1, 1.0, "runs")
        assert cfg.schedule.total_iters == 0

    def test_manifest_config_runs_under_the_default_output_dir(self, tmp_path):
        manifest_config = {**tiny_config(tmp_path).to_json(), "output_dir": None}
        assert ExperimentConfig.from_json(manifest_config).output_dir == "runs"

    def test_rejects_unknown_method(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=["sequential", "nope"])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_bad_merge_k(self, tmp_path):
        cfg = tiny_config(tmp_path, merge_first_k=9)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("edit, field", [
        (lambda cfg: dataclasses.replace(cfg, seeds=[True]), "seeds"),
        (lambda cfg: dataclasses.replace(cfg, seeds=(0, 0)), "seeds"),
        (lambda cfg: dataclasses.replace(cfg, methods=("sequential", "sequential")), "methods"),
        (lambda cfg: dataclasses.replace(cfg, lwf_lambda=float("nan")), "lwf_lambda"),
        (lambda cfg: dataclasses.replace(cfg, output_dir=None), "output_dir"),
        (lambda cfg: dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule, max_lr=float("inf"))),
         "max_lr"),
        (lambda cfg: dataclasses.replace(cfg, stream=dataclasses.replace(cfg.stream, noise_sigma=float("nan"))),
         "noise_sigma"),
        (lambda cfg: dataclasses.replace(cfg, methods=[]), "at least one method and one seed"),
        (lambda cfg: dataclasses.replace(cfg, seeds=[]), "at least one method and one seed"),
    ], ids=["seed_bool", "seed_repeated", "method_repeated", "lwf_lambda_nan", "output_dir_none",
            "max_lr_infinity", "noise_sigma_nan", "methods_empty", "seeds_empty"])
    def test_a_config_built_in_python_is_checked_as_a_file_is(self, tmp_path, edit, field):
        with pytest.raises(ConfigError, match=field):
            edit(tiny_config(tmp_path)).validate()

    def test_a_schedule_cycle_length_set_in_python_is_refused(self, tmp_path):
        # each step sets its own cycle length, so one set in the config would be silently ignored
        schedule = dataclasses.replace(tiny_config(tmp_path).schedule, total_iters=500)
        with pytest.raises(ConfigError, match="field 'total_iters' of schedule is set per step"):
            tiny_config(tmp_path, schedule=schedule).validate()

    def test_a_config_built_in_python_may_hold_tuples(self, tmp_path):
        tiny_config(tmp_path, methods=("sequential", "lwf"), seeds=(0, 1)).validate()

    def test_dims_follow_stream(self, tmp_path):
        d = tiny_config(tmp_path).dims
        assert (d.image_dim, d.text_dim, d.hidden_dim, d.embed_dim) == (6, 5, 8, 4)

    def test_per_step_iters_is_the_floor_share_of_a_position(self, tmp_path):
        def share(total_iters, num_steps, merge_first_k=1):
            stream = dataclasses.replace(tiny_config(tmp_path).stream, num_steps=num_steps)
            return tiny_config(tmp_path, stream=stream, total_iters=total_iters,
                               merge_first_k=merge_first_k).per_step_iters

        assert share(35000, 7) == share(20000, 4) == 5000  # the paper's scales
        assert share(1234, 1) == 1234
        assert share(20, 3) == 6
        assert share(35000, 8, merge_first_k=2) == 5000  # the two merged steps are one position


class TestRunMethodSeed:
    def run_once(self, tmp_path, method="sequential", sub="a"):
        cfg = tiny_config(tmp_path / sub)
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_dir = tmp_path / sub / method / "seed_0"
        metrics = run_method_seed(cfg, datasets, method, 0, run_dir)
        return cfg, run_dir, metrics

    def test_artifacts_written(self, tmp_path):
        _, run_dir, metrics = self.run_once(tmp_path)
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.json").exists()
        for t in (1, 2, 3):
            assert (run_dir / f"step_{t:03d}.ticc").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) == {"artifact_version", "method", "seed", "config", "wall_clock_seconds"}
        assert manifest["method"] == "sequential"
        assert len(json.loads((run_dir / "progress.json").read_text())["records"]) == 3
        assert manifest["wall_clock_seconds"] > 0

    def test_metrics_shape(self, tmp_path):
        _, _, metrics = self.run_once(tmp_path)
        assert len(metrics["retrieval"]["entries"]) == 9
        assert metrics["classification"]["T"] == 3
        assert len(metrics["static_per_step"]) == 3
        assert metrics["static_final"] == metrics["static_per_step"][-1]

    def test_deterministic_across_directories(self, tmp_path):
        cfg_a, dir_a, ma = self.run_once(tmp_path, sub="a")
        cfg_b, dir_b, mb = self.run_once(tmp_path, sub="b")
        assert cfg_a.output_dir != cfg_b.output_dir
        assert ma["retrieval"]["entries"] == mb["retrieval"]["entries"]
        for t in (1, 2, 3):
            assert (dir_a / f"step_{t:03d}.ticc").read_bytes() == (
                dir_b / f"step_{t:03d}.ticc"
            ).read_bytes()
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (dir_a, dir_b)]
        for manifest in manifests:
            manifest.pop("wall_clock_seconds")
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("method, kind", [
        ("sequential", "warmup_cosine"),
        # without carry files a resume takes the deploy file as the carry
        ("patching", "warmup_cosine"),
        # patching resumes from its patched deploy model under either schedule;
        # under const_cosine lwf resumes from its carry, which is also its teacher
        ("patching", "const_cosine"),
        ("lwf", "const_cosine"),
    ])
    def test_resume_from_step_boundary_is_bit_identical(self, tmp_path, method, kind):
        schedule = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0, warmup_iters=2)
        # 16 iterations a step, so the decay branch moves the parameters
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        full_dir, part_dir = (tmp_path / sub / method / "seed_0" for sub in ("full", "part"))
        run_method_seed(cfg, datasets, method, 0, full_dir)
        # simulate a run killed after step 1: keep only step-1 artifacts
        part_dir.mkdir(parents=True)
        for ckpt in full_dir.glob("step_001*.ticc"):
            shutil.copy(ckpt, part_dir / ckpt.name)
        progress = json.loads((full_dir / "progress.json").read_text())
        ledger = progress["ledger"]
        for key in ("train_macs", "eval_macs", "train_iters"):
            ledger[key] = {t: v for t, v in ledger[key].items() if t == "1"}
        trimmed = {
            "done_through": 1,
            "records": progress["records"][:1],
            "ledger": ledger,
        }
        (part_dir / "progress.json").write_text(json.dumps(trimmed))
        run_method_seed(cfg, datasets, method, 0, part_dir)
        compared = sorted(p.name for p in full_dir.iterdir()
                          if p.suffix == ".ticc" or p.name in ("progress.json", "metrics.json"))
        # a checkpoint per step, lwf's carry for each step but the last, progress and metrics
        assert len(compared) == (7 if (method, kind) == ("lwf", "const_cosine") else 5)
        for name in compared:
            assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    def test_checkpoints_name_their_method_and_step(self, tmp_path):
        # merged steps 1 and 2 are position 1: a checkpoint names the timestep it was trained through.
        # cumulative_all keeps the carry its next step starts from; patching starts from its deploy model
        schedule = ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, merge_first_k=2, total_iters=32)
        datasets = _prepare_datasets(cfg, tmp_path / "data")
        for method, want in [
            ("cumulative_all", [(2, "step_002.ticc"), (2, "step_002_carry.ticc"), (3, "step_003.ticc")]),
            ("patching", [(2, "step_002.ticc"), (3, "step_003.ticc")]),
        ]:
            run_dir = tmp_path / method / "seed_0"
            run_method_seed(cfg, datasets, method, 0, run_dir)
            assert sorted(p.name for p in run_dir.glob("*.ticc")) == [name for _, name in want]
            for t, name in want:
                ckpt = load_checkpoint(run_dir / name)
                assert (ckpt.trained_through_step, ckpt.method_id) == (t, method), name

    @pytest.mark.parametrize("kind", ["warmup_cosine", "const_cosine"])
    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_a_run_keeps_a_carry_only_where_a_later_step_reads_it(self, tmp_path, method, kind):
        # a step starts from the pre-decay carry only for a warm start from the last checkpoint under
        # const_cosine; random init starts from nothing, and patching from its patched deploy model
        schedule = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        run_dir = tmp_path / method / "seed_0"
        run_method_seed(cfg, _prepare_datasets(cfg, tmp_path / "data"), method, 0, run_dir)
        want = ["step_001.ticc", "step_002.ticc", "step_003.ticc"]
        if kind == "const_cosine" and method in ("cumulative_all", "cumulative_exp", "cumulative_equal",
                                                  "sequential", "lwf"):
            want += ["step_001_carry.ticc", "step_002_carry.ticc"]
        assert sorted(p.name for p in run_dir.glob("*.ticc")) == sorted(want)

    def test_completed_run_is_not_retrained(self, tmp_path):
        cfg, run_dir, _ = self.run_once(tmp_path)
        before = (run_dir / "step_003.ticc").read_bytes()
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_method_seed(cfg, datasets, "sequential", 0, run_dir)
        assert (run_dir / "step_003.ticc").read_bytes() == before


class Stop(BaseException):
    """A kill: nothing in the package catches it."""


def stop_at(n):
    """os.replace that raises Stop on its nth call instead of replacing."""
    calls = itertools.count(1)
    real = os.replace

    def replace(src, dst):
        if next(calls) == n:
            raise Stop
        real(src, dst)

    return replace


def torn_at(n):
    """os.fsync that, on its nth call, halves the temp file it was to sync and
    raises Stop: a kill midway through writing an artifact."""
    calls = itertools.count(1)
    real = os.fsync

    def fsync(fd):
        if next(calls) == n:
            os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise Stop
        real(fd)

    return fsync


class TestKilledRunResumes:
    @staticmethod
    def artifacts(run_dir):
        files = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        manifest.pop("wall_clock_seconds")
        return files, manifest

    # artifact writes: manifest.json, then a deploy checkpoint, a carry one where
    # a later step reads it (lwf under const_cosine, before the last step) and
    # progress.json per step, then metrics.json and manifest.json
    @pytest.mark.parametrize("method, kind, writes", [
        ("patching", "const_cosine", 9),
        ("lwf", "warmup_cosine", 9),
        ("lwf", "const_cosine", 11),
    ])
    def test_killed_at_any_write_resumes_bit_exactly(self, tmp_path, monkeypatch, method, kind, writes):
        schedule = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_method_seed(cfg, datasets, method, 0, tmp_path / "full")
        want = self.artifacts(tmp_path / "full")
        kills = [("replace", n, stop_at(n)) for n in range(1, writes + 2)]
        kills.append(("fsync", writes // 2, torn_at(writes // 2)))
        stops = 0
        for name, n, kill in kills:
            run_dir = tmp_path / f"{name}_{n}"
            with monkeypatch.context() as m:
                m.setattr(os, name, kill)
                try:
                    run_method_seed(cfg, datasets, method, 0, run_dir)
                except Stop:
                    stops += 1
            run_method_seed(cfg, datasets, method, 0, run_dir)
            assert self.artifacts(run_dir) == want, (name, n)
        assert stops == writes + 1  # each write once, and the torn one

    def test_resume_refuses_a_missing_carry_checkpoint(self, tmp_path, monkeypatch):
        # under const_cosine the carry is the pre-decay model, not the deployed
        # one: a resume that took the deploy file in its place would train
        # another run than the uninterrupted one
        schedule = ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, methods=["lwf"], total_iters=48)
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_dir = tmp_path / "run"
        with monkeypatch.context() as m:
            m.setattr(os, "replace", stop_at(5))  # manifest, step 1's two checkpoints and progress, then a kill
            with pytest.raises(Stop):
                run_method_seed(cfg, datasets, "lwf", 0, run_dir)
        assert json.loads((run_dir / "progress.json").read_text())["done_through"] == 1
        (run_dir / "step_001_carry.ticc").unlink()
        with pytest.raises(FileNotFoundError, match="step_001_carry.ticc"):
            run_method_seed(cfg, datasets, "lwf", 0, run_dir)
        assert not (run_dir / "step_002.ticc").exists()

    @pytest.mark.parametrize("method", ["oracle", "patching"])
    def test_a_run_that_reads_no_carry_resumes_without_one(self, tmp_path, monkeypatch, method):
        # under const_cosine oracle's next step starts from nothing and patching's from its deploy model
        schedule = ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_method_seed(cfg, datasets, method, 0, tmp_path / "full")
        real_step = runner.run_step

        def stop_at_step_2(spec, seen, *rest):
            if len(seen) == 2:
                raise Stop
            return real_step(spec, seen, *rest)

        run_dir = tmp_path / "run"
        with monkeypatch.context() as m:
            m.setattr(runner, "run_step", stop_at_step_2)
            with pytest.raises(Stop):
                run_method_seed(cfg, datasets, method, 0, run_dir)
        assert json.loads((run_dir / "progress.json").read_text())["done_through"] == 1
        (run_dir / "step_001_carry.ticc").unlink(missing_ok=True)
        run_method_seed(cfg, datasets, method, 0, run_dir)
        assert self.artifacts(run_dir) == self.artifacts(tmp_path / "full")


class TestRunExperiment:
    def test_first_run_trains_on_the_stream_as_stored(self, tmp_path, monkeypatch):
        # the run that writes the stream trains on what load_stream reads back, as every later run does
        loaded, trained_on = [], []
        real_load, real_step = runner.load_stream, runner.run_step

        def load_stream(*args, **kwargs):
            loaded.append(real_load(*args, **kwargs))
            return loaded[-1]

        def run_step(spec, seen, *rest):
            trained_on.append(seen[-1].train)
            return real_step(spec, seen, *rest)

        monkeypatch.setattr(runner, "load_stream", load_stream)
        monkeypatch.setattr(runner, "run_step", run_step)
        cfg = tiny_config(tmp_path, methods=["sequential"])
        run_experiment(cfg, tmp_path / "data")
        assert len(loaded) == 1
        assert len(trained_on) == cfg.stream.num_steps
        assert all(got is ds.train for got, ds in zip(trained_on, loaded[0][0]))

    def test_all_pairs_run(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=[0, 1])
        manifests = run_experiment(cfg)
        assert len(manifests) == 4
        for mp in manifests:
            assert mp.exists()
        assert (tmp_path / "data" / "stream_manifest.json").exists()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        cfg_s = tiny_config(tmp_path / "serial")
        serial = run_experiment(cfg_s)
        monkeypatch.setenv("TIC_THREADS", "2")
        cfg_p = tiny_config(tmp_path / "par")
        parallel = run_experiment(cfg_p)
        assert len(serial) == len(parallel) == 2
        for sp, pp in zip(serial, parallel):
            want = artifact_digests(sp.parent)
            assert len(want) == 5  # three checkpoints, progress and metrics
            assert artifact_digests(pp.parent) == want, sp.parent

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # a pool worker may run fewer BLAS threads than a serial parent. At the
        # reference shape and B=256 the gemms are above OpenBLAS's single-thread
        # cutoff, so the second thread really splits them
        calls = openblas_thread_calls()
        if calls is None:
            pytest.skip("the loaded OpenBLAS exports no scipy_openblas thread-count calls")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one core: a second BLAS thread would not run")
        set_threads, get_threads = calls
        ref = reference_config(seeds=(0,))
        stream = dataclasses.replace(ref.stream, per_step_train_size=512, per_step_eval_size=64)
        schedule = dataclasses.replace(ref.schedule, warmup_iters=4)
        original, runs = get_threads(), {}
        try:
            for n in (1, 2):
                set_threads(n)
                cfg = dataclasses.replace(ref, stream=stream, schedule=schedule, methods=["cumulative_exp", "lwf"],
                                          total_iters=160, output_dir=str(tmp_path / f"threads_{n}"))
                runs[n] = [artifact_digests(mp.parent) for mp in run_experiment(cfg, tmp_path / "data")]
        finally:
            set_threads(original)
        assert [len(run) for run in runs[1]] == [6, 6]  # four checkpoints, progress and metrics
        assert runs[1] == runs[2]

    def test_pool_workers_never_touch_the_stream(self, tmp_path, monkeypatch):
        # under const_cosine cumulative_all writes a carry file; merge_first_k=2 merges steps 1 and 2
        # into the first position
        schedule = ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)

        def cfg(sub):
            return tiny_config(tmp_path / sub, schedule=schedule, merge_first_k=2, total_iters=48,
                               methods=["patching", "cumulative_all"], seeds=[0, 1])

        serial = run_experiment(cfg("serial"))
        parent = os.getpid()

        def parent_only(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() != parent:
                    raise RuntimeError(f"{fn.__name__} called in a pool worker")
                return fn(*args, **kwargs)
            return wrapper

        for name in ("load_stream", "generate_stream", "write_stream"):
            monkeypatch.setattr(runner, name, parent_only(getattr(runner, name)))
        monkeypatch.setenv("TIC_THREADS", "2")
        # one pooled run generates its stream, one reads the serial run's
        pooled = [run_experiment(cfg("generated")), run_experiment(cfg("stored"), tmp_path / "serial" / "data")]

        for manifests in pooled:
            assert len(manifests) == len(serial) == 4
            for sp, pp in zip(serial, manifests):
                want = artifact_digests(sp.parent)
                # two deploy checkpoints, cumulative_all's step-2 carry, progress and metrics
                assert len(want) == {"patching": 4, "cumulative_all": 5}[sp.parent.parent.name]
                assert artifact_digests(pp.parent) == want, sp.parent

    def test_a_serial_process_loads_no_pool(self):
        code = ("import sys, ticstream, ticstream.cli, ticstream.runner; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        env = {**os.environ, "PYTHONPATH": str(Path(runner.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        calls = openblas_thread_calls()
        if calls is None:
            pytest.skip("the loaded OpenBLAS exports no scipy_openblas thread-count calls")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one core: OpenBLAS runs one thread in the parent too")
        set_threads, get_threads = calls
        monkeypatch.setattr(runner, "run_method_seed", record_blas_threads)
        monkeypatch.setenv("TIC_THREADS", "2")
        original = get_threads()
        try:
            set_threads(2)
            parent = get_threads()
            manifests = run_experiment(tiny_config(tmp_path, seeds=[0, 1]))
        finally:
            set_threads(original)
        assert parent == 2
        assert [(mp.parent / "blas_threads").read_text() for mp in manifests] == ["1"] * 4

    def test_pool_workers_die_with_a_killed_run(self, tmp_path):
        # `ticstream run` is SIGKILLed mid-step: its pool workers must die with it rather than train
        # on as orphans, and a rerun finishes what they left to the uninterrupted run's bytes
        if getattr(ctypes.CDLL(None), "prctl", None) is None or not Path("/proc/self/stat").exists():
            pytest.skip("no prctl or no /proc")

        def cfg(sub):  # one job a worker, about a second of training each
            return tiny_config(tmp_path / sub, methods=["cumulative_all"], seeds=[0, 1], total_iters=12000)

        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg("killed").to_json()))
        env = {**os.environ, "PYTHONPATH": str(Path(runner.__file__).resolve().parents[1]), "TIC_THREADS": "2"}
        proc = subprocess.Popen([sys.executable, "-m", "ticstream.cli", "run", "--config", str(config)], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not list((tmp_path / "killed").glob("cumulative_all/seed_*/step_001.ticc")):
                assert proc.poll() is None and time.monotonic() < deadline, "the run made no step"
                time.sleep(0.005)
            workers = children_of(proc.pid)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            assert len(workers) == 2
            deadline = time.monotonic() + 10
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [pid for pid in workers if is_running(pid)] == []
        finally:  # leave no process behind, whatever failed
            proc.kill()
            proc.wait(timeout=10)
            for pid in filter(is_running, workers):
                os.kill(pid, signal.SIGKILL)
        rerun, whole = run_experiment(cfg("killed")), run_experiment(cfg("whole"))
        for got, want in zip(rerun, whole):
            assert artifact_digests(got.parent) == artifact_digests(want.parent), got.parent

    def test_a_worker_whose_parent_is_gone_exits(self):
        # a parent that died before its worker asked to die with it is seen through the parent pid
        if getattr(ctypes.CDLL(None), "prctl", None) is None:
            pytest.skip("no prctl")
        code = "import sys; from ticstream.runner import _init_worker; _init_worker(int(sys.argv[1])); print('up')"
        env = {**os.environ, "PYTHONPATH": str(Path(runner.__file__).resolve().parents[1])}
        for parent, want in ((os.getpid(), (0, "up")), (0, (1, ""))):
            out = subprocess.run([sys.executable, "-c", code, str(parent)], env=env, capture_output=True, text=True)
            assert (out.returncode, out.stdout.strip()) == want, out.stderr

    def test_corrupt_checkpoint_in_a_worker_names_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIC_THREADS", "2")
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        ckpt = manifests[0].parent / "step_001.ticc"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated file") as exc:
            run_experiment(cfg)
        assert str(ckpt) in str(exc.value)

    def test_merge_first_k(self, tmp_path):
        cfg = tiny_config(tmp_path, merge_first_k=2)
        manifests = run_experiment(cfg)
        records = json.loads((manifests[0].parent / "progress.json").read_text())["records"]
        assert [r["step"] for r in records] == [2, 3]
        assert records[0]["train_set_size"] == 48
        # training and evaluation are billed under the same step numbers
        ledger = json.loads((manifests[0].parent / "metrics.json").read_text())["ledger"]
        assert list(ledger["eval_macs"]) == list(ledger["train_macs"]) == ["2", "3"]


# SHA-256 of every .ticc, progress.json and metrics.json of four tiny runs
# (see TestTrainingBytesPinned.digests). Training is meant to be a pure
# function of the config, so any change that moves one bit of a trained
# parameter, a replay plan or a logged loss shows here. The pins hold for a
# given NumPy and BLAS build and .ticc version; only a change of those is
# reason to re-pin.
PINNED_TRAINING_SHA256 = {
    "patching": {
        "metrics.json": "2fdf9e710019640258cef1d0c541bd0341715d2eb4f557e611d1b368ed3f66a4",
        "progress.json": "758a5cf49a9316096ccdac5ec62be37703804ba3d93419039e209a14d69b5241",
        "step_001.ticc": "fbd8a05def52aad8316229ae7e10251d189005c3616af7ee95acd791eb8c80fe",
        "step_002.ticc": "380e8ac5d1ff8769d4c5c99be9926aa17eaa7b4ef33de4296be406d51faf0405",
        "step_003.ticc": "f632bb9d20b3932873754a5462e67b5e1afadc4dc11b8f2c3299beb636b617fb",
    },
    "lwf": {
        "metrics.json": "decdec404e89c36b43fbfd68f31fd542a831cb12278d8ad5768395ae57408748",
        "progress.json": "0b1a48a8426086ea12681345b749fec93b77515ad10379f296a1611c71abe3b7",
        "step_001.ticc": "96f3e036d8b31de3568250460f34cfa3b9e0571e5a38c4e07e5e8da06a3610bf",
        "step_002.ticc": "d40bb469400ddd8bd11ac5a806612fc463d07c66132ae37dce10772d1cd5b201",
        "step_003.ticc": "b9d684da3b78be603e7c8559a13d12597e4fb55d7b19447e65e77ceb85c00315",
    },
    "oracle": {
        "metrics.json": "fbe6db5d43795e439435d61513dfea110557c8a3c8a02f5eff571c9d1aabce20",
        "progress.json": "c65eee81d320d5656f2e4972cda33c645f067d578592ecd634aca97a2f551aa9",
        "step_001.ticc": "c82f865aaccc11379258eca01d369d30f4466123c84342ed2df2fa4ea20db7b4",
        "step_002.ticc": "3d7953f286cc5398a851e9c7952de66adbc91130c208d35875822ef35f719b8b",
        "step_003.ticc": "4b591f68ac5461cf7cd5a3970d0c813b5351730979c2f3a9d88cd2496c96e84d",
    },
    "lwf_const_cosine": {
        "metrics.json": "18573a478053811b3d3326f46cccb06dd0ed796f7401ac17a6a3e2b0ef8de9c8",
        "progress.json": "b0c4c4a9f0c0ca5670fcf093dc2fe2e2b61b8dc25531c3cac2a5a8558150357d",
        "step_001.ticc": "40e8be21044943fe60bbde0d981d32f5c172c423bbe9a7903a51a57089bab375",
        "step_001_carry.ticc": "9b99c9cd7639b2759a3b8debf08eb88b50429690364e25d1e22d7d3b153f5258",
        "step_002.ticc": "1247afec4af92be64761464884b1d40af27e75bdafa86c82da668032f05156b3",
        "step_002_carry.ticc": "dd6586c90c187178a82ed5b2dcba09917717730d39fe2a6e80f937a97b66440e",
        "step_003.ticc": "8f5fe9359eff0851f388cbb51e5674341dfcbd8034f4fbc378e0136750521ef2",
    },
}


# pinned run: (method, schedule kind, batch size). patching covers the decay
# branch and the patch alpha grid; lwf the teacher penalty; oracle a cycle that
# grows with the step; lwf_const_cosine the teacher, the decay branch and carry
# checkpoints together, at a batch size that does not divide the training set
PINNED_RUNS = {
    "patching": ("patching", "const_cosine", 32),
    "lwf": ("lwf", "warmup_cosine", 16),
    "oracle": ("oracle", "warmup_cosine", 16),
    "lwf_const_cosine": ("lwf", "const_cosine", 24),
}


class TestTrainingBytesPinned:
    @staticmethod
    def digests(tmp_path, run):
        method, kind, batch = PINNED_RUNS[run]
        cfg = tiny_config(
            tmp_path, stream=StreamConfig(
                num_steps=3, per_step_train_size=64, per_step_eval_size=16,
                image_dim=6, text_dim=5, latent_dim=4,
                class_birth_schedule=((1, 3),), drift_angle=0.3, noise_sigma=0.1,
                static_class_count=2, seed=11,
            ),
            schedule=ScheduleConfig(kind=kind, max_lr=3e-3, total_iters=0, warmup_iters=2),
            methods=[method], total_iters=48, batch_size=batch,
        )
        run_dir = tmp_path / method / "seed_0"
        run_method_seed(cfg, _prepare_datasets(cfg, Path(cfg.output_dir) / "data"), method, 0, run_dir)
        return artifact_digests(run_dir)

    @pytest.mark.parametrize("run", sorted(PINNED_TRAINING_SHA256))
    def test_training_bytes_pinned(self, tmp_path, run):
        assert self.digests(tmp_path, run) == PINNED_TRAINING_SHA256[run]


# SHA-256 per (schedule kind, merge_first_k, method) of a sweep over every method
# (see TestSweepBytesPinned.digests): the path and bytes of each .ticc,
# progress.json and metrics.json of both seeds' run directories, in path order,
# after `run_experiment` and then `evaluate_run` on each run. The stream's birth
# schedule is unsorted and names step 3 twice. As with PINNED_TRAINING_SHA256,
# only a change of NumPy, BLAS or .ticc version is reason to re-pin.
PINNED_SWEEP_SHA256 = {
    ("warmup_cosine", 1, "oracle"): "c5c20e6d5c8eaa3ec9bf4833faa7c5e6b45e9916d269cd4e1c4f79dd7ea96373",
    ("warmup_cosine", 1, "cumulative_all"): "70aca25e355ffe44cf4a71287660f1ef2efb7f1c07cbb02b5bfd915d7546249c",
    ("warmup_cosine", 1, "cumulative_exp"): "f62b4550cb4572ae23a70c09df04b42ebe1074ac761b4e9d11a6bbd6d83967d7",
    ("warmup_cosine", 1, "cumulative_equal"): "869ad889b225613b6cec6a997daed1d38cc8708da82e08eca9ea9abf2a8817e0",
    ("warmup_cosine", 1, "sequential"): "3925b131ec40cf46d37f0e5bed7fd5a0cbc101939937cad6f4ce01a54d98f167",
    ("warmup_cosine", 1, "restart"): "0a4faf7ca9d7378e309956b7fca7b918bbf66a452f2c4c3bc1cebee9e8fc614d",
    ("warmup_cosine", 1, "patching"): "02cd9b64f9305d71fb525f003a2e51eb96cea6afd0a58d520434294f46bd9c84",
    ("warmup_cosine", 1, "lwf"): "a0c9d3e80557a08ce217836dfac403acec24dfc827170a3da7cf1ef689c1e4bd",
    ("warmup_cosine", 2, "oracle"): "f8334490661a7c4f8d64662bc75186bc92d4935e9a1a51387ba9184f2d69be5a",
    ("warmup_cosine", 2, "cumulative_all"): "0c18db856432aa82e1307e470e3515ec04ed8ffb1e06b613eb4b86b42709df06",
    ("warmup_cosine", 2, "cumulative_exp"): "c9d814cfad014210e0c73e50f7e259b451fce06bbeae38a19199f8508f7e182a",
    ("warmup_cosine", 2, "cumulative_equal"): "c7cda09daba4a1be1df4ea77cc33a6ecc1dea83f606c00a3c0b68d826c494cef",
    ("warmup_cosine", 2, "sequential"): "0185ca6d65ac0d56368cb413d511d9913de2431fe03520badecd20a69e164937",
    ("warmup_cosine", 2, "restart"): "ac5315eebe61fb9e348d0ac388de027f0783c6401ab51a1391a63844ad990ccd",
    ("warmup_cosine", 2, "patching"): "d43c2c0f19715f39a31cb007fdb46b0e11fabd30090e81bc65cbaca3852816fa",
    ("warmup_cosine", 2, "lwf"): "18ef5d4c1ef34ecb2ee2135820cd8b171a03bb0e3a1f60bfe5e66cf602703b48",
    ("const_cosine", 1, "oracle"): "702c1ba64e03e21067f4007ebcc56bd5441f3e53701c4f30a7507c02e0a68341",
    ("const_cosine", 1, "cumulative_all"): "f50358a4752bcbe0990c9b28091131a45fd0ab33a4bff27246060481d2282a50",
    ("const_cosine", 1, "cumulative_exp"): "616ec73a1f1ec5ef4e42695cdb51974c37a5ba1407da34dc8758734375db2fff",
    ("const_cosine", 1, "cumulative_equal"): "085b5284ea63f841f9e93cee2270ba00ba8523afa9ac3b7aedb2137786114c5f",
    ("const_cosine", 1, "sequential"): "c95b34bc2ecfaad2d5f18df24596b7c5b3ba500efcbd59cad1498703a1778b4d",
    ("const_cosine", 1, "restart"): "66e9d2c1a959abcaf80f1e0d1ccbd6e010e7209907e97f5ca8f224ca69d3c98a",
    ("const_cosine", 1, "patching"): "a9c6c5e3eb2a5f23de50f5e4ba5ec558ec4e1128d06ebaab8b589c2b313a44ea",
    ("const_cosine", 1, "lwf"): "f4f12cb035f0fe056357d7fc3d69668ebeff80ac53b2e6de26d13152e460ce4f",
    ("const_cosine", 2, "oracle"): "a04da149f2828c3c36dcb0128c0a0f513d526d7a7ca7e1f55cd48a6b364eb266",
    ("const_cosine", 2, "cumulative_all"): "ad465a46cc97ec9ad4dd30ff4d0ef91f49c0ed34936adb05fbf304a381a09742",
    ("const_cosine", 2, "cumulative_exp"): "4e5d8e119cf506c2db60b3762f93bc954ab3473d2cfd0a887112b5f95ba619da",
    ("const_cosine", 2, "cumulative_equal"): "014c175e8ded268986437d393446934691807c5ca9c707a641481f498a2fa2f5",
    ("const_cosine", 2, "sequential"): "ba8bee9cc46baa61951fec2956f0797e978301902828149278c2ee050e38f3bb",
    ("const_cosine", 2, "restart"): "ddc9b2ed4d11b904bbe822d5ff8808c558adf63c00991332fcd4200e7d3460a1",
    ("const_cosine", 2, "patching"): "9b0de957fc021c56786065309b11a530be983985f0025ee1bda1639016bb9784",
    ("const_cosine", 2, "lwf"): "ac57cf6cd001fdb789ea817168fab04e99424688198ccb97a1a5c9ffe7b75baa",
}


class TestSweepBytesPinned:
    @staticmethod
    def digests(tmp_path):
        stream = StreamConfig(
            num_steps=4, per_step_train_size=64, per_step_eval_size=32,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=((3, 2), (1, 1), (3, 1)), drift_angle=0.3, noise_sigma=0.1,
            static_class_count=2, seed=11,
        )
        data, out = tmp_path / "data", {}
        for kind, k in itertools.product(("warmup_cosine", "const_cosine"), (1, 2)):
            cfg = tiny_config(
                tmp_path / f"{kind}_k{k}", stream=stream,
                schedule=ScheduleConfig(kind=kind, max_lr=3e-3, total_iters=0, warmup_iters=2),
                methods=list(METHOD_IDS), seeds=[0, 1], total_iters=40, batch_size=16, merge_first_k=k,
            )
            run_dirs = [m.parent for m in run_experiment(cfg, data)]
            for run_dir in run_dirs:
                evaluate_run(run_dir, data)
            for method in METHOD_IDS:
                h = hashlib.sha256()
                for run_dir in sorted(d for d in run_dirs if d.parent.name == method):
                    for path in sorted(run_dir.iterdir()):
                        if path.suffix == ".ticc" or path.name in ("progress.json", "metrics.json"):
                            h.update(f"{run_dir.name}/{path.name}".encode())
                            h.update(path.read_bytes())
                out[kind, k, method] = h.hexdigest()
        return out

    def test_sweep_bytes_pinned(self, tmp_path):
        got = self.digests(tmp_path)
        assert sorted(got) == sorted(PINNED_SWEEP_SHA256)
        moved = sorted(key for key, digest in PINNED_SWEEP_SHA256.items() if got[key] != digest)
        assert not moved, f"sweep entries whose bytes moved: {moved}"


class TestEvaluateRun:
    def test_rebuilds_identical_metrics(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        run_dir = manifests[0].parent
        before = json.loads((run_dir / "metrics.json").read_text())
        after = evaluate_run(run_dir, tmp_path / "data")
        assert after["retrieval"]["entries"] == before["retrieval"]["entries"]
        assert after["classification"]["entries"] == before["classification"]["entries"]

    def test_reads_no_training_row(self, tmp_path, monkeypatch):
        # merge_first_k=2 also merges steps that were read without their train split
        cfg = tiny_config(tmp_path, merge_first_k=2)
        run_dir = run_experiment(cfg)[0].parent
        written = (run_dir / "metrics.json").read_bytes()
        read = []

        def spy(path, **kwargs):
            ds = real(path, **kwargs)
            read.append(ds)
            return ds

        real = datagen.read_timestep_file
        monkeypatch.setattr(datagen, "read_timestep_file", spy)
        evaluate_run(run_dir, tmp_path / "data")
        assert len(read) == cfg.stream.num_steps
        assert all(ds.train is None for ds in read)
        assert (run_dir / "metrics.json").read_bytes() == written


class TestIidSplit:
    def make_cfg(self, tmp_path, **kw):
        stream = StreamConfig(
            num_steps=1, per_step_train_size=64, per_step_eval_size=16,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=(), drift_angle=0.0, noise_sigma=0.1,
            static_class_count=4, seed=23,
        )
        return tiny_config(tmp_path, stream=stream, total_iters=16, **kw)

    def test_returns_requested_splits(self, tmp_path):
        table = iid_split_experiment(self.make_cfg(tmp_path), splits=(1, 2))
        assert set(table) == {1, 2}
        for v in table.values():
            assert 0.0 <= v <= 1.0

    def test_each_split_is_built_once(self, tmp_path, monkeypatch):
        keys, split = [], Rng.split

        def spy(self, *parts):
            keys.append(parts)
            return split(self, *parts)

        monkeypatch.setattr(Rng, "split", spy)
        iid_split_experiment(self.make_cfg(tmp_path, seeds=[0, 1, 2]), splits=(2,))
        assert keys.count(("iid", 2)) == 1

    def test_rejects_drifting_stream(self, tmp_path):
        with pytest.raises(ConfigError):
            iid_split_experiment(tiny_config(tmp_path))

    def test_rejects_bad_split(self, tmp_path):
        with pytest.raises(ConfigError):
            iid_split_experiment(self.make_cfg(tmp_path), splits=(3,))

    @pytest.mark.parametrize("field", ["batch_size", "hidden_dim", "embed_dim"])
    def test_checks_each_split_config_before_any_trains(self, tmp_path, monkeypatch, field):
        # a config built in Python reaches the split experiment without `run_experiment`'s check
        calls = []
        monkeypatch.setattr(runner, "run_step", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=f"split 1: .*{field}"):
            iid_split_experiment(self.make_cfg(tmp_path, **{field: 0}), splits=(1, 2))
        assert calls == []


class TestReports:
    def test_csv_report(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        out = emit_report(manifests, tmp_path / "report.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,seed,task,metric,value"
        metrics = json.loads((manifests[0].parent / "metrics.json").read_text())
        # per run: 3 retrieval + 3 classification + 2 compute + optional static
        per_run = 8 + (1 if metrics["static_final"] is not None else 0)
        assert len(lines) == 1 + 2 * per_run

    def test_json_report(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        out = emit_report(manifests, tmp_path / "report.json", fmt="json")
        rows = json.loads(out.read_text())
        assert {r["method"] for r in rows} == {"sequential", "cumulative_all"}
        assert all(set(r) == {"method", "seed", "task", "metric", "value"} for r in rows)

    def test_unreadable_metrics(self, tmp_path):
        bad = tmp_path / "metrics.json"
        bad.write_text("{not json")
        with pytest.raises(RunError, match="unreadable metrics") as exc:
            emit_report([tmp_path / "manifest.json"], tmp_path / "r.csv")
        assert str(bad) in str(exc.value)

    # the keys inside the retrieval and classification matrices are not checked
    @pytest.mark.parametrize("field", ["method", "seed", "retrieval", "classification", "static_final", "ledger"])
    def test_metrics_missing_field(self, tmp_path, field):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        path = manifests[0].parent / "metrics.json"
        metrics = json.loads(path.read_text())
        del metrics[field]
        path.write_text(json.dumps(metrics))
        with pytest.raises(RunError, match=f"missing field '{field}'") as exc:
            emit_report(manifests, tmp_path / "r.csv")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("ledger", [[], {"budget_c_macs": 1.0}, {"budget_c_macs": 1.0, "train_macs": 5,
                                                                      "eval_macs": {}, "train_iters": {}}])
    def test_metrics_malformed_ledger(self, tmp_path, ledger):
        manifests = run_experiment(tiny_config(tmp_path))
        path = manifests[0].parent / "metrics.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "ledger": ledger}))
        with pytest.raises(RunError, match="malformed ledger") as exc:
            emit_report(manifests, tmp_path / "r.csv")
        assert str(path) in str(exc.value)

    def test_report_covers_scored_runs_only(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "runs")
        datasets = _prepare_datasets(cfg, Path(cfg.output_dir) / "data")
        run_method_seed(cfg, datasets, "sequential", 0, tmp_path / "runs" / "finished")
        # killed at its 4th write, the step-2 checkpoint: manifest.json, step 1 and progress.json are on disk
        with monkeypatch.context() as m:
            m.setattr(os, "replace", stop_at(4))
            with pytest.raises(Stop):
                run_method_seed(cfg, datasets, "cumulative_all", 0, tmp_path / "runs" / "killed")
        assert json.loads((tmp_path / "runs" / "killed" / "progress.json").read_text())["done_through"] == 1
        assert main(["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "cli.csv")]) == 0
        want = emit_report([tmp_path / "runs" / "finished" / "manifest.json"], tmp_path / "want.csv")
        assert (tmp_path / "cli.csv").read_bytes() == want.read_bytes()

    def test_unknown_format(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        with pytest.raises(ConfigError):
            emit_report(manifests, tmp_path / "r.xml", fmt="xml")


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, run from its source so that nothing is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestPerfbenchTracer:
    """The benchmark's tracer replaces functions by name in the ticstream modules that call them; a
    renamed or moved call site would otherwise stop being traced without any error."""

    # no ticstream code has called these since the one-kernel `_contrastive_step`
    DEAD_LAYERS = {"model.clip_loss_and_grads", "model.lwf_penalty_and_grads"}

    def test_every_site_resolves(self, tracing):
        for mod_name, attr, layer in tracing.SITES:
            assert callable(getattr(importlib.import_module(f"ticstream.{mod_name}"), attr, None)), layer

    def test_traced_run_spans_every_live_layer(self, tmp_path, monkeypatch, tracing):
        monkeypatch.setenv("TIC_THREADS", "1")
        cfg = tiny_config(tmp_path / "runs", methods=["cumulative_exp", "patching"], total_iters=30,
                          schedule=ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0))
        (tmp_path / "spill").mkdir()
        tracer = tracing.Tracer(tmp_path / "spill")
        tracer.install()
        try:
            datagen.write_stream(datagen.generate_stream(cfg.stream), cfg.stream, tmp_path / "data")
            manifests = runner.run_experiment(cfg, tmp_path / "data")
            runner.evaluate_run(manifests[0].parent, tmp_path / "data")
        finally:
            tracer.uninstall()
        layers = {layer for _, _, layer in tracing.SITES}
        assert layers - {span[0] for span in tracer.spans} == self.DEAD_LAYERS
