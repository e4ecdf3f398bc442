import ctypes
import dataclasses
import hashlib
import itertools
import json
import os
import shutil

import numpy as np
import pytest

from ticstream import datagen, runner
from ticstream.cli import main
from ticstream.datagen import StreamConfig
from ticstream.errors import ConfigError, FormatError, RunError
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

    def test_dims_follow_stream(self, tmp_path):
        d = tiny_config(tmp_path).dims
        assert (d.image_dim, d.text_dim, d.hidden_dim, d.embed_dim) == (6, 5, 8, 4)


class TestRunMethodSeed:
    def run_once(self, tmp_path, method="sequential", sub="a"):
        cfg = tiny_config(tmp_path / sub)
        datasets = _prepare_datasets(cfg)
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
        # const_cosine writes carry checkpoints: patching resumes from its
        # patched deploy model, lwf from the carry, which is also its teacher
        ("patching", "const_cosine"),
        ("lwf", "const_cosine"),
    ])
    def test_resume_from_step_boundary_is_bit_identical(self, tmp_path, method, kind):
        schedule = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0, warmup_iters=2)
        # 16 iterations a step, so the decay branch moves the parameters
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        datasets = _prepare_datasets(cfg)
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
        assert len(compared) == (8 if kind == "const_cosine" else 5)
        for name in compared:
            assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    def test_completed_run_is_not_retrained(self, tmp_path):
        cfg, run_dir, _ = self.run_once(tmp_path)
        before = (run_dir / "step_003.ticc").read_bytes()
        datasets = _prepare_datasets(cfg)
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

    # artifact writes: manifest.json, then a deploy checkpoint, a carry one under
    # const_cosine and progress.json per step, then metrics.json and manifest.json
    @pytest.mark.parametrize("method, kind, writes", [
        ("patching", "const_cosine", 12),
        ("lwf", "warmup_cosine", 9),
    ])
    def test_killed_at_any_write_resumes_bit_exactly(self, tmp_path, monkeypatch, method, kind, writes):
        schedule = ScheduleConfig(kind=kind, max_lr=1e-3, total_iters=0, warmup_iters=2)
        cfg = tiny_config(tmp_path, schedule=schedule, methods=[method], total_iters=48)
        datasets = _prepare_datasets(cfg)
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


class TestRunExperiment:
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
        # const_cosine writes carry files; merge_first_k=2 merges steps 1 and 2 into the first position
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
                assert len(want) == 6  # two deploy and two carry checkpoints, progress and metrics
                assert artifact_digests(pp.parent) == want, sp.parent

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
        "metrics.json": "0d1fad97555ed68931b8be05bc2430fa1fadff7762f2d6d280b79d5262f0ee85",
        "progress.json": "758a5cf49a9316096ccdac5ec62be37703804ba3d93419039e209a14d69b5241",
        "step_001.ticc": "fbd8a05def52aad8316229ae7e10251d189005c3616af7ee95acd791eb8c80fe",
        "step_001_carry.ticc": "8c12ff6c3486257aaab179db57ca39bbd6e3ecf54fa3ce307c74f7bac8c4d46b",
        "step_002.ticc": "380e8ac5d1ff8769d4c5c99be9926aa17eaa7b4ef33de4296be406d51faf0405",
        "step_002_carry.ticc": "008b33344938ddfafacc7b5b1cb8172f0c29adeed8f78389a9cb6491eb8f95ce",
        "step_003.ticc": "f632bb9d20b3932873754a5462e67b5e1afadc4dc11b8f2c3299beb636b617fb",
        "step_003_carry.ticc": "2d00a2006e0f63365daf9879b02cd532a1678d269d4237c025ae6c01c1feb48a",
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
        "step_003_carry.ticc": "4d477dc0b41b5e9090fe29963123e41759240323a5fef3cc5abaa812af6766c5",
    },
}


# pinned run: (method, schedule kind, batch size). patching covers carry
# checkpoints and the patch alpha grid; lwf the teacher penalty; oracle a cycle
# that grows with the step; lwf_const_cosine the teacher and the decay branch
# together, at a batch size that does not divide the training set
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
        run_method_seed(cfg, _prepare_datasets(cfg), method, 0, run_dir)
        return artifact_digests(run_dir)

    @pytest.mark.parametrize("run", sorted(PINNED_TRAINING_SHA256))
    def test_training_bytes_pinned(self, tmp_path, run):
        assert self.digests(tmp_path, run) == PINNED_TRAINING_SHA256[run]


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

    def test_metrics_missing_field(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifests = run_experiment(cfg)
        path = manifests[0].parent / "metrics.json"
        metrics = json.loads(path.read_text())
        del metrics["method"]
        path.write_text(json.dumps(metrics))
        with pytest.raises(RunError, match="missing field 'method'") as exc:
            emit_report(manifests, tmp_path / "r.csv")
        assert str(path) in str(exc.value)

    def test_report_covers_scored_runs_only(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "runs")
        datasets = _prepare_datasets(cfg)
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
