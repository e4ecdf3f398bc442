import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ticstream import runner
from ticstream.cli import main
from ticstream.datagen import StreamConfig
from ticstream.model import ModelDims, init_params, load_checkpoint, save_checkpoint
from ticstream.numerics import Rng
from ticstream.runner import ExperimentConfig
from ticstream.schedule import ScheduleConfig


def write_config(tmp_path, **overrides):
    stream = StreamConfig(
        num_steps=2, per_step_train_size=24, per_step_eval_size=6,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 3),), drift_angle=0.3, noise_sigma=0.1,
        static_class_count=1, seed=11,
    )
    schedule = ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=0, warmup_iters=2)
    base = dict(
        stream=stream, schedule=schedule,
        methods=["sequential"], seeds=[0],
        total_iters=12, batch_size=8, hidden_dim=8, embed_dim=4,
        output_dir=str(tmp_path / "runs"),
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    return path


def kill_after_step_1(run_dir):
    """Leave `run_dir`'s progress.json as a run killed after step 1 of 2 leaves it."""
    progress = json.loads((run_dir / "progress.json").read_text())
    ledger = progress["ledger"]
    for key in ("train_macs", "eval_macs", "train_iters"):
        ledger[key] = {t: v for t, v in ledger[key].items() if t == "1"}
    (run_dir / "progress.json").write_text(json.dumps(
        {"done_through": 1, "records": progress["records"][:1], "ledger": ledger}
    ))


def edited(edit):
    """A corruption of a JSON artifact: `edit` applied to its object."""
    def corrupt(raw):
        doc = json.loads(raw)
        edit(doc)
        return json.dumps(doc).encode()
    return corrupt


def edited_config(edit):
    """A corruption of a JSON artifact: `edit` applied to the config object inside it."""
    return edited(lambda doc: edit(doc["config"]))


def package_env():
    """The environment a subprocess imports this package's sources in."""
    return {**os.environ, "PYTHONPATH": str(Path(runner.__file__).resolve().parents[1])}


@contextlib.contextmanager
def lock_held_elsewhere(directory):
    """For the `with` block, `directory`'s writer lock is held by a process of its own, which is
    then SIGKILLed: the kernel drops a dead holder's lock."""
    hold = ("import sys, time\nfrom ticstream.formats import lock_directory\n"
            "with lock_directory(sys.argv[1]):\n    print('locked', flush=True)\n    time.sleep(600)\n")
    holder = subprocess.Popen([sys.executable, "-c", hold, str(directory)], env=package_env(), stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline() == b"locked\n"
        yield
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()


def train_process(cfg, data, out, seed=0):
    """`ticstream train` on `data` in a process of its own."""
    return subprocess.Popen([sys.executable, "-m", "ticstream.cli", "train", "--config", str(cfg), "--data", str(data),
                             "--method", "sequential", "--seed", str(seed), "--out", str(out)], env=package_env())


def written_bytes(*roots):
    """Every file under `roots` by its path below its root, a manifest.json without its wall clock."""
    found = {}
    for i, root in enumerate(roots):
        for path in sorted(root.rglob("*")):
            if path.is_file():
                raw = path.read_bytes()
                if path.name == "manifest.json":
                    raw = json.dumps({k: v for k, v in json.loads(raw).items() if k != "wall_clock_seconds"})
                found[i, path.relative_to(root).as_posix()] = raw
    return found


class TestGen:
    def test_writes_stream(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert (tmp_path / "data" / "stream_manifest.json").exists()
        assert "2 timestep files" in capsys.readouterr().out

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d")]) == 1
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ("[]", "not a JSON object"),
    ])
    def test_unparsable_config_is_exit_1(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_missing_field_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        del cfg["batch_size"]
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "missing field 'batch_size'" in err

    def test_unknown_field_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["schedule"]["warmup"] = 3
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "'warmup'" in err

    def test_unknown_top_level_field_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["lwf_lamda"] = 0.5
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "unknown field 'lwf_lamda'" in err

    @pytest.mark.parametrize("edit, field", [
        (lambda cfg: cfg.update(batch_size="8"), "batch_size"),
        (lambda cfg: cfg["schedule"].update(max_lr="x"), "max_lr"),
        (lambda cfg: cfg.update(total_iters=None), "total_iters"),
        (lambda cfg: cfg["stream"].update(class_birth_schedule=[[1]]), "class_birth_schedule"),
        (lambda cfg: cfg.update(seeds="ab"), "seeds"),
        (lambda cfg: cfg.update(methods="sequential"), "methods"),
        (lambda cfg: cfg.update(hidden_dim=0), "hidden_dim"),
        (lambda cfg: cfg.update(embed_dim=0), "embed_dim"),
        (lambda cfg: cfg.update(hidden_dim="8"), "hidden_dim"),
        (lambda cfg: cfg.update(batch_size=8.0), "batch_size"),
        (lambda cfg: cfg.update(batch_size=True), "batch_size"),
        (lambda cfg: cfg.update(total_iters=12.5), "total_iters"),
        (lambda cfg: cfg["stream"].update(num_steps=3.0), "num_steps"),
        (lambda cfg: cfg["schedule"].update(warmup_iters=2.5), "warmup_iters"),
        (lambda cfg: cfg.update(merge_first_k=1.0), "merge_first_k"),
        (lambda cfg: cfg["schedule"].update(max_lr=float("inf")), "max_lr"),
        (lambda cfg: cfg["stream"].update(noise_sigma=float("nan")), "noise_sigma"),
        (lambda cfg: cfg.update(lwf_lambda=float("nan")), "lwf_lambda"),
        (lambda cfg: cfg.update(output_dir=5), "output_dir"),
        (lambda cfg: cfg.update(seeds=[True]), "seeds"),
        (lambda cfg: cfg.update(methods=["sequential", "sequential"]), "methods"),
        (lambda cfg: cfg.update(seeds=[0, 0]), "seeds"),
        (lambda cfg: cfg["schedule"].update(total_iters=5000), "total_iters"),
    ], ids=["batch_size_string", "max_lr_string", "total_iters_null", "birth_entry_of_one",
            "seeds_string", "methods_string", "hidden_dim_zero", "embed_dim_zero", "hidden_dim_string",
            "batch_size_float", "batch_size_bool", "total_iters_fraction", "num_steps_float",
            "warmup_iters_fraction", "merge_first_k_float", "max_lr_infinity", "noise_sigma_nan",
            "lwf_lambda_nan", "output_dir_number", "seed_bool", "method_repeated", "seed_repeated",
            "schedule_total_iters"])
    def test_wrongly_typed_value_is_exit_1_naming_the_file(self, tmp_path, capsys, edit, field):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        edit(cfg)
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and field in err.replace(str(bad), "")
        assert not (tmp_path / "d").exists()

    def test_integer_for_a_float_field_loads(self, tmp_path):
        path = tmp_path / "int_lr.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["schedule"]["max_lr"] = 1
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 0

    def test_invalid_config_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["stream"]["num_steps"] = 0
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1

    def test_no_class_at_step_1_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["stream"].update(static_class_count=0, class_birth_schedule=[[2, 2]])
        bad.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        assert "no class alive at step 1" in capsys.readouterr().err


class TestTrainEvalReport:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        out = tmp_path / "runs"
        assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--method", "sequential", "--seed", "0", "--out", str(out)]) == 0
        return cfg, data, out

    def test_train_writes_run_dir(self, trained):
        _, _, out = trained
        run_dir = out / "sequential" / "seed_0"
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.json").exists()

    def test_train_unknown_method_is_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["gen", "--config", str(cfg), "--out", str(data)])
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--method", "nope", "--seed", "0", "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()
        # refused before a stream is generated into a --data that holds none
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "new_data"),
                     "--method", "nope", "--seed", "0", "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "new_data").exists() and not (tmp_path / "r").exists()

    def test_eval_rebuilds(self, trained, capsys):
        _, data, out = trained
        run_dir = out / "sequential" / "seed_0"
        # a run's manifest names no output directory, and its config still scores
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["output_dir"] is None
        assert main(["eval", "--run", str(run_dir), "--data", str(data)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["method"] == "sequential"

    def test_eval_changes_no_artifact_of_a_finished_run(self, trained):
        _, data, out = trained
        run_dir = out / "sequential" / "seed_0"
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert main(["eval", "--run", str(run_dir), "--data", str(data)]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_a_run_directory_another_process_holds_is_exit_2_and_unchanged(self, trained, capsys):
        cfg, data, out = trained
        run_dir = out / "sequential" / "seed_0"
        kill_after_step_1(run_dir)  # a train that got in would write step 2
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        train = ["train", "--config", str(cfg), "--data", str(data),
                 "--method", "sequential", "--seed", "0", "--out", str(out)]
        with lock_held_elsewhere(run_dir):
            for argv in (train, ["eval", "--run", str(run_dir), "--data", str(data)]):
                assert main(argv) == 2
                assert f"{run_dir}: another writer holds its lock" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        assert main(train) == 0
        assert json.loads((run_dir / "progress.json").read_text())["done_through"] == 2

    def test_eval_refuses_a_manifest_of_another_artifact_version(self, trained, capsys):
        # as a resume does (exit 1 there: `train` checks the manifest as the run's identity)
        cfg, data, out = trained
        manifest = out / "sequential" / "seed_0" / "manifest.json"
        manifest.write_bytes(edited(lambda doc: doc.update(artifact_version=99))(manifest.read_bytes()))
        before = {p.name: p.read_bytes() for p in manifest.parent.iterdir()}
        assert main(["eval", "--run", str(manifest.parent), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "'artifact_version'" in err
        assert {p.name: p.read_bytes() for p in manifest.parent.iterdir()} == before
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--method", "sequential", "--seed", "0", "--out", str(out)]) == 1

    def test_eval_refuses_an_unfinished_run(self, trained, capsys):
        _, data, out = trained
        run_dir = out / "sequential" / "seed_0"
        # a run killed after step 1: step-1 artifacts and a progress.json counting one step
        (run_dir / "step_002.ticc").unlink()
        kill_after_step_1(run_dir)
        trimmed = (run_dir / "progress.json").read_bytes()
        assert main(["eval", "--run", str(run_dir), "--data", str(data)]) == 2
        assert "step 2 is not trained" in capsys.readouterr().err
        assert [p.name for p in run_dir.glob("*.ticc")] == ["step_001.ticc"]
        assert (run_dir / "progress.json").read_bytes() == trimmed

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:20],  # truncated inside a string
        lambda raw: raw[:5] + b"\xff" + raw[6:],  # a byte that is not UTF-8
        # a progress.json that does not fit the 2-step run it stands for
        *[edited(lambda doc, count=count: doc.update(done_through=count)) for count in (7, "2", -1, 2.0, True)],
        edited(lambda doc: doc.update(done_through=1)),  # beside 2 records and a 2-step ledger
        edited(lambda doc: doc.update(records={})),
        edited(lambda doc: doc["ledger"]["train_macs"].pop("2")),
        edited(lambda doc: doc.update(ledger=[])),
    ], ids=["truncated", "not_utf8", "count_past_the_stream", "count_a_string", "count_negative", "count_a_float",
            "count_a_bool", "count_short_of_the_records", "records_not_a_list", "ledger_short_of_the_count",
            "ledger_not_an_object"])
    def test_corrupt_progress_is_exit_2_naming_the_file(self, trained, capsys, command, corrupt):
        cfg, data, out = trained
        progress = out / "sequential" / "seed_0" / "progress.json"
        progress.write_bytes(corrupt(progress.read_bytes()))
        argv = {
            "train": ["train", "--config", str(cfg), "--data", str(data),
                      "--method", "sequential", "--seed", "0", "--out", str(out)],
            "eval": ["eval", "--run", str(progress.parent), "--data", str(data)],
        }[command]
        assert main(argv) == 2
        assert str(progress) in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[:30], "unreadable stream_manifest"),
        (lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != "files"}).encode(),
         "missing field 'files'"),
        (edited_config(lambda cfg: cfg.update(drift=0.5)), "unknown field 'drift'"),
        (edited_config(lambda cfg: cfg.pop("class_birth_schedule")), "missing field 'class_birth_schedule'"),
        (lambda raw: json.dumps({**json.loads(raw), "config": []}).encode(), "not a JSON object"),
        *[(edited_config(lambda cfg, e=entry: cfg.update(class_birth_schedule=[e])), "'class_birth_schedule'")
          for entry in ([1], [1, 2, 3], ["1", 3], 5)],
        (edited_config(lambda cfg: cfg.update(noise_sigma=float("nan"))), "'noise_sigma'"),
        # well typed, but out of range: validated as a config file is
        (edited_config(lambda cfg: cfg.update(noise_sigma=-1)), "noise_sigma must be >= 0"),
        (edited_config(lambda cfg: cfg.update(drift_angle=4.0)), "drift_angle must be in [0, pi)"),
        (edited_config(lambda cfg: cfg.update(static_class_count=-1)), "static_class_count must be >= 0"),
    ], ids=["truncated", "no_files", "config_unknown", "config_missing", "config_not_an_object",
            "birth_entry_of_one", "birth_entry_of_three", "birth_entry_string", "birth_entry_not_an_array",
            "noise_sigma_nan", "noise_sigma_negative", "drift_angle_past_pi", "static_class_count_negative"])
    def test_corrupt_stream_manifest_is_exit_2_naming_the_file(self, trained, capsys, corrupt, message):
        cfg, data, out = trained
        manifest = data / "stream_manifest.json"
        manifest.write_bytes(corrupt(manifest.read_bytes()))
        for argv in (["train", "--config", str(cfg), "--data", str(data),
                      "--method", "sequential", "--seed", "0", "--out", str(out)],
                     ["eval", "--run", str(out / "sequential" / "seed_0"), "--data", str(data)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert str(manifest) in err and message in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_stream_of_another_config_is_exit_1_naming_the_directory_and_field(self, trained, capsys,
                                                                                 command):
        cfg, data, out = trained
        manifest = data / "stream_manifest.json"
        manifest.write_bytes(edited_config(lambda c: c.update(seed=12))(manifest.read_bytes()))
        argv = {
            "train": ["train", "--config", str(cfg), "--data", str(data),
                      "--method", "sequential", "--seed", "0", "--out", str(out)],
            "eval": ["eval", "--run", str(out / "sequential" / "seed_0"), "--data", str(data)],
        }[command]
        assert main(argv) == 1
        assert f"{data}: stored stream config differs from experiment config in field 'seed'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("files", [
        ["step_001.ticd"],
        ["step_002.ticd", "step_001.ticd"],
        ["step_001.ticd", "step_002.ticd", "step_002.ticd"],
        None,  # the manifest is kept, and step 1's file is copied over step 2's
    ], ids=["one_left_out", "reordered", "listed_twice", "copied_over"])
    def test_stream_other_than_its_configs_steps_is_exit_2_naming_the_file(self, trained, tmp_path, capsys,
                                                                           files, command):
        cfg, data, out = trained
        named = data / "stream_manifest.json"
        if files is None:
            named = data / "step_002.ticd"
            named.write_bytes((data / "step_001.ticd").read_bytes())
        else:
            named.write_text(json.dumps({**json.loads(named.read_text()), "files": files}))
        argv = {
            "train": ["train", "--config", str(cfg), "--data", str(data),
                      "--method", "sequential", "--seed", "0", "--out", str(tmp_path / "again")],
            "eval": ["eval", "--run", str(out / "sequential" / "seed_0"), "--data", str(data)],
        }[command]
        assert main(argv) == 2
        assert str(named) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(lwf_lamda=0.5), "unknown field 'lwf_lamda'"),
        (lambda cfg: cfg.pop("batch_size"), "missing field 'batch_size'"),
        (lambda cfg: cfg["schedule"].update(warmup=3), "unknown field 'warmup'"),
        (lambda cfg: cfg["stream"].pop("seed"), "missing field 'seed'"),
        (lambda cfg: cfg["stream"].update(class_birth_schedule=[[1]]), "'class_birth_schedule'"),
        (lambda cfg: cfg.update(lwf_lambda=float("nan")), "'lwf_lambda'"),
        (lambda cfg: cfg["schedule"].update(total_iters=5000), "'total_iters'"),
        # well typed, but out of range: validated as a config file is
        (lambda cfg: cfg.update(merge_first_k=0), "merge_first_k out of range"),
        (lambda cfg: cfg.update(merge_first_k=9), "merge_first_k out of range"),
        (lambda cfg: cfg.update(batch_size=0), "batch_size, hidden_dim and embed_dim must be >= 1"),
    ], ids=["unknown", "missing", "unknown_nested", "missing_nested", "birth_entry_of_one", "lwf_lambda_nan",
            "schedule_total_iters", "merge_first_k_0", "merge_first_k_past_the_stream", "batch_size_0"])
    def test_malformed_manifest_config_is_exit_2_naming_the_file(self, trained, capsys, edit, message):
        _, data, out = trained
        manifest = out / "sequential" / "seed_0" / "manifest.json"
        manifest.write_bytes(edited_config(edit)(manifest.read_bytes()))
        assert main(["eval", "--run", str(manifest.parent), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and message in err

    def test_train_resumed_under_another_config_is_exit_1(self, trained, tmp_path, capsys):
        _, data, out = trained
        run_dir = out / "sequential" / "seed_0"
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        cfg = write_config(tmp_path, schedule=ScheduleConfig(kind="warmup_cosine", max_lr=0.9, total_iters=0,
                                                             warmup_iters=2))
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--method", "sequential", "--seed", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(run_dir) in err and "schedule" in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_checkpoint_of_another_run_is_exit_2(self, trained, capsys, command):
        cfg, data, out = trained
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--method", "lwf", "--seed", "0", "--out", str(out)]) == 0
        run_dir = out / "sequential" / "seed_0"
        (run_dir / "step_001.ticc").write_bytes((out / "lwf" / "seed_0" / "step_001.ticc").read_bytes())
        if command == "train":  # a run killed after step 1 resumes from the step-1 checkpoint
            kill_after_step_1(run_dir)
        argv = {
            "train": ["train", "--config", str(cfg), "--data", str(data),
                      "--method", "sequential", "--seed", "0", "--out", str(out)],
            "eval": ["eval", "--run", str(run_dir), "--data", str(data)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(run_dir / "step_001.ticc") in err and "'lwf'" in err

    def test_eval_with_truncated_checkpoint_is_exit_2(self, trained, capsys):
        _, data, out = trained
        last = out / "sequential" / "seed_0" / "step_002.ticc"
        last.write_bytes(last.read_bytes()[:-5])
        assert main(["eval", "--run", str(last.parent), "--data", str(data)]) == 2
        assert "truncated file" in capsys.readouterr().err

    def test_eval_with_undecodable_method_id_is_exit_2(self, trained, capsys):
        _, data, out = trained
        last = out / "sequential" / "seed_0" / "step_002.ticc"
        raw = bytearray(last.read_bytes())
        raw[12] = 0xFF  # first byte of the method id, after magic, version and its length
        last.write_bytes(bytes(raw))
        assert main(["eval", "--run", str(last.parent), "--data", str(data)]) == 2
        assert "byte offset 12" in capsys.readouterr().err

    def test_eval_with_flipped_payload_byte_is_exit_2(self, trained, capsys):
        _, data, out = trained
        first = out / "sequential" / "seed_0" / "step_001.ticc"
        raw = bytearray(first.read_bytes())
        raw[-40] ^= 0x01  # the lowest bit of log_scale, the last parameter before the digest
        first.write_bytes(bytes(raw))
        assert main(["eval", "--run", str(first.parent), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert "SHA-256" in err and str(first) in err

    def test_eval_with_checkpoint_of_other_shape_is_exit_2(self, trained, capsys):
        _, data, out = trained
        last = out / "sequential" / "seed_0" / "step_002.ticc"
        ckpt = load_checkpoint(last)
        ckpt.params = init_params(ModelDims(image_dim=7, text_dim=5, hidden_dim=8, embed_dim=4), Rng(0))
        save_checkpoint(last, ckpt)
        assert main(["eval", "--run", str(last.parent), "--data", str(data)]) == 2
        assert "incompatible with tower image" in capsys.readouterr().err

    def test_eval_reads_the_stream_and_never_writes_one(self, trained, tmp_path, capsys):
        _, _, out = trained
        data = tmp_path / "no_stream"
        assert main(["eval", "--run", str(out / "sequential" / "seed_0"), "--data", str(data)]) == 2
        assert str(data / "stream_manifest.json") in capsys.readouterr().err
        assert not data.exists()

    def test_eval_missing_run_is_nonzero(self, tmp_path):
        assert main(["eval", "--run", str(tmp_path / "ghost"),
                     "--data", str(tmp_path / "d")]) in (1, 2)

    def test_report(self, trained, tmp_path, capsys):
        _, _, out = trained
        report = tmp_path / "report.csv"
        assert main(["report", "--runs", str(out), "--out", str(report)]) == 0
        assert report.read_text().startswith("method,seed,task,metric,value")

    def test_report_names_the_file_and_the_field_it_cannot_read(self, trained, tmp_path, capsys):
        _, _, out = trained
        metrics = out / "sequential" / "seed_0" / "metrics.json"
        metrics.write_bytes(edited(lambda doc: doc.pop("ledger"))(metrics.read_bytes()))
        assert main(["report", "--runs", str(out), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert str(metrics) in err and "missing field 'ledger'" in err

    def test_report_without_manifests_is_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--runs", str(empty),
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestDataDirectoryWriters:
    def test_a_second_writer_waits_for_the_first_and_reads_what_it_wrote(self, tmp_path):
        cfg = write_config(tmp_path)
        solo = train_process(cfg, tmp_path / "solo_data", tmp_path / "solo_runs")
        assert solo.wait(timeout=120) == 0
        data, out = tmp_path / "data", tmp_path / "runs"
        data.mkdir()
        with lock_held_elsewhere(data):
            waiting = train_process(cfg, data, out)
            time.sleep(2)  # ample for a train that did not wait to write its stream
            while_held = waiting.poll(), [p.name for p in data.iterdir()], out.exists()
        assert waiting.wait(timeout=120) == 0
        assert while_held == (None, ["writer.lock"], False)
        assert written_bytes(data, out) == written_bytes(tmp_path / "solo_data", tmp_path / "solo_runs")

    def test_trains_started_together_on_one_fresh_data_directory_all_succeed(self, tmp_path):
        cfg = write_config(tmp_path)
        trains = [train_process(cfg, tmp_path / "data", tmp_path / "runs", seed) for seed in (0, 1, 2)]
        assert [p.wait(timeout=120) for p in trains] == [0, 0, 0]


class TestRunAndIid:
    def test_run_full_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert "completed 1 runs" in capsys.readouterr().out
        assert (tmp_path / "runs" / "sequential" / "seed_0" / "metrics.json").exists()

    def test_run_writes_under_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"completed 1 runs under {out}" in capsys.readouterr().out
        assert (out / "sequential" / "seed_0" / "metrics.json").exists()
        assert (out / "data" / "stream_manifest.json").exists()
        assert not (tmp_path / "runs").exists()

    def test_iid_split(self, tmp_path, capsys):
        stream = StreamConfig(
            num_steps=1, per_step_train_size=32, per_step_eval_size=8,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=(), drift_angle=0.0, noise_sigma=0.1,
            static_class_count=3, seed=23,
        )
        cfg = write_config(tmp_path, stream=stream, total_iters=8)
        assert main(["iid-split", "--config", str(cfg), "--splits", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "splits=1" in out and "splits=2" in out

    def test_iid_split_checks_every_split_before_any_trains(self, tmp_path, capsys, monkeypatch):
        # 8 iterations leave 1 per step at k = 8, fewer than the warmup of 2;
        # k = 1, 2 and 4 fit, and must not train before split 8 is refused
        stream = StreamConfig(
            num_steps=1, per_step_train_size=32, per_step_eval_size=8,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=(), drift_angle=0.0, noise_sigma=0.1,
            static_class_count=3, seed=23,
        )
        cfg = write_config(tmp_path, stream=stream, total_iters=8)
        calls = []
        run_step = runner.run_step
        monkeypatch.setattr(runner, "run_step", lambda *args: calls.append(args) or run_step(*args))
        assert main(["iid-split", "--config", str(cfg), "--splits", "1,2,4,8"]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "split 8" in err and "warmup_iters" in err

    def test_iid_split_refuses_an_empty_shard_before_any_split_trains(self, tmp_path, capsys, monkeypatch):
        # 3 training records leave split 4 a shard of none; split 1 must not train first
        stream = StreamConfig(
            num_steps=1, per_step_train_size=3, per_step_eval_size=8,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=(), drift_angle=0.0, noise_sigma=0.1,
            static_class_count=3, seed=23,
        )
        cfg = write_config(tmp_path, stream=stream, total_iters=16)
        calls = []
        run_step = runner.run_step
        monkeypatch.setattr(runner, "run_step", lambda *args: calls.append(args) or run_step(*args))
        assert main(["iid-split", "--config", str(cfg), "--splits", "1,4"]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "split 4" in err and "per_step_train_size" in err

    def test_iid_split_refuses_a_repeated_split_before_any_split_trains(self, tmp_path, capsys, monkeypatch):
        stream = StreamConfig(
            num_steps=1, per_step_train_size=32, per_step_eval_size=8,
            image_dim=6, text_dim=5, latent_dim=4,
            class_birth_schedule=(), drift_angle=0.0, noise_sigma=0.1,
            static_class_count=3, seed=23,
        )
        cfg = write_config(tmp_path, stream=stream, total_iters=8)
        calls = []
        run_step = runner.run_step
        monkeypatch.setattr(runner, "run_step", lambda *args: calls.append(args) or run_step(*args))
        assert main(["iid-split", "--config", str(cfg), "--splits", "1,1,2"]) == 1
        assert calls == []
        assert "split 1 is listed twice" in capsys.readouterr().err

    def test_iid_split_on_drifting_stream_is_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["iid-split", "--config", str(cfg), "--splits", "1"]) == 1

    def test_iid_split_non_integer_split_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["iid-split", "--config", str(cfg), "--splits", "1,two"]) == 1
        assert "--splits" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (dict(lwf_lambda=-0.5), "lwf_lambda must be >= 0"),
        # 12 iterations over 2 steps leave 6 per step, fewer than the warmup
        (dict(schedule=ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=0, warmup_iters=7)),
         "warmup_iters"),
        # 6 iterations a step decay over the last one only
        (dict(schedule=ScheduleConfig(kind="const_cosine", max_lr=1e-3, total_iters=0)),
         "const_cosine cycle of 6 iterations"),
        # 0 or 1 iterations over 2 steps leave each step's cycle none to train
        *[(dict(schedule=ScheduleConfig(kind="warmup_cosine", max_lr=1e-3, total_iters=0), total_iters=n),
           "got total_iters 0") for n in (0, 1)],
    ])
    def test_bad_run_config_is_exit_1_before_any_work(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, methods=["lwf"], **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.ticc"))
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("threads", ["two", "0", "-1"])
    def test_bad_tic_threads_is_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch, threads):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("TIC_THREADS", threads)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "TIC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
