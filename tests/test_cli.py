import dataclasses
import json

import pytest

from infercarbon import arch, carbon, cli, sampler, traces
from infercarbon.cli import main
from infercarbon.features import GLOBAL_FEATURE_WIDTH, NODE_FEATURE_WIDTH
from infercarbon.gnn import TrainHyper, init_params, save_checkpoint
from infercarbon.roofline import builtin_gpu_catalog

from conftest import identity_stats, src_first_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_oracle_text_report(self, capsys):
        code, out, _ = run(capsys, "estimate", "tiny-flash", "t4", "--oracle")
        assert code == 0
        assert "gCO2eq" in out

    def test_oracle_json_report(self, capsys):
        code, out, _ = run(capsys, "estimate", "tiny-flash", "a100", "--oracle", "--json",
                           "--batch", "2", "--prompt", "128", "--gen", "16", "--n-gpu", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_g"] > 0
        assert payload["gpu_count"] == 2
        assert payload["assumptions"]["predictor"] == "synthetic-roofline-v1"

    def test_missing_predictor_is_config_error(self, capsys):
        code, _, err = run(capsys, "estimate", "tiny-flash", "t4")
        assert code == 2
        assert "oracle" in err

    @pytest.mark.parametrize("flag, field", [
        ("--pue", "pue"), ("--intensity", "carbon_intensity"), ("--cpa", "cpa_g_per_mm2"),
        ("--lifetime", "lifetime_seconds"), ("--packaging", "packaging_g"),
    ])
    def test_non_finite_carbon_parameter_exits_2(self, capsys, flag, field):
        for value in ("nan", "inf"):
            code, out, err = run(capsys, "estimate", "tiny-flash", "t4", "--oracle", "--json",
                                 flag, value)
            assert code == 2
            assert err == f"error: {flag} must be finite, got {value}\n"
            assert out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch", "0", "--batch must be >= 1, got 0"),
        ("--prompt", "0", "--prompt must be >= 1, got 0"),
        ("--gen", "0", "--gen must be >= 1, got 0"),
        ("--n-gpu", "0", "--n-gpu must be >= 1, got 0"),
        ("--n-gpu", "3", "--n-gpu 3 does not divide the hidden size 64 of 'tiny-flash'"),
        ("--pue", "0.5", "--pue must be >= 1, got 0.5"),
        ("--intensity", "-1", "--intensity must be >= 0, got -1.0"),
        ("--cpa", "-1", "--cpa must be >= 0, got -1.0"),
        ("--lifetime", "0", "--lifetime must be > 0, got 0.0"),
        ("--packaging", "-1", "--packaging must be >= 0, got -1.0"),
    ])
    def test_out_of_range_flag_is_refused_under_its_name(self, capsys, flag, value, message):
        code, out, err = run(capsys, "estimate", "tiny-flash", "t4", "--oracle", flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_oracle_and_checkpoint_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "tiny-flash", "t4", "--oracle",
                  "--checkpoint", str(tmp_path / "model.json")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--checkpoint: not allowed with argument --oracle" in err

    def test_unknown_arch_is_config_error(self, capsys):
        code, _, err = run(capsys, "estimate", "no-such-model", "t4", "--oracle")
        assert code == 2
        assert "no-such-model" in err

    def test_unknown_gpu_is_config_error(self, capsys):
        code, _, err = run(capsys, "estimate", "tiny-flash", "v100", "--oracle")
        assert code == 2

    def test_env_var_gpu_catalog_override(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "gpus.cfg"
        custom.write_text(
            "[mychip]\nfp16_tops = 10\nmemory_gbs = 100\nnetwork_gbs = 10\n"
            "power_w = 50\narea_mm2 = 100\n"
        )
        monkeypatch.setenv("INFERCARBON_GPU_CATALOG", str(custom))
        code, out, _ = run(capsys, "estimate", "tiny-flash", "mychip", "--oracle", "--json")
        assert code == 0
        assert json.loads(out)["gpu_name"] == "mychip"
        # the builtin names are gone once the override is active
        code, _, _ = run(capsys, "estimate", "tiny-flash", "a100", "--oracle")
        assert code == 2

    @pytest.mark.parametrize("lines, message", [
        ("memory_gbs = inf\narea_mm2 = 100", "rates and power must be positive"),
        ("memory_gbs = 100\narea_mm2 = -545", "area_mm2 must be finite and >= 0"),
    ])
    def test_out_of_range_catalog_gpu_exits_2_naming_the_section(self, capsys, tmp_path,
                                                                 lines, message):
        path = tmp_path / "gpus.cfg"
        path.write_text(f"[g]\nfp16_tops = 10\nnetwork_gbs = 10\npower_w = 50\n{lines}\n")
        code, out, err = run(capsys, "estimate", "llama3-8b", "g", "--gpu-catalog", str(path),
                             "--oracle")
        assert code == 2
        assert err == f"error: {path}: section 'g': GPU 'g' {message}\n"
        assert out == ""


class TestConsoleEntry:
    def test_installed_script_runs(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "infercarbon.cli", "estimate", "tiny-flash", "t4",
             "--oracle", "--json"],
            capture_output=True, text=True, env=src_first_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total_g"] > 0


class TestColdImports:
    def test_estimate_and_graph_load_neither_sampling_nor_traces(self, tmp_path):
        # a fresh interpreter, since this one has loaded every module
        import subprocess
        import sys

        checkpoint = tmp_path / "model.json"
        save_checkpoint(checkpoint, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                        identity_stats(), seed=0)
        commands = [["estimate", "tiny-flash", "t4", "--oracle", "--json"],
                    ["estimate", "tiny-mha", "a100", "--n-gpu", "2", "--checkpoint",
                     str(checkpoint)],
                    ["graph", "tiny-flash", "--format", "json"]]
        code = ("import contextlib, io, json, sys\n"
                "from infercarbon import cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert cli.main(argv) == 0, argv\n"
                "print(json.dumps(sorted(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                              capture_output=True, text=True, env=src_first_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "infercarbon.carbon" in loaded
        assert loaded.isdisjoint({"infercarbon.sampler", "infercarbon.traces", "hashlib"})


class TestGraph:
    def test_dot_export(self, capsys):
        code, out, _ = run(capsys, "graph", "tiny-flash", "--n-gpu", "4")
        assert code == 0
        assert out.startswith("digraph layer {")
        assert out.count("[label=") == 15
        assert out.count('label="all_reduce"') == 2

    def test_json_export_nonflash(self, capsys):
        code, out, _ = run(capsys, "graph", "tiny-mha", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        kinds = {n["kind"] for n in payload["nodes"]}
        assert "matmul_qk" in kinds and "fuse_attn" not in kinds

    def test_bad_format_is_config_error(self, capsys):
        code, _, err = run(capsys, "graph", "tiny-flash", "--format", "xml")
        assert code == 2


class TestTraceStats:
    def test_stats_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["TIMESTAMP,ContextTokens,GeneratedTokens"]
        rows += [f"{i},{(i % 100) + 1},{(i % 10) + 1}" for i in range(1000)]
        trace.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "trace-stats", str(trace), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1000
        assert payload["prompt_percentiles"]["p50"] == 50
        assert sum(payload["prompt_histogram"]) == 1000

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "trace-stats", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_stats_text(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["TIMESTAMP,ContextTokens,GeneratedTokens"]
        rows += [f"{i},{i + 1},{2 * i + 1}" for i in range(100)]
        trace.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "trace-stats", str(trace))
        assert code == 0
        assert out == ("records            100\n"
                       "prompt tokens      p50=50  p90=90  p99=99\n"
                       "generated tokens   p50=99  p90=179  p99=197\n")


class TestMalformedFiles:
    @pytest.mark.parametrize("text", [
        "[1]", "", "not json",
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log", "params": [1]}',
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log"}',
        '{"format": "infercarbon-checkpoint", "version": 3, "target": "log", "params": {"conv1": '
        '{"dtype": "<f8", "shape": [1, 1], "data": "x"}}}',
        '{"format": "infercarbon-checkpoint", "version": 1, "params": {"conv1_w": [["x"]]}}',
    ])
    def test_checkpoint_is_config_error_naming_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, _, err = run(capsys, "estimate", "tiny-flash", "a100", "--checkpoint", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_version_checkpoint_exits_2_naming_the_file_and_version(self, capsys,
                                                                           tmp_path, version):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "infercarbon-checkpoint", "version": version,
                                    "params": {}}))
        code, out, err = run(capsys, "estimate", "tiny-flash", "a100", "--checkpoint", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: checkpoint version {version} is not readable" in err
        assert "re-run `infercarbon train` or `infercarbon sample`" in err

    @pytest.mark.parametrize("command", ["estimate", "eval"])
    def test_checkpoint_of_another_target_exits_2_naming_the_file_and_both(self, capsys,
                                                                           tmp_path, command):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                        identity_stats(), seed=0)
        payload = json.loads(path.read_text())
        payload["target"] = "log1p"
        path.write_text(json.dumps(payload))
        if command == "estimate":
            argv = ["estimate", "tiny-flash", "a100", "--checkpoint", str(path)]
        else:
            argv = ["eval", "--checkpoint", str(path),
                    "--dataset", str(small_dataset(tmp_path / "data.jsonl"))]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f'{path}: checkpoint target "log1p" is not this release\'s target "log"' in err

    @pytest.mark.parametrize("command", ["estimate", "eval"])
    @pytest.mark.parametrize("key, value, message", [
        ("exrta", {}, "malformed checkpoint: header has an undefined key 'exrta'"),
        ("seed", "x", "malformed checkpoint: field 'seed' must be an integer, got \"x\""),
        ("extra", [1], "malformed checkpoint: field 'extra' must be an object, got [1]"),
    ], ids=["unknown-key", "seed", "extra"])
    def test_checkpoint_header_refusal_exits_2_naming_the_file_and_key(self, capsys, tmp_path,
                                                                       command, key, value,
                                                                       message):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                        identity_stats(), seed=0)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        if command == "estimate":
            argv = ["estimate", "tiny-flash", "a100", "--checkpoint", str(path)]
        else:
            argv = ["eval", "--checkpoint", str(path),
                    "--dataset", str(small_dataset(tmp_path / "data.jsonl"))]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_header_key_it_does_not_define_exits_2_naming_the_file(self, capsys,
                                                                           tmp_path, command):
        path = small_dataset(tmp_path / "data.jsonl")
        header, *records = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps({**json.loads(header), "oracle": "v2"}), *records])
                        + "\n")
        checkpoint = tmp_path / "model.json"
        if command == "train":
            argv = ["train", "--dataset", str(path), "--out", str(checkpoint)]
        else:
            save_checkpoint(checkpoint, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                            identity_stats(), seed=0)
            argv = ["eval", "--checkpoint", str(checkpoint), "--dataset", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:1: header has an undefined key 'oracle' "
                       "(the keys are format, version, count)\n")

    @pytest.mark.parametrize("slot", ["node_std", "global_std"])
    def test_negative_feature_std_exits_2_naming_file_and_field(self, capsys, tmp_path, slot):
        path = tmp_path / "model.json"
        stats = identity_stats()
        getattr(stats, slot)[0] = -5.0
        save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH), stats,
                        seed=0)
        code, out, err = run(capsys, "estimate", "tiny-flash", "a100", "--checkpoint", str(path),
                             "--json")
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert f"field '{slot}' must not be negative, got -5.0" in err

    @pytest.mark.parametrize("text", ["[1]\n", "", "not json\n"])
    def test_dataset_is_config_error_naming_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "data.jsonl"
        path.write_text(text)
        code, _, err = run(capsys, "train", "--dataset", str(path),
                           "--out", str(tmp_path / "model.json"))
        assert code == 2
        assert f"{path}:1" in err

    def test_dataset_record_of_the_wrong_json_type_exits_2(self, capsys, tmp_path):
        path = small_dataset(tmp_path / "data.jsonl")
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["gpu"]["th_max"] = [1.0]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--dataset", str(path), "--out", str(out))
        assert code == 2
        assert err == f"error: {path}:2: field 'th_max' must be an object, got [1.0]\n"
        assert not out.exists()


class TestUnreadablePaths:
    @pytest.mark.parametrize("argv", [
        ["estimate", "tiny-flash", "a100", "--checkpoint", "{dir}"],
        ["estimate", "tiny-flash", "a100", "--oracle", "--gpu-catalog", "{dir}"],
        ["eval", "--checkpoint", "{checkpoint}", "--dataset", "{dir}"],
        ["trace-stats", "{dir}"],
        ["sample", "--out", "{file}", "--a", "5", "--b", "1", "--k", "1"],
    ], ids=["estimate-checkpoint", "estimate-gpu-catalog", "eval-dataset", "trace-stats",
            "sample-out"])
    def test_a_path_that_cannot_be_read_or_made_exits_2_naming_it(self, capsys, tmp_path,
                                                                   monkeypatch, argv):
        # a directory where a file is read, a file where the output directory
        # goes; a permission error is an OSError too, but takes a user who
        # lacks the permission, so it is not made here
        monkeypatch.setattr(sampler, "label_points", refuse("labelling started"))
        checkpoint, taken = tmp_path / "model.json", tmp_path / "taken"
        save_checkpoint(checkpoint, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                        identity_stats(), seed=0)
        taken.write_text("")
        names = {"dir": str(tmp_path), "checkpoint": str(checkpoint), "file": str(taken)}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert names["file" if argv[0] == "sample" else "dir"] in err


class TestOutFiles:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("out, message", [
        ("{dir}", "--out {dir} is a directory"),
        ("{dir}/absent/out.json", "--out {dir}/absent/out.json: no directory {dir}/absent"),
    ], ids=["directory", "missing-parent"])
    def test_an_out_file_that_cannot_be_written_exits_2_before_any_work(
            self, capsys, tmp_path, monkeypatch, command, out, message):
        monkeypatch.setattr(sampler, "load_dataset", refuse("the dataset was read"))
        monkeypatch.setattr(cli.gnn_mod, "load_checkpoint", refuse("the checkpoint was read"))
        inputs = {"train": ["--dataset", "data.jsonl"],
                  "eval": ["--checkpoint", "model.json", "--dataset", "data.jsonl"]}[command]
        code, stdout, err = run(capsys, command, *inputs, "--out", out.format(dir=tmp_path))
        assert (code, stdout, err) == (2, "", f"error: {message.format(dir=tmp_path)}\n")
        assert list(tmp_path.iterdir()) == []


def refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(what)

    return refused


def small_dataset(path, seed=1):
    space = sampler.desk_prior_space(builtin_gpu_catalog())
    samples = sampler.label_points(sampler.initial_sample(space, 4, seed=seed),
                                   sampler.SyntheticEnergyOracle())
    sampler.save_dataset(path, samples)
    return path


class TestTrainFlags:
    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "--epochs must be >= 1, got 0"),
        ("--epochs", "-3", "--epochs must be >= 1, got -3"),
        ("--batch-size", "0", "--batch-size must be >= 1, got 0"),
        ("--lr", "0", "--lr must be > 0, got 0.0"),
        ("--lr", "-0.5", "--lr must be > 0, got -0.5"),
        ("--lr", "inf", "--lr must be finite, got inf"),
        ("--lr", "1e400", "--lr must be finite, got inf"),
    ])
    def test_bad_flag_exit_2_naming_the_flag(self, capsys, tmp_path, flag, value, message):
        dataset = small_dataset(tmp_path / "data.jsonl")
        out = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out", str(out),
                           flag, value)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestSampleFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--update-epochs", "0"), ("--update-epochs", "-3"),
    ])
    def test_epochs_below_one_exit_2_before_sampling(self, capsys, tmp_path, monkeypatch,
                                                     flag, value):
        def refuse(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(sampler, "focused_sampling_loop", refuse)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "sample", "--out", str(out_dir), "--a", "5", "--b", "2",
                           "--k", "1", flag, value)
        assert code == 2
        assert err == f"error: {flag} must be >= 1, got {value}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--a", "0", "--a must be >= 5, got 0"),
        ("--a", "4", "--a must be >= 5, got 4"),  # fewer than 5 leave no test split
        ("--b", "0", "--b must be >= 1, got 0"),
        ("--k", "0", "--k must be >= 1, got 0"),
        ("--k", "-2", "--k must be >= 1, got -2"),
        ("--max-iterations", "-1", "--max-iterations must be >= 0, got -1"),
        ("--batch-size", "0", "--batch-size must be >= 1, got 0"),
        ("--lr", "0", "--lr must be > 0, got 0.0"),
        ("--lr", "nan", "--lr must be > 0, got nan"),
        ("--threshold", "0", "--threshold must be > 0, got 0.0"),
        ("--threshold", "nan", "--threshold must be > 0, got nan"),
        ("--threshold", "inf", "--threshold must be finite, got inf"),
        ("--threshold", "1e400", "--threshold must be finite, got inf"),
        ("--lr", "inf", "--lr must be finite, got inf"),
    ])
    def test_loop_counts_out_of_range_exit_2_before_sampling(self, capsys, tmp_path,
                                                             monkeypatch, flag, value, message):
        def refuse(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(sampler, "focused_sampling_loop", refuse)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "sample", "--out", str(out_dir), "--a", "5", "--b", "2",
                           flag, value)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_unset_loop_flags_leave_the_loop_defaults(self, capsys, tmp_path, monkeypatch):
        def tiny_loop(space, oracle, threshold, hyper):
            assert hyper == sampler.LoopHyper()
            return sampler.LoopResult(
                train_set=[], test_set=[], error_log=[50.0], termination="iteration_cap",
                iterations=0, refinements=[], stats=identity_stats(),
                params=init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH))

        monkeypatch.setattr(sampler, "focused_sampling_loop", tiny_loop)
        code, _, err = run(capsys, "sample", "--out", str(tmp_path))
        assert code == 0, err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        defaults = sampler.LoopHyper().to_dict()
        assert {key: manifest[key] for key in defaults} == defaults


class TestSeedFlag:
    def test_sample_refuses_a_negative_seed_before_reading_any_file(self, capsys, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(cli, "load_gpus", refuse("the GPU catalog was read"))
        monkeypatch.setattr(sampler, "focused_sampling_loop", refuse("sampling started"))
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "sample", "--out", str(out_dir), "--trace",
                           str(tmp_path / "absent.csv"), "--seed", "-1")
        assert (code, err) == (2, "error: --seed must be >= 0, got -1\n")
        assert not out_dir.exists()

    def test_train_refuses_a_negative_seed_before_reading_the_dataset(self, capsys, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr(sampler, "load_dataset", refuse("the dataset was read"))
        out = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--dataset", str(tmp_path / "absent.jsonl"),
                           "--out", str(out), "--seed", "-1")
        assert (code, err) == (2, "error: --seed must be >= 0, got -1\n")
        assert not out.exists()


def hyper_fields(hyper_class):
    """The names of a hyperparameter dataclass's own numeric fields."""
    return [f.name for f in dataclasses.fields(hyper_class) if f.type in ("int", "float")]


@pytest.mark.parametrize("command, field", [
    *(("sample", name) for name in dict.fromkeys(hyper_fields(sampler.LoopHyper)
                                                 + hyper_fields(TrainHyper))),
    *(("train", name) for name in hyper_fields(TrainHyper)),
])
def test_every_hyper_field_is_refused_under_its_flag(capsys, tmp_path, monkeypatch, command,
                                                     field):
    # -1 is below every field's least value; the field's own message names
    # the flag, and nothing is read, sampled or trained
    classes = (TrainHyper,) if command == "train" else (sampler.LoopHyper, TrainHyper)
    tables = [cli.FIELD_FLAGS[c.__name__] for c in classes]
    flag = "--" + next(table[field] for table in tables if field in table)
    monkeypatch.setattr(cli, "load_gpus", refuse("the GPU catalog was read"))
    monkeypatch.setattr(sampler, "load_dataset", refuse("the dataset was read"))
    monkeypatch.setattr(sampler, "focused_sampling_loop", refuse("sampling started"))
    out = tmp_path / "out"
    given = ["--dataset", str(tmp_path / "absent.jsonl")] if command == "train" else []
    code, _, err = run(capsys, command, "--out", str(out), *given, flag, "-1")
    assert code == 2
    assert err.startswith(f"error: {flag} must be ")
    assert not out.exists()


# command -> (a minimal argv, the records it builds from its flags)
RECORD_COMMANDS = {
    "estimate": (["estimate", "x", "y"], (arch.InferenceConfig, carbon.DatacenterParams,
                                          carbon.EmbodiedParams)),
    "graph": (["graph", "x"], (arch.InferenceConfig,)),
    "sample": (["sample", "--out", "o"], (sampler.LoopHyper, TrainHyper)),
    "train": (["train", "--dataset", "d", "--out", "o"], (TrainHyper,)),
    "trace-stats": (["trace-stats", "t"], (traces.ColumnMap,)),
}


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
def test_every_table_flag_is_an_option_of_its_command(command):
    # a row naming a flag its command lacks would be an AttributeError
    # traceback, not exit 2; a row naming no field, a TypeError
    argv, records = RECORD_COMMANDS[command]
    parser = cli.build_parser()
    for record in records:
        flags = cli.FIELD_FLAGS[record.__name__]
        assert set(flags) <= {f.name for f in dataclasses.fields(record)}, record
        for flag in flags.values():
            dest = flag.replace("-", "_")
            assert dest in vars(parser.parse_args(argv)), flag
            assert vars(parser.parse_args([*argv, f"--{flag}", "7"]))[dest] in (7, "7"), flag


class TestSampleConfigHash:
    def test_manifest_and_checkpoint_carry_one_hash(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--out", str(tmp_path), "--a", "20", "--b", "2",
                           "--k", "1", "--max-iterations", "0", "--epochs", "1",
                           "--batch-size", "8", "--seed", "3")
        assert code == 0, err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
        assert checkpoint["extra"]["config_hash"] == manifest["config_hash"]


class TestCommandFlags:
    def test_sample_has_no_arch_catalog_flag(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--out", str(tmp_path / "run"), "--arch-catalog", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --arch-catalog x" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_without_training_flags_records_the_defaults(self, capsys, tmp_path):
        dataset = small_dataset(tmp_path / "data.jsonl")
        out = tmp_path / "model.json"
        code, stdout, err = run(capsys, "train", "--dataset", str(dataset), "--out", str(out))
        assert code == 0, err
        defaults = TrainHyper()
        saved = json.loads(out.read_text())
        assert (saved["seed"], saved["extra"]["epochs"]) == (defaults.seed, defaults.epochs)
        assert stdout.startswith(f"trained {defaults.epochs} epochs; ")


class TestEmptyAndOutputFiles:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_count_0_dataset_exits_2(self, capsys, tmp_path, command):
        dataset = tmp_path / "data.jsonl"
        sampler.save_dataset(dataset, [])
        out = tmp_path / "model.json"
        if command == "train":
            argv = ["train", "--dataset", str(dataset), "--out", str(out)]
        else:
            save_checkpoint(out, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH),
                            identity_stats(), seed=0)
            argv = ["eval", "--checkpoint", str(out), "--dataset", str(dataset)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err == f"error: dataset {dataset} is empty\n"

    def test_eval_out_holds_the_printed_report(self, capsys, tmp_path):
        dataset = small_dataset(tmp_path / "data.jsonl")
        ckpt, report = tmp_path / "model.json", tmp_path / "report.json"
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out", str(ckpt),
                           "--epochs", "1")
        assert code == 0, err
        code, stdout, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                                "--dataset", str(dataset), "--out", str(report))
        assert code == 0, err
        assert stdout == report.read_text() + "\n"
        assert json.loads(stdout)["manifest"]["dataset"] == str(dataset)


class TestTrainConfigHash:
    def test_hash_covers_every_training_flag(self, capsys, tmp_path):
        dataset = small_dataset(tmp_path / "data.jsonl")
        hashes = set()
        for flags in (["--lr", "0.001"], ["--lr", "0.01"], ["--batch-size", "2"]):
            out = tmp_path / "model.json"
            code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out", str(out),
                               "--epochs", "1", *flags)
            assert code == 0, err
            hashes.add(json.loads(out.read_text())["extra"]["config_hash"])
        assert len(hashes) == 3

    def test_hashes_follow_file_contents_not_paths(self, capsys, tmp_path):
        first = tmp_path / "a"
        first.mkdir()
        dataset = small_dataset(first / "data.jsonl")
        ckpt = first / "model.json"
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out", str(ckpt),
                           "--epochs", "1")
        assert code == 0, err
        second = tmp_path / "b" / "c"
        second.mkdir(parents=True)
        for path in (dataset, ckpt):
            (second / path.name).write_bytes(path.read_bytes())

        def hashes(where):
            code, _, err = run(capsys, "train", "--dataset", str(where / "data.jsonl"),
                               "--out", str(where / "again.json"), "--epochs", "1")
            assert code == 0, err
            trained = json.loads((where / "again.json").read_text())["extra"]["config_hash"]
            code, out, err = run(capsys, "eval", "--checkpoint", str(where / "model.json"),
                                 "--dataset", str(where / "data.jsonl"))
            assert code == 0, err
            return trained, json.loads(out)["manifest"]["config_hash"]

        same = hashes(first)
        assert hashes(second) == same
        # other data under the same path changes both
        small_dataset(second / "data.jsonl", seed=2)
        changed = hashes(second)
        assert changed[0] != same[0] and changed[1] != same[1]


    def test_eval_hash_follows_the_model_not_the_file(self, capsys, tmp_path):
        dataset = small_dataset(tmp_path / "data.jsonl")
        params = init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=4)
        first, second, changed = (tmp_path / f"{name}.json" for name in ("a", "b", "c"))
        save_checkpoint(first, params, identity_stats(), seed=0)
        save_checkpoint(second, params, identity_stats(), seed=9, extra={"note": "rerun"})
        params.head2[0, 0] += 0.5
        save_checkpoint(changed, params, identity_stats(), seed=0)

        def eval_hash(checkpoint):
            code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                                 "--dataset", str(dataset))
            assert code == 0, err
            return json.loads(out)["manifest"]["config_hash"]

        assert first.read_bytes() != second.read_bytes()
        assert eval_hash(first) == eval_hash(second)
        assert eval_hash(changed) != eval_hash(first)


def refuse_non_standard_json(constant):
    raise ValueError(f"{constant} is not standard JSON")


class TestPipeline:
    def test_sample_train_eval_estimate(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "sample", "--out", str(out_dir), "--a", "60", "--b", "10", "--k", "2",
            "--threshold", "1e9", "--epochs", "4", "--update-epochs", "2",
            "--batch-size", "32", "--seed", "3",
        )
        assert code == 0, err
        assert (out_dir / "train.jsonl").exists()
        assert (out_dir / "test.jsonl").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text(),
                              parse_constant=refuse_non_standard_json)
        assert manifest["oracle"] == "synthetic-roofline-v1"
        assert manifest["seed"] == 3
        assert manifest["termination"] == "threshold_met"
        assert "config_hash" in manifest

        ckpt = tmp_path / "model.json"
        code, out, err = run(
            capsys, "train", "--dataset", str(out_dir / "train.jsonl"),
            "--out", str(ckpt), "--epochs", "60", "--batch-size", "32", "--seed", "1",
        )
        assert code == 0, err
        assert ckpt.exists()

        code, out, err = run(
            capsys, "eval", "--checkpoint", str(ckpt), "--dataset", str(out_dir / "test.jsonl"),
        )
        assert code == 0, err
        payload = json.loads(out)
        assert "mape_percent" in payload
        assert set(payload["eba_percent"]) == {"0.05", "0.1", "0.3"}
        assert payload["manifest"]["checkpoint_seed"] == 1

        # the model overfits its own training split: train MAPE below held-out
        code, out, err = run(
            capsys, "eval", "--checkpoint", str(ckpt), "--dataset", str(out_dir / "train.jsonl"),
        )
        assert code == 0, err
        train_mape = json.loads(out)["mape_percent"]
        assert train_mape < payload["mape_percent"]

        code, out, err = run(
            capsys, "estimate", "tiny-flash", "l4", "--checkpoint", str(ckpt), "--json",
        )
        assert code == 0, err
        assert json.loads(out)["assumptions"]["predictor"] == "gnn-regressor"

    def test_oracle_failure_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        from infercarbon.sampler import SyntheticEnergyOracle

        def broken(self, point):
            raise RuntimeError("meter unplugged")

        monkeypatch.setattr(SyntheticEnergyOracle, "measure", broken)
        code, _, err = run(capsys, "sample", "--out", str(tmp_path / "x"),
                           "--a", "5", "--b", "2", "--k", "1", "--epochs", "1")
        assert code == 3
        assert "point 0" in err

    def test_eval_is_reproducible(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run(capsys, "sample", "--out", str(out_dir), "--a", "40", "--b", "5", "--k", "2",
            "--threshold", "1e9", "--epochs", "3", "--batch-size", "16", "--seed", "5")
        ckpt = out_dir / "checkpoint.json"
        code, first, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                             "--dataset", str(out_dir / "test.jsonl"))
        assert code == 0
        code, second, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                              "--dataset", str(out_dir / "test.jsonl"))
        assert code == 0
        assert first == second
