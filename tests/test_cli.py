import json

import pytest

from infercarbon.cli import main


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


class TestConsoleEntry:
    def test_installed_script_runs(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "infercarbon.cli", "estimate", "tiny-flash", "t4",
             "--oracle", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total_g"] > 0


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


class TestMalformedFiles:
    @pytest.mark.parametrize("text", [
        "[1]", "", "not json",
        '{"format": "infercarbon-checkpoint", "version": 1, "params": [1]}',
        '{"format": "infercarbon-checkpoint", "version": 1}',
        '{"format": "infercarbon-checkpoint", "version": 1, "params": {"conv1_w": [["x"]]}}',
    ])
    def test_checkpoint_is_config_error_naming_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, _, err = run(capsys, "estimate", "tiny-flash", "a100", "--checkpoint", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("text", ["[1]\n", "", "not json\n"])
    def test_dataset_is_config_error_naming_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "data.jsonl"
        path.write_text(text)
        code, _, err = run(capsys, "train", "--dataset", str(path),
                           "--out", str(tmp_path / "model.json"))
        assert code == 2
        assert f"{path}:1" in err


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
        manifest = json.loads((out_dir / "manifest.json").read_text())
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
