"""Every JSON object the dataset and checkpoint readers take is held to one
rule, ``arch.check_keys``: an object, of exactly the keys its format defines."""

import json
import re

import pytest

from infercarbon import sampler
from infercarbon.arch import InferenceConfig
from infercarbon.features import GLOBAL_FEATURE_WIDTH, NODE_FEATURE_WIDTH
from infercarbon.gnn import ShapeError, init_params, load_checkpoint, save_checkpoint
from infercarbon.kvfile import ConfigError
from infercarbon.roofline import builtin_gpu_catalog

from conftest import identity_stats

CHECKPOINT_KEYS = "format, version, target, seed, params, stats, extra"
LAYERS = "conv1, conv2, head1, head2"
STATISTICS = "node_mean, node_std, global_mean, global_std"
REQUEST = "batch_size, prompt_length, generated_tokens, gpu_count"
RECORD = "arch, inference, gpu, energy_joules"


def labelled(count: int, seed: int = 0) -> list:
    space = sampler.desk_prior_space(builtin_gpu_catalog())
    return sampler.label_points(sampler.initial_sample(space, count, seed=seed),
                                sampler.SyntheticEnergyOracle())


def save_model(path, extra=None) -> None:
    save_checkpoint(path, init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH, seed=2),
                    identity_stats(), seed=2, extra=extra)


def request_reader(tmp_path, change):
    d = InferenceConfig(batch_size=2, prompt_length=16, generated_tokens=4).to_dict()
    return lambda: InferenceConfig.from_dict(change(d)), ""


def dataset_reader(tmp_path, change, line=1):
    """Load a saved one-record dataset whose `line` (0 the header) is
    `change`d; a refusal names the path and line."""
    path = tmp_path / "data.jsonl"
    sampler.save_dataset(path, labelled(1))
    lines = path.read_text().splitlines()
    lines[line] = json.dumps(change(json.loads(lines[line])))
    path.write_text("\n".join(lines) + "\n")
    return lambda: sampler.load_dataset(path), f"{path}:{line + 1}: "


def checkpoint_reader(*where):
    """Load a saved checkpoint whose object at the keys `where` is `change`d;
    a refusal names the path."""

    def reader(tmp_path, change):
        path = tmp_path / "model.json"
        save_model(path)
        payload = json.loads(path.read_text())
        if where:
            parent = payload
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = change(parent[where[-1]])
        else:
            payload = change(payload)
        path.write_text(json.dumps(payload))
        return lambda: load_checkpoint(path), f"{path}: malformed checkpoint: "

    return reader


# reader -> (set-up, refusal, what the refusal names, its keys, a required key)
READERS = {
    "Record.from_dict": (request_reader, ConfigError, "InferenceConfig", REQUEST, "gpu_count"),
    "dataset record": (dataset_reader, ConfigError, "record", RECORD, "energy_joules"),
    "dataset header": (lambda tmp, change: dataset_reader(tmp, change, line=0), ConfigError,
                       "header", "format, version, count", "count"),
    "checkpoint header": (checkpoint_reader(), ShapeError, "header", CHECKPOINT_KEYS, "seed"),
    "checkpoint layers": (checkpoint_reader("params"), ShapeError, "field 'params'", LAYERS,
                          "conv2"),
    "checkpoint statistics": (checkpoint_reader("stats"), ShapeError, "field 'stats'",
                              STATISTICS, "global_std"),
    "array entry": (checkpoint_reader("stats", "node_mean"), ShapeError, "field 'node_mean'",
                    "dtype, shape, data", "data"),
}
# a header that is not an object is not taken for a file of its format
NOT_RECOGNIZED = {"dataset header": "not a recognized dataset file",
                  "checkpoint header": "not a recognized checkpoint file"}


def with_key(key, value):
    return lambda d: {**d, key: value}


def without_key(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("case", ["not-an-object", "undefined-key", "missing-key"])
@pytest.mark.parametrize("reader", list(READERS))
def test_a_reader_refuses_an_object_of_other_keys_naming_it(tmp_path, reader, case):
    setup, error, what, keys, required = READERS[reader]
    change, message = {
        "not-an-object": (lambda d: [1], f"{what} must be an object, got [1]"),
        "undefined-key": (with_key("endian", "big"),
                          f"{what} has an undefined key 'endian' (the keys are {keys})"),
        "missing-key": (without_key(required), f"{what} has no key '{required}'"),
    }[case]
    load, prefix = setup(tmp_path, change)
    if case == "not-an-object" and reader in NOT_RECOGNIZED:
        prefix, message = prefix.removesuffix("malformed checkpoint: "), NOT_RECOGNIZED[reader]
    with pytest.raises(error, match=f"^{re.escape(prefix + message)}$"):
        load()


def test_files_the_writers_make_still_load(tmp_path):
    samples = labelled(6, seed=4)
    path = tmp_path / "data.jsonl"
    sampler.save_dataset(path, samples)
    assert sampler.load_dataset(path) == samples
    path = tmp_path / "model.json"
    save_model(path, extra={"termination": "iteration_cap"})
    params, stats, meta = load_checkpoint(path)
    assert params.flat.tobytes() == init_params(NODE_FEATURE_WIDTH, GLOBAL_FEATURE_WIDTH,
                                                seed=2).flat.tobytes()
    assert meta == {"seed": 2, "extra": {"termination": "iteration_cap"}}
