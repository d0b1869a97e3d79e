import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
SRC = Path(__file__).resolve().parent.parent / "src"

from infercarbon.arch import DataType, InferenceConfig, LlmArchitecture
from infercarbon.features import GLOBAL_FEATURE_WIDTH, NODE_NUMERIC_SLOTS, FeatureStats


@pytest.fixture
def tiny_arch():
    return LlmArchitecture(
        hidden_size=64, intermediate_size=128, head_count=4, kv_head_count=2, layer_count=2
    )


@pytest.fixture
def tiny_cfg():
    return InferenceConfig(batch_size=1, prompt_length=16, generated_tokens=4, gpu_count=1)


def src_first_env() -> dict[str, str]:
    """The environment for a child Python that must import the package from
    this checkout's src/, ahead of any PYTHONPATH already set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def identity_stats() -> FeatureStats:
    """Zero-mean / unit-std stats: features stay plain log1p values."""
    return FeatureStats(
        node_mean=np.zeros(NODE_NUMERIC_SLOTS),
        node_std=np.ones(NODE_NUMERIC_SLOTS),
        global_mean=np.zeros(GLOBAL_FEATURE_WIDTH),
        global_std=np.ones(GLOBAL_FEATURE_WIDTH),
    )


DTYPES = (DataType.FP32, DataType.FP16, DataType.INT8)


def random_small_arch(rng: np.random.Generator, flash: bool | None = None) -> LlmArchitecture:
    """A random architecture with every dimension <= 8 (hidden <= 64)."""
    head_count = int(rng.choice([1, 2, 4, 8]))
    head_dim = int(rng.integers(1, 9))
    kv_divisors = [d for d in (1, 2, 4, 8) if head_count % d == 0]
    kv = head_count // int(rng.choice(kv_divisors))
    return LlmArchitecture(
        hidden_size=head_count * head_dim,
        intermediate_size=int(rng.integers(1, 9)),
        head_count=head_count,
        kv_head_count=kv,
        layer_count=int(rng.integers(1, 9)),
        weight_dtype=DTYPES[int(rng.integers(3))],
        activation_dtype=DTYPES[int(rng.integers(3))],
        kv_dtype=DTYPES[int(rng.integers(3))],
        flash_attention=bool(rng.integers(2)) if flash is None else flash,
        gated_mlp=bool(rng.integers(2)),
    )


def random_small_cfg(rng: np.random.Generator) -> InferenceConfig:
    return InferenceConfig(
        batch_size=int(rng.integers(1, 9)),
        prompt_length=int(rng.integers(1, 17)),
        generated_tokens=int(rng.integers(1, 9)),
        gpu_count=int(rng.choice([1, 2, 4])),
    )
