"""The package namespace: each name it exports is the one object its module
defines, whether the package loads that module up front or on first use."""

import ast
import importlib
from pathlib import Path

import pytest

import infercarbon

# module -> the names the package exports from it
EXPORTS = {
    "arch": ("DataType", "DivisibilityError", "InferenceConfig", "KernelGraph", "KernelKind",
             "KernelNode", "LlmArchitecture", "RangeError", "enumerate_layer_kernels",
             "load_arch_catalog"),
    "carbon": ("CarbonReport", "DatacenterParams", "EmbodiedParams", "ModelEnergyPredictor",
               "embodied_carbon", "estimate_request", "operational_carbon"),
    "costmodel": ("CostTriple", "LayerTotals", "PartitionError", "Phase", "UnsupportedKind",
                  "allreduce_cost", "attention_matmul_cost", "elementwise_cost",
                  "fused_attention_cost", "kernel_cost", "linear_cost", "softmax_cost"),
    "features": ("FeatureStats", "FeaturizedGraph", "GraphMismatch", "NonFiniteFeature",
                 "UnknownFormat", "export_graph", "fit_stats"),
    "gnn": ("EvalReport", "GnnParams", "NonFiniteLoss", "ShapeError", "TrainHyper", "ZeroTruth",
            "adam_step", "eba", "evaluate", "gradient_check", "load_checkpoint",
            "loss_and_gradients", "mape", "predict_energy", "predict_many", "save_checkpoint",
            "train"),
    "oracle": ("SyntheticEnergyOracle",),
    "roofline": ("GpuSpec", "LayerCosts", "MissingThroughput", "RidgePoints", "ZeroTraffic",
                 "builtin_gpu_catalog", "cost_layer", "load_gpu_catalog", "ridge_points"),
    "sampler": ("ArchPrior", "EmptyPrior", "EnergySample", "HardwarePrior", "JitterRadii",
                "LoopHyper", "LoopResult", "OracleFailure", "PriorSpace", "SamplePoint",
                "desk_prior_space", "fine_grained_sampling", "focused_sampling_loop",
                "initial_sample", "load_dataset", "save_dataset", "select_high_error"),
    "traces": ("ColumnMap", "EmptyTrace", "MissingColumn", "ParseError", "TraceRecord",
               "TraceStats", "empirical_prior", "parse_trace", "serialize_trace",
               "trace_stats"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_its_modules_object(module):
    home = importlib.import_module(f"infercarbon.{module}")
    listed = dir(infercarbon)
    for name in EXPORTS[module]:
        assert getattr(infercarbon, name) is getattr(home, name), name
        assert name in listed, name
    assert getattr(infercarbon, module) is home


def test_star_import_gives_every_name():
    namespace = {}
    exec("from infercarbon import *", namespace)
    for names in EXPORTS.values():
        for name in names:
            assert namespace[name] is getattr(infercarbon, name), name


def test_unknown_attribute_is_refused_by_name():
    with pytest.raises(AttributeError, match="'infercarbon' has no attribute 'no_such_name'"):
        infercarbon.no_such_name


def test_no_module_imports_another_modules_private_name():
    # a `_`-prefixed name is its module's own; a second user means it wants a
    # public name
    borrowed = []
    for path in sorted(Path(infercarbon.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.partition(".")[0] == "infercarbon"):
                borrowed += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert borrowed == []
