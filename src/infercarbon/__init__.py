"""infercarbon: pre-execution energy and carbon estimates for LLM inference.

The pipeline: describe an architecture and a request, enumerate the kernel
graph of one transformer layer, price every kernel for the prefill and decode
phases, attach Roofline performance per kernel, featurize, and either query
the synthetic oracle or a trained graph regressor for energy; carbon follows
from datacenter and embodied parameters.

The sampling loop (`sampler`) and trace parsing (`traces`) load on first
use of one of their names here, or on their own import, so that a carbon
estimate or a graph export, which needs neither, does not load them; the
rest loads with the package.
"""

from importlib import import_module as _import_module

from .arch import (
    DataType,
    DivisibilityError,
    InferenceConfig,
    KernelGraph,
    KernelKind,
    KernelNode,
    LlmArchitecture,
    RangeError,
    enumerate_layer_kernels,
    load_arch_catalog,
)
from .carbon import (
    CarbonReport,
    DatacenterParams,
    EmbodiedParams,
    ModelEnergyPredictor,
    embodied_carbon,
    estimate_request,
    operational_carbon,
)
from .costmodel import (
    CostTriple,
    LayerTotals,
    PartitionError,
    Phase,
    UnsupportedKind,
    allreduce_cost,
    attention_matmul_cost,
    elementwise_cost,
    fused_attention_cost,
    kernel_cost,
    linear_cost,
    softmax_cost,
)
from .features import (
    FeatureStats,
    FeaturizedGraph,
    GraphMismatch,
    NonFiniteFeature,
    UnknownFormat,
    export_graph,
    fit_stats,
)
from .gnn import (
    EvalReport,
    GnnParams,
    NonFiniteLoss,
    ShapeError,
    TrainHyper,
    ZeroTruth,
    adam_step,
    eba,
    evaluate,
    gradient_check,
    load_checkpoint,
    loss_and_gradients,
    mape,
    predict_energy,
    predict_many,
    save_checkpoint,
    train,
)
from .oracle import OracleFailure, SyntheticEnergyOracle
from .roofline import (
    GpuSpec,
    LayerCosts,
    MissingThroughput,
    RidgePoints,
    SamplePoint,
    ZeroTraffic,
    builtin_gpu_catalog,
    cost_layer,
    load_gpu_catalog,
    ridge_points,
)

# name -> the module that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(("sampler", "ArchPrior", "EmptyPrior", "EnergySample", "HardwarePrior",
                     "JitterRadii", "LoopHyper", "LoopResult", "PriorSpace", "desk_prior_space",
                     "fine_grained_sampling", "focused_sampling_loop", "initial_sample",
                     "load_dataset", "save_dataset", "select_high_error"), "sampler"),
    **dict.fromkeys(("traces", "ColumnMap", "EmptyTrace", "MissingColumn", "ParseError",
                     "TraceRecord", "TraceStats", "empirical_prior", "parse_trace",
                     "serialize_trace", "trace_stats"), "traces"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
__all__ = [name for name in __dir__() if not name.startswith("_")]
