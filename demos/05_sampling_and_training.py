"""
Focused sampling and the energy regressor
=========================================

The sampling loop labels an initial batch of configurations with the energy
oracle, trains the graph regressor, and then keeps refining around the test
points it predicts worst, folding 20% of every refinement batch into the
held-out set.  This demo runs a miniature loop (the CI-scale defaults are
2000 initial points and 50 refinements per center).
"""

import tempfile
from pathlib import Path

from infercarbon.gnn import TrainHyper, save_checkpoint, load_checkpoint
from infercarbon.roofline import builtin_gpu_catalog
from infercarbon.sampler import (
    LoopHyper,
    SyntheticEnergyOracle,
    desk_prior_space,
    evaluate_model,
    focused_sampling_loop,
)

space = desk_prior_space(builtin_gpu_catalog())
hyper = LoopHyper(
    initial_points=400,
    refine_per_center=20,
    worst_count=10,
    max_iterations=3,
    seed=1,
    train=TrainHyper(epochs=60, batch_size=128, seed=1),
    update_epochs=30,
)

result = focused_sampling_loop(space, SyntheticEnergyOracle(), e_threshold=12.0, hyper=hyper)
print(f"termination: {result.termination} after {result.iterations} refinement round(s)")
print("MAPE per iteration:", [f"{e:.1f}%" for e in result.error_log])
print(f"dataset: {len(result.train_set)} train / {len(result.test_set)} held-out samples")

# the held-out report: MAPE plus error-bound accuracy at 5/10/30%
report = evaluate_model(result.params, result.stats, result.test_set)
print(f"\nheld-out MAPE {report.mape:.2f}%")
for delta, value in sorted(report.eba.items()):
    print(f"  EBA({delta:.0%}) = {value:.1f}%")

# checkpoints round-trip exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_checkpoint(path, result.params, result.stats, seed=1)
    params, stats, meta = load_checkpoint(path)
again = evaluate_model(params, stats, result.test_set)
print(f"\nreloaded checkpoint reproduces MAPE: {again.mape:.2f}%")
