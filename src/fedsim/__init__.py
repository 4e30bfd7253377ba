"""Deterministic desk-scale federated learning simulator.

Implements size-weighted averaging (fedavg), proximal-regularized local
training (fedprox), and public-set accuracy-weighted aggregation with an
accuracy penalty (fedpdc, plus an adaptive-sensitivity variant), together
with dissimilarity and descent diagnostics and a config-driven CLI.

The package exports the names a user calls. The kernel (nn.TrainPlan,
engine.train_cohort, diagnostics.FullBatchPass, ...) and the round loop
stay importable from their modules, whose docstrings document them.
"""

from .config import ExperimentConfig, parse_config, parse_config_text
from .data import (
    LabeledDataset,
    Partition,
    ServerSet,
    SyntheticSpec,
    build_server_set,
    dirichlet_partition,
    generate_synthetic,
    load_csv,
    partition_stats,
)
from .diagnostics import (
    TheoremConstants,
    descent_check,
    descent_summary,
    dissimilarity_B,
    read_history_csv,
    rounds_to_target,
    speedup,
    theorem_constant,
)
from .errors import FedsimError
from .nn import ModelArch, ParamVector, evaluate_accuracy, init_model, load_model, save_model
from .runner import build_problem, run_experiment, run_sweep

__all__ = [
    "ExperimentConfig", "parse_config", "parse_config_text",
    "LabeledDataset", "Partition", "ServerSet", "SyntheticSpec", "build_server_set",
    "dirichlet_partition", "generate_synthetic", "load_csv", "partition_stats",
    "build_problem", "run_experiment", "run_sweep",
    "ModelArch", "ParamVector", "init_model", "load_model", "save_model", "evaluate_accuracy",
    "TheoremConstants", "descent_check", "descent_summary", "dissimilarity_B", "read_history_csv",
    "rounds_to_target", "speedup", "theorem_constant",
    "FedsimError",
]

__version__ = "0.1.0"
