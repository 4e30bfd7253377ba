"""Deterministic desk-scale federated learning simulator.

Implements size-weighted averaging (fedavg), proximal-regularized local
training (fedprox), and public-set accuracy-weighted aggregation with an
accuracy penalty (fedpdc, plus an adaptive-sensitivity variant), together
with dissimilarity and descent diagnostics and a config-driven CLI.
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
    DescentRecord,
    DissimilarityReport,
    TheoremConstants,
    descent_check,
    dissimilarity_B,
    gradient_dissimilarity,
    rounds_to_target,
    speedup,
    theorem_constant,
)
from .engine import (
    ClientState,
    RoundRecord,
    ServerState,
    adaptive_lambda,
    local_loss,
    local_train,
    run_round,
    sample_clients,
)
from .errors import FedsimError
from .nn import (
    Batch,
    ModelArch,
    OptimizerState,
    ParamVector,
    TrainPlan,
    backward,
    cross_entropy,
    evaluate_accuracy,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
    sgd_step,
)
from .runner import build_problem, run_experiment, run_sweep

__version__ = "0.1.0"
