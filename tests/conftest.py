import numpy as np
import pytest

from fedsim import engine, nn
from fedsim.data import SyntheticSpec, build_server_set, dirichlet_partition, generate_synthetic


@pytest.fixture(scope="session")
def toy_problem():
    """Small 4-class task split across 4 clients, shared by engine tests."""
    pool = generate_synthetic(SyntheticSpec(4, 60, 6, 0.5, seed=2))
    server_set, rest = build_server_set(pool, 8, seed=2)
    partition = dirichlet_partition(rest, 4, 0.5, seed=2)
    clients = [
        engine.ClientState(cid, rest.subset(idxs))
        for cid, idxs in enumerate(partition.client_indices)
    ]
    model = nn.init_model(nn.ModelArch((6, 10, 4)), 2)
    return pool, server_set, rest, partition, clients, model


def random_model(arch: nn.ModelArch, seed: int) -> nn.ParamVector:
    rng = np.random.default_rng(seed)
    return nn.ParamVector(arch, rng.standard_normal(nn.param_count(arch)))


def random_batch(arch: nn.ModelArch, size: int, seed: int) -> nn.Batch:
    rng = np.random.default_rng(seed)
    return nn.Batch(
        rng.standard_normal((size, arch.input_dim)),
        rng.integers(0, arch.output_dim, size),
    )


def train_alone(client, w_global, p, cfg, round_index, plan=None):
    """One client's local training as a cohort of one: (local model, losses)."""
    run = engine.local_train(client, w_global, p, cfg, round_index)
    models, losses, _means = engine.train_cohort(w_global, [run], cfg, round_index, plan)
    return nn.ParamVector(w_global.arch, models[0]), losses[0]
