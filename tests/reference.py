"""A plain-numpy oracle for whole fedsim runs, for the tests.

`reference_run(cfg, seed)` recomputes a run with arithmetic of its own: an
MLP forward pass, softmax cross-entropy, backprop and momentum SGD, each
selected client's local training in id order, public-set scoring (of the
local models only when fedpdc's weights or dissimilarity.csv read it), the
aggregation weights, the adaptive lambda schedule and the full-batch
diagnostics, one dataset at a time. From fedsim it takes only the contracts
that fix which numbers a run draws and where they live: the RNG streams
(`seeding.stream`, `engine.sample_clients`), the problem a seed builds
(`runner.build_problem`) and the parameter layout (`nn.unpack`).
tests/test_reference.py keeps it to those imports.

The oracle is bitwise equal to fedsim because both run the same numpy
operations in the same order on operands of the same shapes. Models are
combined as `weights @ np.stack(models)`, and sums are numpy reductions
where fedsim's are: a Python loop or `sum()` over the same numbers can
differ from a gemv or `ndarray.sum` in the last bit.
"""

import math
from dataclasses import replace

import numpy as np

from fedsim.engine import sample_clients
from fedsim.nn import unpack
from fedsim.runner import build_problem
from fedsim.seeding import TAG_LOCAL, stream

GRAD_NORM_TOL = 1e-12


def forward(layers, x):
    """[x, hidden activations..., logits]; ReLU on the hidden layers."""
    acts = [x]
    for weight, bias in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ weight + bias, 0.0))
    weight, bias = layers[-1]
    return acts + [acts[-1] @ weight + bias]


def loss_and_grad(arch, values, x, y):
    """Mean softmax cross-entropy of the model values on (x, y) and its
    gradient by backprop."""
    layers = unpack(arch, values)
    *acts, logits = forward(layers, x)
    rows = np.arange(len(y))
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(norm.ravel()) - shifted[rows, y]))
    delta = exp / norm
    delta[rows, y] -= 1.0
    delta /= len(y)
    grad = np.empty_like(values)
    grad_layers = unpack(arch, grad)
    for li in range(len(layers) - 1, -1, -1):
        grad_layers[li][0][:] = acts[li].T @ delta
        grad_layers[li][1][:] = delta.sum(axis=0)
        delta = (delta @ layers[li][0].T) * (acts[li] > 0.0)
    return loss, grad


def sgd_step(values, buf, grad, cfg):
    """One momentum-SGD step with weight decay: (new values, new buffer)."""
    buf = cfg.momentum * buf + grad + cfg.weight_decay * values
    return values - cfg.eta * buf, buf


def local_train(arch, data, anchor, p, cfg, round_index):
    """The strategy's local SGD from the global values anchor for a client
    with accuracy p: (final values, every batch's reported loss)."""
    scale, penalty, mu = 1.0, 0.0, 0.0
    if cfg.strategy == "fedprox":
        mu = cfg.mu_prox
    elif cfg.strategy in ("fedpdc", "fedpdc_adaptive") and cfg.penalty_mode == "literal":
        penalty = cfg.lam * (1.0 - p)
    elif cfg.strategy in ("fedpdc", "fedpdc_adaptive"):
        scale = 1.0 + cfg.lam * (1.0 - p)
    values, buf = anchor.copy(), np.zeros_like(anchor)
    rng = stream(TAG_LOCAL, cfg.seed, round_index)
    losses = []
    for _epoch in range(cfg.local_epochs):
        perm = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            ce, grad = loss_and_grad(arch, values, data.features[idx], data.labels[idx])
            loss, grad = scale * ce + penalty, scale * grad
            if mu:
                diff = values - anchor
                loss += 0.5 * mu * float(diff @ diff)
                grad = grad + mu * diff
            losses.append(loss)
            values, buf = sgd_step(values, buf, grad, cfg)
    return values, losses


def accuracy(arch, values, data):
    logits = forward(unpack(arch, values), data.features)[-1]
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def full_batch(arch, values, datasets):
    """(f, grad f, gradient ratio or None) over the datasets, each weighted
    by its share of the rows and added in the order given."""
    total = float(sum(len(data) for data in datasets))
    loss, grad, mean_sq = 0.0, np.zeros(values.size), 0.0
    for data in datasets:
        loss_k, grad_k = loss_and_grad(arch, values, data.features, data.labels)
        weight = len(data) / total
        loss += weight * loss_k
        grad += weight * grad_k
        mean_sq += weight * float(grad_k @ grad_k)
    denom = float(np.linalg.norm(grad))
    return loss, grad, (math.sqrt(mean_sq) / denom if denom > GRAD_NORM_TOL else None)


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def reference_run(cfg, seed):
    """A run of cfg at seed, as (round records as dicts of the RoundRecord
    fields, final model values, descent rows as tuples of the DescentRecord
    fields or None, gradient ratios or None)."""
    cfg = replace(cfg, seed=seed)
    problem = build_problem(cfg, seed)
    arch, values = problem.server.model.arch, problem.server.model.values
    datasets = [client.data for client in problem.clients]
    server_data, test_data = problem.server.server_set.data, problem.test_set
    diagnose = cfg.instrument_global_loss or cfg.emit_dissimilarity
    by_accuracy = cfg.strategy in ("fedpdc", "fedpdc_adaptive")
    records, passes, prev = [], [], {}
    for t in range(cfg.rounds):
        if diagnose:
            passes.append(full_batch(arch, values, datasets))
        round_cfg = replace(cfg, lam=0.5 * (t + 1)) if cfg.strategy == "fedpdc_adaptive" else cfg
        selected = sample_clients(len(datasets), cfg.tau, t, seed)
        sent = {cid: prev.get(cid, 1.0) for cid in selected}
        trained = {
            cid: local_train(arch, datasets[cid], values, sent[cid], round_cfg, t) for cid in selected
        }
        # the local models are scored only when something reads the scores:
        # fedpdc's weights or dissimilarity.csv; unscored, every p stays 1
        scored = by_accuracy or cfg.emit_dissimilarity
        measured = {cid: accuracy(arch, trained[cid][0], server_data) for cid in selected} if scored else {}
        flags = ()
        if by_accuracy:
            weights = np.array([measured[cid] for cid in selected])
            if weights.sum() == 0.0:
                weights = np.full(len(selected), 1.0 / len(selected))
                flags = ("uniform_weights_zero_accuracy",)
            else:
                weights = weights / weights.sum()
        else:
            weights = np.array([len(datasets[cid]) for cid in selected], dtype=np.float64)
            weights = weights / weights.sum()
        values = weights @ np.stack([trained[cid][0] for cid in selected])
        records.append(
            dict(
                round=t,
                selected=selected,
                sent_accuracies=sent,
                measured_accuracies=measured,
                agg_weights={cid: float(w) for cid, w in zip(selected, weights)},
                mean_local_loss=_mean([_mean(trained[cid][1]) for cid in selected]),
                global_acc_server=accuracy(arch, values, server_data),
                global_acc_test=math.nan if test_data is None else accuracy(arch, values, test_data),
                flags=flags,
            )
        )
        prev = measured

    descent = None
    if cfg.instrument_global_loss:
        after = [f for f, _g, _r in passes[1:]] + [full_batch(arch, values, datasets)[0]]
        descent = []
        for t, ((before, grad, _ratio), f_after) in enumerate(zip(passes, after)):
            sqnorm = float(grad @ grad)
            lambda_hat = math.nan if sqnorm <= GRAD_NORM_TOL**2 else (before - f_after) / sqnorm
            descent.append((t, before, f_after, sqnorm, lambda_hat))
    ratios = [ratio for _f, _g, ratio in passes] if cfg.emit_dissimilarity else None
    return records, values, descent, ratios


def theorem_constant(L, mu, mu_bar, B, K):
    """The descent coefficient of the convergence bound, arranged with the
    factor 1/mu_bar at the end of each term."""
    term1 = 1.0 / mu
    term2 = (L * B / mu) / mu_bar
    term3 = 0.5 * (L * B * B) / (mu_bar * mu_bar)
    term4 = (2.0 * L * B * B / K) / (mu_bar * mu_bar)
    term5 = (1.0 + (2.0 * L * B) / mu_bar) * B * math.sqrt(2.0 / K) / mu_bar
    return term1 - term2 - term3 - term4 + term5
