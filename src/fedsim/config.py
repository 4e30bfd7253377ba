"""Experiment configuration: `key = value` files, defaults, strict validation.

Unknown keys are rejected and every constraint is checked at parse time so a
run can never fail on a bad knob after compute has started. The resolved
config can be serialized back to text and reparsed into an equal object.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .engine import StrategyConfig, TrainConfig
from .errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    num_classes: int = 8
    samples_per_class: int = 200
    input_dim: int = 16
    cluster_spread: float = 0.6
    hidden: tuple[int, ...] = (64,)
    clients: int = 10
    beta: float = 0.5
    server_per_class: int = 32
    test_per_class: int = 40
    strategy: str = "fedavg"
    lam: float = 1.0
    mu_prox: float = 0.01
    penalty_mode: str = "literal"
    tau: float = 1.0
    local_epochs: int = 10
    batch_size: int = 64
    eta: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    rounds: int = 50
    seed: int = 0
    seeds: tuple[int, ...] = ()
    output_dir: str = "runs"
    instrument_global_loss: bool = False
    emit_dissimilarity: bool = False

    def __post_init__(self) -> None:
        # engine dataclasses enforce their own domains; surface as ConfigError
        self.strategy_config()
        self.train_config(self.seed)
        if self.dataset == "synthetic":
            if self.num_classes < 1 or self.samples_per_class < 1 or self.input_dim < 1:
                raise ConfigError("synthetic counts (num_classes, samples_per_class, input_dim) must be >= 1")
            if self.cluster_spread < 0:
                raise ConfigError("cluster_spread must be >= 0")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        if self.clients < 1:
            raise ConfigError("clients must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.beta <= 0:
            raise ConfigError("beta must be > 0")
        if self.server_per_class < 1:
            raise ConfigError("server_per_class must be >= 1")
        if self.test_per_class < 0:
            raise ConfigError("test_per_class must be >= 0")
        if self.seed < 0 or any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            # each seed owns one run directory; a repeat would overwrite it
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")

    def strategy_config(self) -> StrategyConfig:
        return StrategyConfig(
            strategy=self.strategy,
            lam=self.lam,
            mu_prox=self.mu_prox,
            penalty_mode=self.penalty_mode,
            tau=self.tau,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            lr=self.eta,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            seed=seed,
        )

    def seeds_list(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else (self.seed,)

    def for_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, seeds=(seed,))


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError("expected true or false")


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(tok.strip()) for tok in text.split(","))


# config key -> (dataclass field, value parser)
_SCHEMA: dict[str, tuple[str, object]] = {
    "dataset": ("dataset", _parse_str),
    "num_classes": ("num_classes", _parse_int),
    "samples_per_class": ("samples_per_class", _parse_int),
    "input_dim": ("input_dim", _parse_int),
    "cluster_spread": ("cluster_spread", _parse_float),
    "hidden": ("hidden", _parse_int_list),
    "clients": ("clients", _parse_int),
    "beta": ("beta", _parse_float),
    "server_per_class": ("server_per_class", _parse_int),
    "test_per_class": ("test_per_class", _parse_int),
    "strategy": ("strategy", _parse_str),
    "lambda": ("lam", _parse_float),
    "mu_prox": ("mu_prox", _parse_float),
    "penalty_mode": ("penalty_mode", _parse_str),
    "tau": ("tau", _parse_float),
    "local_epochs": ("local_epochs", _parse_int),
    "batch_size": ("batch_size", _parse_int),
    "eta": ("eta", _parse_float),
    "momentum": ("momentum", _parse_float),
    "weight_decay": ("weight_decay", _parse_float),
    "rounds": ("rounds", _parse_int),
    "seed": ("seed", _parse_int),
    "seeds": ("seeds", _parse_int_list),
    "output_dir": ("output_dir", _parse_str),
    "instrument_global_loss": ("instrument_global_loss", _parse_bool),
    "emit_dissimilarity": ("emit_dissimilarity", _parse_bool),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _SCHEMA.items()}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno} is not of the form key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}: line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        field_name, parser = _SCHEMA[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical echo of the resolved config; reparses to an equal object."""
    lines = []
    for f in fields(cfg):
        key = _FIELD_TO_KEY[f.name]
        lines.append(f"{key} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def write_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config_text(cfg))
