"""Experiment configuration: `key = value` files, defaults, strict validation.

Every `ExperimentConfig` field is one key, named after the field (`lam` is
written `lambda`), and its annotation picks how the value is parsed,
formatted and type-checked. Unknown keys are rejected and every constraint is checked at parse
time so a run can never fail on a bad knob after compute has started. The
resolved config can be serialized back to text and reparsed into an equal
object. The engine reads the strategy and training settings straight from a
validated `ExperimentConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .data import plain_number
from .errors import ConfigError

STRATEGIES = ("fedavg", "fedprox", "fedpdc", "fedpdc_adaptive")
PENALTY_MODES = ("literal", "scaled_ce")


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
        for f in fields(self):
            key, value = _FIELD_TO_KEY[f.name], getattr(self, f.name)
            if not _TEXT_FORMS[f.type][2](value):
                raise ConfigError(f"{key} must be of type {f.type}, got {value!r} (ints must fit int64)")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if f.type == "float":
                # an int stands for its float; holding the float keeps the echo canonical
                object.__setattr__(self, f.name, float(value))
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.penalty_mode not in PENALTY_MODES:
            raise ConfigError(f"penalty_mode must be one of {PENALTY_MODES}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.lam < 0 or self.mu_prox < 0:
            raise ConfigError("lambda and mu_prox must be >= 0")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
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

    def seeds_list(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else (self.seed,)

    def for_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, seeds=(seed,))


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError("expected true or false")


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(plain_number(tok.strip())) for tok in text.split(","))


def _is_int(value) -> bool:
    # a bool is an int to Python, never to a config; int64 is what numpy
    # computes counts in, and a wider seed would alias a narrower one
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


# field annotation (a string, under `from __future__ import annotations`) ->
# (parser, formatter, type check); each formatter is its parser's inverse.
# Numbers are read by load_csv's cell rule (data.plain_number), strings
# (paths among them) as written
_TEXT_FORMS = {
    "str": (str, str, lambda value: isinstance(value, str)),
    "int": (lambda text: int(plain_number(text)), str, _is_int),
    "float": (
        lambda text: float(plain_number(text)), repr, lambda value: isinstance(value, float) or _is_int(value)
    ),
    "bool": (_parse_bool, lambda value: "true" if value else "false", lambda value: isinstance(value, bool)),
    "tuple[int, ...]": (
        _parse_int_list,
        lambda value: ",".join(str(v) for v in value),
        lambda value: isinstance(value, tuple) and all(map(_is_int, value)),
    ),
}

# the config key is the field name, except where the name is a Python keyword
_FIELD_TO_KEY = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(ExperimentConfig)}
_KEY_TO_FIELD = {_FIELD_TO_KEY[f.name]: f for f in fields(ExperimentConfig)}


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
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}: line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        f = _KEY_TO_FIELD[key]
        try:
            values[f.name] = _TEXT_FORMS[f.type][0](value)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical echo of the resolved config; reparses to an equal object."""
    return "".join(
        f"{_FIELD_TO_KEY[f.name]} = {_TEXT_FORMS[f.type][1](getattr(cfg, f.name))}\n"
        for f in fields(cfg)
    )


def write_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config_text(cfg))
