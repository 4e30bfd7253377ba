"""Exception hierarchy shared by all fedsim modules."""


class FedsimError(Exception):
    """Base class for all errors raised by fedsim."""


class ConfigError(FedsimError):
    """Invalid configuration: bad key, bad type, or violated constraint."""


class ShapeError(FedsimError):
    """Array dimensions do not match the model architecture."""


class DataError(FedsimError):
    """Malformed or inconsistent dataset input."""


class PartitionError(FedsimError):
    """A client partition could not be produced under the given settings."""


class AggregationError(FedsimError):
    """Model aggregation received inconsistent inputs."""


class EvaluationError(FedsimError):
    """Model evaluation was requested on unusable data."""


class StateError(FedsimError):
    """A runtime value left its documented domain."""


class DivergenceError(FedsimError):
    """Training or evaluation left the finite domain.

    Raised by local training it names the client, the round, the 0-based
    step within the client's local training, and the last finite loss that
    client reported (None before its first); elsewhere these are None.
    """

    def __init__(
        self,
        message: str,
        client: int | None = None,
        round: int | None = None,
        step: int | None = None,
        last_finite_loss: float | None = None,
    ) -> None:
        super().__init__(message)
        self.client = client
        self.round = round
        self.step = step
        self.last_finite_loss = last_finite_loss


class DiagnosticsError(FedsimError):
    """A diagnostic was requested without the instrumentation it needs."""
