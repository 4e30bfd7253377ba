"""Datasets, Dirichlet label-skew partitioning, and the server's balanced public set."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, PartitionError, StateError
from .seeding import TAG_PARTITION, TAG_SPLIT, TAG_SYNTH, stream

_MAX_PARTITION_RETRIES = 100


def plain_number(text: str) -> str:
    """text, if int() and float() may read it: ASCII with no underscore.
    Both also read underscores ("0_5" is 5.0) and other scripts' digits
    ("١٠" is 10, "２" is 2.0), which no file or config fedsim reads means;
    such text is a ValueError for the caller to report."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return text


def is_int(value) -> bool:
    """Whether value is an integer (Python's or numpy's), the rule of every
    count fedsim takes: a bool, np.bool_, a float or a string is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_arrays(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 features and int64 labels, private copies of the
    inputs: a nonempty rectangular matrix of finite numbers and one integer
    label per row. Anything else is a DataError; nothing is cast silently."""
    try:
        feats = np.asarray(features)
    except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
        raise DataError("features are not a rectangular matrix") from None
    try:
        labs = np.asarray(labels)
    except ValueError:
        raise DataError("labels must be a vector matching the number of rows") from None
    # the casts below would read numeric strings as numbers and truncate
    # float or bool labels to ints
    if feats.dtype.kind not in "iuf":
        raise DataError(f"features must be numbers, got dtype {feats.dtype}")
    if labs.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtype {labs.dtype}")
    feats = np.array(feats, dtype=np.float64, order="C")
    labs = np.array(labs, dtype=np.int64, order="C")
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise DataError("features must be a nonempty 2-d matrix")
    if labs.shape != (feats.shape[0],):
        raise DataError("labels must be a vector matching the number of rows")
    if not np.all(np.isfinite(feats)):
        raise DataError("features must be finite")
    feats.setflags(write=False)
    labs.setflags(write=False)
    return feats, labs


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with dense integer class labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        feats, labs = checked_arrays(self.features, self.labels)
        if not is_int(self.num_classes) or self.num_classes < 1:
            raise DataError(f"num_classes must be an integer >= 1, got {self.num_classes!r}")
        if labs.min() < 0 or labs.max() >= self.num_classes:
            raise DataError("labels must lie in [0, num_classes)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster classification task: one seeded centroid per class."""

    num_classes: int
    samples_per_class: int
    input_dim: int
    cluster_spread: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_classes < 1 or self.samples_per_class < 1 or self.input_dim < 1:
            raise DataError("synthetic spec counts must be >= 1")
        if self.cluster_spread < 0:
            raise DataError("cluster_spread must be >= 0")


@dataclass(frozen=True)
class Partition:
    """Per-client index lists into one dataset; disjoint and nonempty."""

    client_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cid, idxs in enumerate(self.client_indices):
            if len(idxs) == 0:
                raise PartitionError(f"client {cid} received no samples")
            if seen.intersection(idxs):
                raise PartitionError("client index lists overlap")
            seen.update(idxs)

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


@dataclass(frozen=True)
class ServerSet:
    """Strictly class-balanced holdout kept by the server, carved before
    client partitioning so it is disjoint from all client data."""

    data: LabeledDataset
    per_class: int
    source_indices: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        counts = self.data.class_histogram()
        if not np.all(counts == self.per_class):
            raise StateError("server set must hold the same count for every class")

    def __len__(self) -> int:
        return len(self.data)


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Draw samples_per_class points around each class centroid.

    Centroids are seeded random directions on the unit sphere scaled to
    radius 2; samples add isotropic Gaussian noise of scale cluster_spread.
    """
    rng = stream(TAG_SYNTH, spec.seed)
    count = spec.samples_per_class
    features = np.empty((spec.num_classes * count, spec.input_dim))
    for cls in range(spec.num_classes):
        direction = rng.standard_normal(spec.input_dim)
        norm = float(np.linalg.norm(direction))
        while norm < 1e-12:
            direction = rng.standard_normal(spec.input_dim)
            norm = float(np.linalg.norm(direction))
        mean = 2.0 * direction / norm
        # mean + cluster_spread * noise, in the class's own rows
        rows = features[cls * count : (cls + 1) * count]
        rng.standard_normal(out=rows)
        np.multiply(spec.cluster_spread, rows, out=rows)
        np.add(mean, rows, out=rows)
    labels = np.arange(spec.num_classes, dtype=np.int64).repeat(count)
    return LabeledDataset(features, labels, spec.num_classes)


def read_csv_rows(path, what: str) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, a leading byte-order mark ignored; a
    file that cannot be opened, decoded or parsed is a DataError "cannot
    read <what> <path>: ..."."""
    # imported here: only a CSV dataset or a history file is read as CSV
    import csv

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def load_csv(path) -> LabeledDataset:
    """Read `label,f1,f2,...` rows; labels are remapped to dense [0, C)."""
    rows = [row for row in read_csv_rows(path, "dataset") if row]
    if not rows:
        raise DataError(f"{path}: file is empty")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: row 1 needs a label and at least one feature")
    raw_labels = np.empty(len(rows), dtype=np.int64)
    features = np.empty((len(rows), width - 1), dtype=np.float64)
    for i, row in enumerate(rows):
        lineno = i + 1
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} cells, expected {width}")
        try:
            # integer text is parsed exactly; float text names one integer only below 2**53
            text = plain_number(row[0])
            label = int(text) if text.strip().lstrip("+-").isdigit() else float(text)
        except ValueError:
            raise DataError(f"{path}: row {lineno} has non-numeric label {row[0]!r}") from None
        exact = isinstance(label, int) or (label.is_integer() and abs(label) < 2**53)
        if not (exact and -(2**63) <= label < 2**63):
            raise DataError(f"{path}: row {lineno} label {row[0]!r} is not a 64-bit integer")
        raw_labels[i] = int(label)
        try:
            features[i] = [float(plain_number(cell)) for cell in row[1:]]
        except ValueError:
            raise DataError(f"{path}: row {lineno} has a non-numeric feature cell") from None
        if not np.isfinite(features[i]).all():
            raise DataError(f"{path}: row {lineno} has a non-finite feature cell")
    uniq = np.unique(raw_labels)
    dense = np.searchsorted(uniq, raw_labels)
    return LabeledDataset(features, dense, len(uniq))


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write `label,f1,f2,...` rows with 17 significant digits (round-trip safe)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            cells = [str(int(label))] + [format(v, ".17g") for v in row]
            fh.write(",".join(cells) + "\n")


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing exactly to total, apportioned by proportions."""
    ideal = proportions * total
    counts = np.floor(ideal).astype(np.int64)
    deficit = total - int(counts.sum())
    if deficit > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:deficit]] += 1
    return counts


def dirichlet_partition(
    dataset: LabeledDataset, num_clients: int, beta: float, seed: int
) -> Partition:
    """Split every class across clients by seeded Dir(beta, ..., beta) draws.

    Class counts are conserved exactly (largest-remainder rounding). A draw
    that leaves any client empty is retried with the next seed, up to
    _MAX_PARTITION_RETRIES attempts.
    """
    if num_clients < 1:
        raise PartitionError("num_clients must be >= 1")
    if beta <= 0:
        raise PartitionError("beta must be > 0")
    if len(dataset) < num_clients:
        raise PartitionError("dataset smaller than the number of clients")
    class_indices = [np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)]

    for attempt in range(_MAX_PARTITION_RETRIES):
        rng = stream(TAG_PARTITION, seed + attempt)
        per_client: list[list[int]] = [[] for _ in range(num_clients)]
        degenerate = False
        for idx_c in class_indices:
            if idx_c.size == 0:
                continue
            # Dirichlet via normalized Gamma(beta, 1) draws.
            gamma = rng.gamma(beta, 1.0, size=num_clients)
            total = gamma.sum()
            if total <= 0.0:
                degenerate = True
                break
            counts = _largest_remainder_counts(gamma / total, idx_c.size)
            start = 0
            for cid, cnt in enumerate(counts):
                per_client[cid].extend(idx_c[start : start + cnt].tolist())
                start += cnt
        if degenerate or any(len(idxs) == 0 for idxs in per_client):
            continue
        return Partition(tuple(tuple(idxs) for idxs in per_client))
    raise PartitionError(
        f"no nonempty partition after {_MAX_PARTITION_RETRIES} attempts; "
        "use a larger dataset or a larger beta"
    )


def build_server_set(
    dataset: LabeledDataset, per_class: int, seed: int
) -> tuple[ServerSet, LabeledDataset]:
    """Move per_class seeded-random samples of every class into a balanced
    holdout; the remainder (original row order) is returned for clients."""
    if per_class < 1:
        raise DataError("per_class must be >= 1")
    rng = stream(TAG_SPLIT, seed)
    chosen: list[np.ndarray] = []
    for cls in range(dataset.num_classes):
        idx_c = np.flatnonzero(dataset.labels == cls)
        if idx_c.size < per_class:
            raise DataError(
                f"class {cls} has {idx_c.size} samples, need {per_class} for the server set"
            )
        picked = rng.choice(idx_c, size=per_class, replace=False)
        chosen.append(np.sort(picked))
    chosen_all = np.concatenate(chosen)
    server = ServerSet(
        data=dataset.subset(chosen_all),
        per_class=per_class,
        source_indices=tuple(int(i) for i in chosen_all),
    )
    keep = np.setdiff1d(np.arange(len(dataset)), chosen_all, assume_unique=True)
    if keep.size == 0:
        raise DataError("server set consumed the entire dataset")
    return server, dataset.subset(keep)


def partition_stats(partition: Partition, dataset: LabeledDataset) -> np.ndarray:
    """Per-client per-class sample counts, shape (num_clients, num_classes)."""
    counts = np.zeros((partition.num_clients, dataset.num_classes), dtype=np.int64)
    for cid, idxs in enumerate(partition.client_indices):
        idx = np.asarray(idxs, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(dataset)):
            raise PartitionError(f"client {cid} indexes outside the dataset")
        counts[cid] = np.bincount(dataset.labels[idx], minlength=dataset.num_classes)
    return counts


def write_partition_manifest(partition: Partition, path) -> None:
    """One line per client: `<client_id>: i1,i2,...` with indices sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for cid, idxs in enumerate(partition.client_indices):
            fh.write(f"{cid}: " + ",".join(str(i) for i in sorted(idxs)) + "\n")
