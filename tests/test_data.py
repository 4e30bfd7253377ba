import tracemalloc

import numpy as np
import pytest

from fedsim import nn
from fedsim.config import ExperimentConfig, config_text
from fedsim.data import (
    LabeledDataset,
    Partition,
    SyntheticSpec,
    build_server_set,
    dirichlet_partition,
    generate_synthetic,
    load_csv,
    partition_stats,
    save_csv,
    write_partition_manifest,
)
from fedsim.errors import ConfigError, DataError, PartitionError, ShapeError
from fedsim.seeding import TAG_SYNTH, stream


def small_pool(seed=0, classes=8, per_class=120, dim=4):
    return generate_synthetic(SyntheticSpec(classes, per_class, dim, 0.5, seed=seed))


class TestSynthetic:
    def test_counts_and_labels(self):
        ds = generate_synthetic(SyntheticSpec(2, 50, 2, 0.1, seed=3))
        assert len(ds) == 100
        assert list(ds.class_histogram()) == [50, 50]

    def test_zero_spread_collapses_to_means(self):
        ds = generate_synthetic(SyntheticSpec(3, 10, 5, 0.0, seed=4))
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.array_equal(block, np.tile(block[0], (10, 1)))
            assert np.linalg.norm(block[0]) == pytest.approx(2.0, rel=1e-12)

    def test_nearest_centroid_oracle_separates_classes(self):
        ds = generate_synthetic(SyntheticSpec(2, 50, 2, 0.1, seed=3))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        dist_sq = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
        accuracy = np.mean(np.argmin(dist_sq, axis=1) == ds.labels)
        assert accuracy > 0.99

    def test_deterministic(self):
        spec = SyntheticSpec(4, 20, 3, 0.7, seed=11)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("spec", [SyntheticSpec(1, 1, 1, 0.5, 0), SyntheticSpec(3, 7, 5, 0.0, 1),
                                      SyntheticSpec(10, 1000, 16, 1.0, 2)])
    def test_equals_the_per_class_blocks_stacked(self, spec):
        # the classes' rows drawn a block at a time and stacked, as the
        # generator once built them
        rng = stream(TAG_SYNTH, spec.seed)
        blocks = []
        for _cls in range(spec.num_classes):
            direction = rng.standard_normal(spec.input_dim)
            while np.linalg.norm(direction) < 1e-12:
                direction = rng.standard_normal(spec.input_dim)
            mean = 2.0 * direction / float(np.linalg.norm(direction))
            blocks.append(mean + spec.cluster_spread * rng.standard_normal((spec.samples_per_class, spec.input_dim)))
        ds = generate_synthetic(spec)
        assert ds.features.tobytes() == np.vstack(blocks).tobytes()
        assert ds.labels.tolist() == [c for c in range(spec.num_classes) for _ in range(spec.samples_per_class)]

    def test_peak_memory_is_about_two_feature_matrices(self):
        # the many_clients_diag data set (10 classes of 1000 rows, 16
        # features): the matrix drawn in place and LabeledDataset's private
        # copy. Drawing per-class blocks and stacking them peaked at 3.4 times
        spec = SyntheticSpec(10, 1000, 16, 1.0, seed=1)
        generate_synthetic(spec)
        tracemalloc.start()
        try:
            ds = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ds.features.nbytes

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(0, 10, 2, 0.5, seed=0)
        with pytest.raises(DataError):
            SyntheticSpec(2, 10, 2, -0.5, seed=0)


class TestCsv:
    def test_dense_label_remap(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("5,0.5,1.5\n5,-1,2\n9,0,0\n")
        ds = load_csv(path)
        assert ds.num_classes == 2
        assert list(ds.labels) == [0, 0, 1]
        assert np.array_equal(ds.features[1], [-1.0, 2.0])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,1.5\n2,0.25\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5\n1,oops\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)
        path.write_text("x,0.5\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path)
        # int() and float() read "1_0" as 10 and the digits of other scripts
        # ("١٠" Arabic-Indic, "２" fullwidth): these rows used to load as
        # labels [1 1 1 0] with features [0.5 15.0 2.0 0.25]
        for row in ("1_0,0.5", "10,1_5", "١٠,２"):
            path.write_text(f"{row}\n2,0.25\n", encoding="utf-8")
            with pytest.raises(DataError, match="row 1 has"):
                load_csv(path)
        for cell in ("1_5", "1.5_0", "1e1_0", "２", "١٠", "\u20031"):
            path.write_text(f"1,0.5\n1,{cell}\n", encoding="utf-8")
            with pytest.raises(DataError, match="row 2 has a non-numeric feature cell"):
                load_csv(path)
            path.write_text(f"2,0.5\n{cell},0.5\n", encoding="utf-8")
            with pytest.raises(DataError, match="row 2 has non-numeric label"):
                load_csv(path)

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        # with it the first label read "\ufeff0": a non-numeric label in row 1
        text = b"0,1.0\n1,2.0\n3,-0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want, got = load_csv(plain), load_csv(marked)
        assert got.num_classes == want.num_classes
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.features.tobytes() == want.features.tobytes()

    def test_large_labels_stay_distinct(self, tmp_path):
        # as floats, 2**53 + 1 and 2**53 are one number
        path = tmp_path / "d.csv"
        path.write_text("9007199254740993,0.5\n9007199254740992,1\n1,2\n-9223372036854775808,3\n")
        ds = load_csv(path)
        assert ds.num_classes == 4 and list(ds.labels) == [3, 2, 1, 0]
        path.write_text("3.0,0.5\n-2e0,1\n9007199254740991.0,2\n9007199254740992,3\n")
        ds = load_csv(path)
        assert ds.num_classes == 4 and list(ds.labels) == [1, 0, 2, 3]
        # surrounding spaces, signs and exponents stay accepted
        path.write_text(" +3 , 0.5 \n-2 ,\t-1e-1\n3.0,+.5E+2\n")
        ds = load_csv(path)
        assert list(ds.labels) == [1, 0, 1] and list(ds.features[:, 0]) == [0.5, -0.1, 50.0]

    @pytest.mark.parametrize(
        "label",
        [
            "nan", "inf", "-inf", "1e20", "1.5", "9007199254740992.0", "9007199254740993.0",
            "9007199254740994.0", "9223372036854775808",
        ],
    )
    def test_label_not_an_int64_names_row(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"1,0.5\n{label},0.25\n")
        with pytest.raises(DataError, match=f"row 2 label '{label}'"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_round_trip_exact(self, tmp_path):
        ds = small_pool(seed=5, classes=3, per_class=17, dim=6)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = small_pool(per_class=30)
        part = dirichlet_partition(ds, 1, 0.5, seed=0)
        assert sorted(part.client_indices[0]) == list(range(len(ds)))

    def test_exact_conservation(self):
        ds = small_pool()
        part = dirichlet_partition(ds, 7, 0.3, seed=1)
        all_indices = sorted(i for idxs in part.client_indices for i in idxs)
        assert all_indices == list(range(len(ds)))
        stats = partition_stats(part, ds)
        assert np.array_equal(stats.sum(axis=0), ds.class_histogram())

    def test_near_iid_proportions_close_to_global(self):
        ds = small_pool()
        global_props = ds.class_histogram() / len(ds)
        for seed in range(5):
            stats = partition_stats(dirichlet_partition(ds, 10, 1e6, seed), ds)
            props = stats / stats.sum(axis=1, keepdims=True)
            assert np.max(np.abs(props - global_props) / global_props) < 0.05

    def test_deterministic(self):
        ds = small_pool()
        assert dirichlet_partition(ds, 5, 0.2, seed=3) == dirichlet_partition(ds, 5, 0.2, seed=3)

    def test_retry_budget_exhausted(self):
        tiny = generate_synthetic(SyntheticSpec(1, 3, 2, 0.1, seed=0))
        with pytest.raises(PartitionError, match="100 attempts"):
            dirichlet_partition(tiny, 3, 1e-8, seed=0)

    def test_rejects_bad_inputs(self):
        ds = small_pool(per_class=2)
        with pytest.raises(PartitionError):
            dirichlet_partition(ds, 0, 0.5, seed=0)
        with pytest.raises(PartitionError):
            dirichlet_partition(ds, 5, 0.0, seed=0)
        with pytest.raises(PartitionError):
            dirichlet_partition(ds, len(ds) + 1, 0.5, seed=0)


class TestServerSet:
    def test_balanced_counts(self):
        ds = small_pool(classes=4, per_class=40)
        server, rest = build_server_set(ds, 10, seed=0)
        assert len(server) == 40
        assert np.all(server.data.class_histogram() == 10)
        assert len(rest) == len(ds) - 40

    def test_insufficient_class_named(self):
        ds = small_pool(classes=3, per_class=5)
        with pytest.raises(DataError, match="class 0"):
            build_server_set(ds, 6, seed=0)

    def test_split_is_a_disjoint_cover(self):
        ds = small_pool(classes=4, per_class=25)
        server, rest = build_server_set(ds, 7, seed=9)
        src = set(server.source_indices)
        assert len(src) == len(server)
        # remainder holds exactly the complement, in original order
        complement = [i for i in range(len(ds)) if i not in src]
        assert np.array_equal(rest.features, ds.features[complement])
        assert np.array_equal(rest.labels, ds.labels[complement])


class TestPartitionStats:
    def test_single_client_matches_global_histogram(self):
        ds = small_pool(per_class=20)
        part = dirichlet_partition(ds, 1, 1.0, seed=0)
        stats = partition_stats(part, ds)
        assert np.array_equal(stats[0], ds.class_histogram())

    def test_low_beta_concentrates_mass(self):
        ds = small_pool()
        dominated = []
        for seed in range(5):
            stats = partition_stats(dirichlet_partition(ds, 10, 0.1, seed), ds)
            share = stats.max(axis=1) / stats.sum(axis=1)
            dominated.append(int((share > 0.5).sum()))
        assert np.mean(dominated) >= 6

    def test_entropy_monotone_in_beta(self):
        ds = small_pool()

        def mean_entropy(beta, seed):
            stats = partition_stats(dirichlet_partition(ds, 10, beta, seed), ds)
            props = stats / stats.sum(axis=1, keepdims=True)
            terms = np.where(props > 0, -props * np.log(np.where(props > 0, props, 1.0)), 0.0)
            return terms.sum(axis=1).mean()

        low = np.mean([mean_entropy(0.1, s) for s in range(5)])
        high = np.mean([mean_entropy(10.0, s) for s in range(5)])
        assert low < high


def test_partition_type_rejects_overlap_and_empty():
    with pytest.raises(PartitionError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(PartitionError):
        Partition(((0, 1), ()))


def test_manifest_format(tmp_path):
    part = Partition(((3, 0), (2, 5)))
    path = tmp_path / "partition.txt"
    write_partition_manifest(part, path)
    assert path.read_text() == "0: 0,3\n1: 2,5\n"


# each of these used to be cast without a word (labels [0.7, 1.9] became
# [0, 1], bools 0/1) or to raise a raw ValueError (string features, ragged rows)
@pytest.mark.parametrize(
    "features, labels, num_classes, problem",
    [
        (np.ones((2, 3)), np.array([0.7, 1.9]), 2, "labels must be integers"),
        (np.ones((2, 3)), np.array([True, False]), 2, "labels must be integers"),
        (np.ones((2, 3)), np.array([0, 1]), 2.5, "num_classes must be an integer"),
        (np.ones((2, 3)), np.array([0, 1]), True, "num_classes must be an integer"),
        (np.array([["a", "b"], ["c", "d"]]), np.array([0, 1]), 2, "features must be numbers"),
        (np.array([["1"], ["2"]]), np.array([0, 1]), 2, "features must be numbers"),
        ([[1.0, 2.0], [3.0]], [0, 1], 2, "features are not a rectangular matrix"),
    ],
)
def test_labeled_dataset_names_a_mistyped_input(features, labels, num_classes, problem):
    with pytest.raises(DataError, match=problem):
        LabeledDataset(features, labels, num_classes)


def test_labeled_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(DataError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([0]), 1)
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 1)


# every boundary that takes a count, as (build with count n, its error, its message)
INTEGER_BOUNDARIES = {
    "config": (lambda n: ExperimentConfig(rounds=n), ConfigError, "rounds must be of type int"),
    "ModelArch": (lambda n: nn.ModelArch((2, n)), ConfigError, "layer widths must be integers"),
    "LabeledDataset": (lambda n: LabeledDataset(np.zeros((1, 2)), [0], n), DataError, "num_classes must be an integer"),
    "TrainPlan": (lambda n: nn.TrainPlan(nn.ModelArch((2, 3)), n), ShapeError, "an integer row count"),
}


@pytest.mark.parametrize("boundary", INTEGER_BOUNDARIES)
def test_every_boundary_takes_the_same_integers(boundary):
    # data.is_int is the one rule: a Python or numpy integer, never a bool,
    # a float or a string, though int() reads each
    build, error, message = INTEGER_BOUNDARIES[boundary]
    for value in (3, np.int64(3)):
        build(value)
    for value in (True, np.bool_(True), 3.0, "3"):
        with pytest.raises(error, match=message):
            build(value)


def test_a_config_of_numpy_integers_is_the_config_of_ints():
    ints = dict(rounds=3, hidden=(8, 4), seeds=(1, 2), lam=2, clients=5)
    numpy_ints = {key: np.int64(v) if isinstance(v, int) else tuple(map(np.int64, v)) for key, v in ints.items()}
    plain, from_numpy = ExperimentConfig(**ints), ExperimentConfig(**numpy_ints)
    assert from_numpy == plain and config_text(from_numpy) == config_text(plain)
    assert all(type(getattr(from_numpy, key)) is type(getattr(plain, key)) for key in ints)
