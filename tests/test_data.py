import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.clustering import js_divergence, kmeans, similarity_matrix
from fedsim.data import (
    MAX_PARTITION_ATTEMPTS,
    Dataset,
    _fill_empty_clients,
    class_counts,
    dirichlet_partition,
    generate_synthetic,
    load_idx,
    stratified_split,
)
from fedsim.errors import DataFormatError, ParameterError, PartitionError
from fedsim.model import ParamLayout, init_params

from conftest import write_idx_pair


class TestGenerateSynthetic:
    def test_size_arithmetic(self):
        data = generate_synthetic(4, 8, 100, 0.1, 42)
        assert len(data) == 400
        assert data.n_features == 8
        assert all(np.sum(data.labels == c) == 100 for c in range(4))

    def test_zero_spread_hits_class_means(self):
        data = generate_synthetic(2, 2, 1, 0.0, 777)
        np.testing.assert_array_equal(data.features, np.eye(2))
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_determinism(self):
        a = generate_synthetic(4, 8, 250, 0.5, 7)
        b = generate_synthetic(4, 8, 250, 0.5, 7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_means_are_seed_independent(self):
        a = generate_synthetic(3, 4, 50, 0.0, 1)
        b = generate_synthetic(3, 4, 50, 0.0, 999)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize(
        "args",
        [(1, 8, 10, 0.1), (4, 1, 10, 0.1), (4, 8, 0, 0.1), (4, 8, 10, -0.5), (4, 8, 10, float("nan")),
         (4, 8, 10, float("inf"))],
    )
    def test_invalid_arguments(self, args):
        with pytest.raises(ParameterError):
            generate_synthetic(*args, seed=0)


class TestLoadIdx:
    def test_round_trip_of_handmade_fixture(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(10, 2, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1], dtype=np.uint8)
        images_path, labels_path = write_idx_pair(tmp_path, images, labels)
        data = load_idx(images_path, labels_path, keep_classes=[0, 1, 2, 3])
        assert data.n_classes == 4
        assert data.n_features == 6
        np.testing.assert_allclose(data.features, images.reshape(10, 6) / 255.0)
        np.testing.assert_array_equal(data.labels, labels)

    def test_keep_classes_filters_and_relabels(self, tmp_path):
        images = np.arange(5 * 4, dtype=np.uint8).reshape(5, 2, 2)
        labels = np.array([7, 3, 7, 1, 3], dtype=np.uint8)
        images_path, labels_path = write_idx_pair(tmp_path, images, labels)
        data = load_idx(images_path, labels_path, keep_classes=[3, 7])
        np.testing.assert_array_equal(data.labels, [1, 0, 1, 0])
        assert data.n_classes == 2
        np.testing.assert_allclose(data.features[0], images[0].reshape(-1) / 255.0)

    def test_label_file_with_image_magic_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        images_path, _ = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        with pytest.raises(DataFormatError):
            load_idx(images_path, images_path, keep_classes=[0])

    def test_truncated_file_rejected(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        images_path, labels_path = write_idx_pair(tmp_path, images, np.zeros(4, dtype=np.uint8))
        raw = images_path.read_bytes()
        images_path.write_bytes(raw[:-3])
        with pytest.raises(DataFormatError):
            load_idx(images_path, labels_path, keep_classes=[0])

    @pytest.mark.parametrize("header, named", [
        (b"\x00\x00", "truncated header"),
        (struct.pack(">I", 0x00000D03), "bad magic 0x00000d03"),
        (struct.pack(">II", 0x00000803, 5), "truncated dimension header"),
        (struct.pack(">IIII", 0x00000803, 2, 0, 0), "images of 0 x 0 pixels are empty"),
        (struct.pack(">IIII", 0x00000803, 2, 3, 0), "images of 3 x 0 pixels are empty"),
        (struct.pack(">IIII", 0x00000803, 2, 0, 5), "images of 0 x 5 pixels are empty"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, header, named):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        images_path.write_bytes(header)
        with pytest.raises(DataFormatError, match=rf"images\.idx: {named}"):
            load_idx(images_path, labels_path, keep_classes=[0])

    def test_pair_without_images_names_the_image_file(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((0, 28, 28)), np.zeros(0))
        with pytest.raises(DataFormatError, match=r"images\.idx: holds no images"):
            load_idx(images_path, labels_path, keep_classes=[0, 1])

    def test_no_sample_of_a_kept_class_rejected(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.array([0, 1, 0]))
        with pytest.raises(DataFormatError, match="no samples carry any of the requested classes"):
            load_idx(images_path, labels_path, keep_classes=[5, 7])

    @pytest.mark.parametrize("keep, missing", [([0, 1, 5], "5"), ([7, 1, 9], "7, 9")])
    def test_a_kept_label_that_no_sample_carries_is_named_with_the_labels_file(self, tmp_path, keep, missing):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.array([0, 1, 0]))
        with pytest.raises(DataFormatError, match=rf"labels\.idx: no sample carries the kept label\(s\) {missing}$"):
            load_idx(images_path, labels_path, keep_classes=keep)

    @pytest.mark.parametrize("keep", [[], [1, 0, 1]])
    def test_empty_or_repeated_keep_classes_rejected(self, tmp_path, keep):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.array([0, 1, 0]))
        with pytest.raises(ParameterError, match="non-empty and free of duplicates"):
            load_idx(images_path, labels_path, keep_classes=keep)

    @pytest.mark.parametrize("keep, named", [((2.5, 1), "must be an integer, not 2.5"), ((1, -1), "must be >= 0")])
    def test_kept_classes_that_are_not_labels_rejected(self, tmp_path, keep, named):
        # 2.5 once loaded class 2, truncated by int()
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((6, 2, 2), dtype=np.uint8), [0, 1, 2, 0, 1, 2])
        with pytest.raises(ParameterError, match=f"^keep_classes {named}"):
            load_idx(images_path, labels_path, keep_classes=keep)

    def test_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        images_path, _ = write_idx_pair(tmp_path / "a", images, np.zeros(3, dtype=np.uint8))
        _, labels_path = write_idx_pair(tmp_path / "b", np.zeros((5, 2, 2), dtype=np.uint8), np.zeros(5, dtype=np.uint8))
        with pytest.raises(DataFormatError):
            load_idx(images_path, labels_path, keep_classes=[0])


class TestDatasetInvariants:
    @pytest.mark.parametrize("features, labels, n_classes, named", [
        (np.zeros(4), np.zeros(4), 2, r"\(n, F\) array with F >= 1"),
        (np.zeros((4, 0)), np.zeros(4), 2, r"\(n, F\) array with F >= 1"),
        (np.zeros((4, 2, 1)), np.zeros(4), 2, r"\(n, F\) array with F >= 1"),
        (np.zeros((4, 2)), np.zeros(3), 2, "equal length"),
        (np.zeros((4, 2)), np.zeros(4), 0, "n_classes must be >= 1"),
        (np.zeros((3, 2)), np.array([0, 2, 1]), 2, r"labels must lie in \[0, 2\)"),
        (np.zeros((3, 2)), np.array([0, -1, 1]), 2, r"labels must lie in \[0, 2\)"),
        (np.zeros((2, 3)), np.array([0.5, 1.7]), 2, "labels must be whole numbers"),
        (np.zeros((2, 3)), np.array([0.0, np.nan]), 2, "labels must be whole numbers"),
        (np.zeros((2, 3)), np.array([np.inf, 1.0]), 2, "labels must be whole numbers"),
    ])
    def test_malformed_arrays_rejected(self, features, labels, n_classes, named):
        with pytest.raises(ParameterError, match=named):
            Dataset(features, labels, n_classes)

    def test_whole_float_labels_are_kept_as_integers(self):
        data = Dataset(np.zeros((3, 2)), np.array([1.0, 0.0, -0.0]), 2)
        assert data.labels.dtype == np.int64
        np.testing.assert_array_equal(data.labels, [1, 0, 0])


@pytest.mark.parametrize("call, named", [
    (lambda: Dataset(np.zeros((2, 2)), np.zeros(2), 2.5), "n_classes"),
    (lambda: Dataset(np.zeros((2, 2)), np.zeros(2), 2.0), "n_classes"),
    (lambda: generate_synthetic(3.0, 4, 5, 0.1, 0), "classes"),
    (lambda: generate_synthetic(3, 4.0, 5, 0.1, 0), "features"),
    (lambda: generate_synthetic(3, 4, 2.5, 0.1, 0), "per_class"),
    (lambda: dirichlet_partition(generate_synthetic(2, 2, 5, 0.1, 0), 2.0, 1.0, 0), "n_clients"),
], ids=["Dataset n_classes 2.5", "Dataset n_classes 2.0", "generate_synthetic classes", "generate_synthetic features",
        "generate_synthetic per_class", "dirichlet_partition n_clients"])
def test_data_layer_counts_that_are_not_integers_rejected(call, named):
    # data.integer's rule, operator.index's: 2.0 is not a count; these once passed or raised a bare TypeError
    with pytest.raises(ParameterError, match=f"^{named} must be an integer"):
        call()


SEED_DATA = generate_synthetic(2, 2, 40, 0.1, 2)


@pytest.mark.parametrize("call", [
    lambda seed: kmeans(np.eye(3), 2, seed),
    lambda seed: init_params(ParamLayout(2, 2, 2, 1), seed),
    lambda seed: generate_synthetic(2, 2, 10, 0.1, seed),
    lambda seed: stratified_split(SEED_DATA, 0.2, seed),
    lambda seed: dirichlet_partition(SEED_DATA, 2, 0.3, seed),
], ids=["kmeans", "init_params", "generate_synthetic", "stratified_split", "dirichlet_partition"])
@pytest.mark.parametrize("seed, named", [(1.5, "must be an integer"), (2.0, "must be an integer"), (-1, "must be >= 0")])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_parameter_error(call, seed, named):
    # these seeds once went straight to np.random.default_rng, which raised a bare TypeError or ValueError
    with pytest.raises(ParameterError, match=f"^seed {named}"):
        call(seed)


def test_a_numpy_seed_at_the_top_of_uint64_retries_without_wrapping():
    # seed + attempt once overflowed a np.uint64 seed with a RuntimeWarning and wrapped it to 0, 1, ...
    top = 2**64 - 1
    as_numpy = dirichlet_partition(SEED_DATA, 30, 0.05, np.uint64(top))
    as_int = dirichlet_partition(SEED_DATA, 30, 0.05, top)
    assert all(np.array_equal(a, b) for a, b in zip(as_numpy, as_int, strict=True))


class TestStratifiedSplit:
    def test_partition_of_indices(self):
        data = generate_synthetic(4, 3, 50, 0.2, 3)
        train, test = stratified_split(data, 0.2, 11)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(len(data)))

    def test_stratification(self):
        data = generate_synthetic(4, 3, 50, 0.2, 3)
        train, test = stratified_split(data, 0.2, 11)
        for c in range(4):
            assert np.sum(data.labels[test] == c) == 10

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_fraction_outside_the_open_unit_interval_rejected(self, fraction):
        with pytest.raises(ParameterError, match=r"test_fraction must be in \(0, 1\)"):
            stratified_split(generate_synthetic(2, 2, 5, 0.1, 0), fraction, 0)

    def test_determinism(self):
        data = generate_synthetic(3, 3, 40, 0.2, 3)
        a = stratified_split(data, 0.25, 5)
        b = stratified_split(data, 0.25, 5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def redraw_only_partition(dataset, n_clients, alpha, seed):
    """Reference: the redraw loop alone, as it ran before the repair existed; None when it gives up."""
    pool = np.arange(len(dataset))
    for attempt in range(MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        assigned = [[] for _ in range(n_clients)]
        ok = True
        for c in range(dataset.n_classes):
            class_pool = rng.permutation(pool[dataset.labels == c])
            if len(class_pool) == 0:
                continue
            gammas = rng.gamma(alpha, 1.0, n_clients)
            total = gammas.sum()
            if not np.isfinite(total) or total <= 0.0:
                ok = False
                break
            cuts = np.floor(np.cumsum(gammas / total)[:-1] * len(class_pool)).astype(int)
            for client_id, piece in enumerate(np.split(class_pool, cuts)):
                if len(piece):
                    assigned[client_id].append(piece)
        if ok and all(assigned):
            return [np.sort(np.concatenate(parts)) for parts in assigned]
    return None


class TestDirichletPartition:
    def test_partition_property(self):
        data = generate_synthetic(4, 3, 60, 0.3, 9)
        clients = dirichlet_partition(data, 7, 0.3, 42)
        combined = np.concatenate(clients)
        assert len(combined) == len(set(combined.tolist()))
        np.testing.assert_array_equal(np.sort(combined), np.arange(len(data)))

    @settings(max_examples=20, deadline=None)
    @given(
        n_clients=st.integers(min_value=1, max_value=8),
        alpha=st.floats(min_value=0.05, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property_randomized(self, n_clients, alpha, seed):
        data = generate_synthetic(3, 2, 40, 0.3, 1)
        clients = dirichlet_partition(data, n_clients, alpha, seed)
        combined = np.sort(np.concatenate(clients))
        np.testing.assert_array_equal(combined, np.arange(len(data)))
        assert all(len(c) >= 1 for c in clients)

    def test_respects_index_pool(self):
        data = generate_synthetic(4, 3, 60, 0.3, 9)
        train, _ = stratified_split(data, 0.2, 1)
        clients = dirichlet_partition(data, 5, 0.5, 42, indices=train)
        combined = np.sort(np.concatenate(clients))
        np.testing.assert_array_equal(combined, train)

    def test_determinism(self):
        data = generate_synthetic(4, 3, 100, 0.3, 9)
        a = dirichlet_partition(data, 10, 0.3, 42)
        b = dirichlet_partition(data, 10, 0.3, 42)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca, cb)

    @settings(max_examples=40, deadline=None)
    @given(
        classes=st.integers(min_value=2, max_value=4),
        per_class=st.integers(min_value=1, max_value=15),
        n_clients=st.integers(min_value=1, max_value=40),
        alpha=st.floats(min_value=0.01, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_repair_gives_a_disjoint_cover_without_empty_clients(self, classes, per_class, n_clients, alpha, seed):
        data = generate_synthetic(classes, 2, per_class, 0.3, 1)
        if len(data) < n_clients:
            with pytest.raises(PartitionError):
                dirichlet_partition(data, n_clients, alpha, seed)
            return
        clients = dirichlet_partition(data, n_clients, alpha, seed)
        assert len(clients) == n_clients and all(c.dtype == np.int64 for c in clients)
        combined = np.concatenate(clients)
        np.testing.assert_array_equal(np.sort(combined), np.arange(len(data)))
        assert all(len(c) >= 1 for c in clients)

    @settings(max_examples=40, deadline=None)
    @given(
        n_clients=st.integers(min_value=1, max_value=20),
        alpha=st.floats(min_value=0.05, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partitions_the_redraw_loop_finds_are_unchanged(self, n_clients, alpha, seed):
        data = generate_synthetic(3, 2, 12, 0.3, 1)
        reference = redraw_only_partition(data, n_clients, alpha, seed)
        clients = dirichlet_partition(data, n_clients, alpha, seed)
        if reference is not None:
            for client, want in zip(clients, reference):
                np.testing.assert_array_equal(client, want)

    def test_repair_rule(self):
        # each empty client, in id order, takes the highest index of the largest client (lowest id on ties)
        held = [np.array(h, dtype=np.int64) for h in ([], [3, 5, 9], [], [1, 2, 4], [])]
        repaired = _fill_empty_clients(held)
        assert [r.tolist() for r in repaired] == [[9], [3], [4], [1, 2], [5]]

    def test_paper_regime_partitions_at_scale(self):
        # 200 clients at alpha 0.3: every one of the 100 redraws leaves clients empty
        data = generate_synthetic(4, 2, 100, 0.3, 0)
        assert redraw_only_partition(data, 200, 0.3, 42) is None
        clients = dirichlet_partition(data, 200, 0.3, 42)
        assert min(len(c) for c in clients) == 1
        np.testing.assert_array_equal(np.sort(np.concatenate(clients)), np.arange(len(data)))

    def test_tiny_alpha_partitions_on_every_seed(self):
        # at alpha 1e-5 every redraw's gamma variates underflow, on every seed
        data = generate_synthetic(4, 2, 100, 0.3, 0)
        for seed in range(40):
            assert redraw_only_partition(data, 10, 1e-5, seed) is None
            clients = dirichlet_partition(data, 10, 1e-5, seed)
            assert len(clients) == 10 and all(c.dtype == np.int64 for c in clients)
            assert min(len(c) for c in clients) >= 1
            np.testing.assert_array_equal(np.sort(np.concatenate(clients)), np.arange(len(data)))

    def test_vanishing_alpha_gives_each_class_whole_to_one_client_then_repairs(self):
        # attempt 0's generator again: a class whose variates all underflow goes to one uniformly drawn client
        data = generate_synthetic(3, 2, 20, 0.3, 0)
        for seed in (0, 5, 11):
            rng = np.random.default_rng(seed)
            held = [np.zeros(0, dtype=np.int64) for _ in range(6)]
            for c in range(3):
                class_pool = rng.permutation(np.flatnonzero(data.labels == c))
                assert not rng.gamma(1e-300, 1.0, 6).any()
                winner = rng.integers(6)
                held[winner] = np.sort(np.concatenate([held[winner], class_pool]))
            clients = dirichlet_partition(data, 6, 1e-300, seed)
            for client, want in zip(clients, _fill_empty_clients(held)):
                np.testing.assert_array_equal(client, want)

    def test_an_underflowing_class_takes_its_limit_within_the_draw(self):
        # attempt 0's class 1 underflows: it goes whole to one client, and the other classes keep their draws
        data = generate_synthetic(4, 2, 10, 0.3, 0)
        rng = np.random.default_rng(0)
        held = [np.zeros(0, dtype=np.int64) for _ in range(2)]
        for c in range(4):
            class_pool = rng.permutation(np.flatnonzero(data.labels == c))
            gammas = rng.gamma(0.001, 1.0, 2)
            if c == 1:
                assert not gammas.any()
                shares = np.eye(2)[rng.integers(2)]
            else:
                shares = gammas / gammas.sum()
            cuts = np.floor(np.cumsum(shares)[:-1] * len(class_pool)).astype(int)
            for client_id, piece in enumerate(np.split(class_pool, cuts)):
                held[client_id] = np.sort(np.concatenate([held[client_id], piece]))
        assert [len(h) for h in held] == [30, 10]
        clients = dirichlet_partition(data, 2, 0.001, 0)
        for client, want in zip(clients, held):
            np.testing.assert_array_equal(client, want)

    def test_overflowing_alpha_splits_each_class_evenly(self):
        # gamma variates near 1e308 overflow their sum; the alpha -> inf limit is an even split
        data = generate_synthetic(4, 2, 100, 0.3, 0)
        clients = dirichlet_partition(data, 10, 1e308, 3)
        np.testing.assert_array_equal(np.sort(np.concatenate(clients)), np.arange(len(data)))
        for client in clients:
            counts = np.bincount(data.labels[client], minlength=4)
            assert np.all(np.abs(counts - 10) <= 1)

    def test_retries_exhausted_raises(self):
        # 2 samples over 3 clients can never give everyone a sample
        data = generate_synthetic(2, 2, 1, 0.1, 0)
        with pytest.raises(PartitionError):
            dirichlet_partition(data, 3, 1.0, 0)

    def test_invalid_arguments(self):
        data = generate_synthetic(2, 2, 5, 0.1, 0)
        with pytest.raises(ParameterError):
            dirichlet_partition(data, 0, 1.0, 0)
        with pytest.raises(ParameterError):
            dirichlet_partition(data, 2, 0.0, 0)
        with pytest.raises(ParameterError):
            dirichlet_partition(data, 2, np.nan, 0)

    def test_heterogeneity_decreases_with_alpha(self):
        # Monte-Carlo: mean pairwise JS across clients shrinks as alpha grows
        data = generate_synthetic(4, 2, 100, 0.3, 0)

        def mean_pairwise_js(alpha, seed):
            clients = dirichlet_partition(data, 6, alpha, seed)
            counts = class_counts(clients, data)
            dists = counts / counts.sum(axis=1)[:, None]
            divs = [
                js_divergence(dists[i], dists[j])
                for i in range(len(dists))
                for j in range(i + 1, len(dists))
            ]
            return np.mean(divs)

        skewed = np.mean([mean_pairwise_js(0.3, s) for s in range(100)])
        uniform = np.mean([mean_pairwise_js(10.0, s) for s in range(100)])
        assert skewed > uniform


class TestClassDistribution:
    """Class mixes as class_counts tallies them and as similarity_matrix accepts them."""

    def test_counting_example(self):
        data = generate_synthetic(4, 2, 10, 0.1, 0)
        # pick indices with labels 0, 0, 1, 3
        idx = np.concatenate([
            np.flatnonzero(data.labels == 0)[:2],
            np.flatnonzero(data.labels == 1)[:1],
            np.flatnonzero(data.labels == 3)[:1],
        ])
        counts = class_counts([idx], data)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [[2, 1, 0, 1]])
        np.testing.assert_allclose(counts[0] / counts[0].sum(), [0.5, 0.25, 0.0, 0.25])

    def test_single_sample_client(self):
        data = generate_synthetic(4, 2, 5, 0.1, 0)
        idx = np.flatnonzero(data.labels == 2)[:1]
        counts = class_counts([np.flatnonzero(data.labels == 0), idx], data)
        np.testing.assert_array_equal(counts[1], [0, 0, 1, 0])
        assert counts[1].sum() == 1

    def test_matches_brute_force_tally(self, rng):
        data = generate_synthetic(5, 2, 30, 0.3, 2)
        clients = [rng.choice(len(data), size=size, replace=False) for size in (40, 1, 17)]
        counts = class_counts(clients, data)
        mixes = counts / counts.sum(axis=1)[:, None]
        # independent oracle: recount one label at a time; the mixes equal its shares exactly
        for idx, row, mix in zip(clients, counts, mixes):
            tally = np.zeros(5)
            for i in idx:
                tally[data.labels[i]] += 1
            np.testing.assert_array_equal(row, tally)
            np.testing.assert_array_equal(mix, tally / len(idx))

    def test_distribution_validity_invariants(self):
        data = generate_synthetic(4, 2, 50, 0.3, 8)
        clients = dirichlet_partition(data, 8, 0.2, 3)
        counts = class_counts(clients, data)
        np.testing.assert_array_equal(counts.sum(axis=1), [len(c) for c in clients])
        props = counts / counts.sum(axis=1)[:, None]
        assert np.all(np.abs(props.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(props >= 0)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ParameterError, match="sum to 1"):
            similarity_matrix(np.array([[0.5, 0.6]]), np.array([10]))
        with pytest.raises(ParameterError, match="non-negative"):
            similarity_matrix(np.array([[-0.1, 1.1]]), np.array([10]))
        with pytest.raises(ParameterError, match="counts"):
            similarity_matrix(np.array([[0.5, 0.5]]), np.array([0]))
        # the row at fault may be any row, not only the first
        with pytest.raises(ParameterError, match="sum to 1"):
            similarity_matrix(np.array([[0.5, 0.5], [0.5, 0.6]]), np.array([10, 10]))
        with pytest.raises(ParameterError, match="counts"):
            similarity_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([10, 0]))
        # a client without samples has no class mix at all
        data = generate_synthetic(2, 2, 5, 0.1, 0)
        with pytest.raises(ParameterError, match="client 1 has no samples"):
            class_counts([np.arange(3), np.zeros(0, dtype=np.int64)], data)

    def test_non_finite_proportions_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            similarity_matrix(np.array([[np.nan, 0.5, 0.5]]), np.array([10]))
        with pytest.raises(ParameterError, match="finite"):
            similarity_matrix(np.array([[0.5, 0.5]]), np.array([np.nan]))
