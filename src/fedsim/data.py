"""Dataset generation, IDX loading, Dirichlet partitioning, and class statistics.

A partition is a list of index arrays: entry i holds client i's sorted
positions into the shared dataset, so a client's id is its place in the
list. Its class mixes are one (n_clients, C) count matrix, taken by
`class_counts`.

Everything here is a pure function of its arguments (seeds included); there
is no module-level random state.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ParameterError, PartitionError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

MAX_PARTITION_ATTEMPTS = 100


def whole_numbers(values, what: str) -> np.ndarray:
    """values as an int64 array; ParameterError naming `what` if any entry is not a whole number (0.5, nan, inf).

    Integer and boolean arrays convert without a check, so they pay no
    extra pass.
    """
    given = np.asarray(values)
    if given.dtype.kind in "biu":
        return given.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # nan and inf cast to garbage, which the check below rejects
        whole = given.astype(np.int64)
    if np.any(whole != given):
        raise ParameterError(f"{what} must be whole numbers")
    return whole


def integer(value, what: str, minimum: float = 1) -> int:
    """value as an int if it is an integer of at least minimum, else ParameterError naming `what`.

    The rule is operator.index's: 2.0 is a float, not an integer, though
    whole_numbers takes it as a whole number.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, not {value!r}") from None
    if number < minimum:
        raise ParameterError(f"{what} must be >= {minimum}")
    return number


@dataclass
class Dataset:
    """A labelled sample universe: features of shape (n, F), labels in [0, C), C an integer >= 1 (integer's rule)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = whole_numbers(self.labels, "labels")
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ParameterError("features must be a (n, F) array with F >= 1")
        if len(self.features) != len(self.labels):
            raise ParameterError("features and labels must have equal length")
        self.n_classes = integer(self.n_classes, "n_classes")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ParameterError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.labels)


def generate_synthetic(classes: int, features: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Sample class-conditional Gaussian blobs around fixed one-hot corners.

    The class means depend only on (classes, features): class c sits at the
    unit vector along axis c mod features, scaled up by one for every full
    cycle through the axes. The seed drives only the noise, whose
    per-dimension standard deviation is `spread`, finite and >= 0 (zero
    yields every sample exactly at its class mean). classes and features
    must be integers of at least 2, per_class of at least 1 (integer's
    rule: 2.0 is not one), else ParameterError.

    Samples are emitted class-major: all of class 0, then class 1, etc.
    """
    classes, features = integer(classes, "classes", 2), integer(features, "features", 2)
    per_class = integer(per_class, "per_class")
    if not 0 <= spread < math.inf:
        raise ParameterError("spread must be finite and >= 0")
    means = np.zeros((classes, features))
    for c in range(classes):
        means[c, c % features] = 1.0 + (c // features)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((classes * per_class, features))
    return Dataset(means[labels] + spread * noise, labels, classes)


def _read_idx(path) -> tuple[tuple[int, ...], int, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic not in (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC):
        raise DataFormatError(f"{path}: bad magic 0x{magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims)) if dims else 0
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if len(body) != count:
        raise DataFormatError(f"{path}: expected {count} data bytes, found {len(body)}")
    return dims, magic, body


def load_idx(images_path, labels_path, keep_classes) -> Dataset:
    """Load a big-endian IDX image/label pair, keeping only the listed classes.

    Kept labels are remapped to 0..C-1 in `keep_classes` order and pixel
    values are scaled from bytes to [0, 1]. Images are flattened row-major,
    so F = rows * cols. A pair with no images, images of zero pixels, or a
    kept label that no sample carries raises DataFormatError naming the file.
    Each kept class must be an integer >= 0 (integer's rule, so 2.5 is not
    truncated to 2), else ParameterError.
    """
    keep = [integer(c, "keep_classes", 0) for c in keep_classes]
    if len(keep) < 1 or len(set(keep)) != len(keep):
        raise ParameterError("keep_classes must be non-empty and free of duplicates")
    img_dims, img_magic, img_bytes = _read_idx(images_path)
    lab_dims, lab_magic, lab_bytes = _read_idx(labels_path)
    if img_magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(f"{images_path}: not an image file (magic 0x{img_magic:08x})")
    if lab_magic != IDX_LABEL_MAGIC:
        raise DataFormatError(f"{labels_path}: not a label file (magic 0x{lab_magic:08x})")
    if img_dims[0] != lab_dims[0]:
        raise DataFormatError(f"image count {img_dims[0]} != label count {lab_dims[0]}")
    if img_dims[0] == 0:
        raise DataFormatError(f"{images_path}: holds no images")
    if 0 in img_dims[1:]:
        raise DataFormatError(f"{images_path}: images of {img_dims[1]} x {img_dims[2]} pixels are empty")
    images = img_bytes.reshape(img_dims[0], -1).astype(np.float64) / 255.0
    labels = lab_bytes.astype(np.int64)
    mask = np.isin(labels, keep)
    if not mask.any():
        raise DataFormatError("no samples carry any of the requested classes")
    remap = {orig: new for new, orig in enumerate(keep)}
    new_labels = np.array([remap[v] for v in labels[mask]], dtype=np.int64)
    missing = [str(orig) for orig, n in zip(keep, np.bincount(new_labels, minlength=len(keep))) if n == 0]
    if missing:
        raise DataFormatError(f"{labels_path}: no sample carries the kept label(s) {', '.join(missing)}")
    return Dataset(images[mask], new_labels, len(keep))


def stratified_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-determined train/test index split, stratified per class."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        perm = rng.permutation(idx)
        n_test = int(round(test_fraction * len(idx)))
        test_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def dirichlet_partition(
    dataset: Dataset,
    n_clients: int,
    alpha: float,
    seed: int,
    indices: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Allocate samples to clients using one Dirichlet(alpha) draw per class.

    Returns one sorted int64 index array per client, in client-id order.

    For every class, a simplex point drawn via normalized gamma variates
    decides how that class's (shuffled) samples are sliced across clients.
    Smaller alpha gives more skewed slices. A class whose variates cannot
    be normalized (alpha so small that they all underflow, or so large that
    their sum overflows) takes the Dirichlet limit within the same draw:
    whole to one client drawn from the draw's generator (alpha -> 0), or
    split evenly (alpha -> inf). Draws are made from seed + attempt, up to
    MAX_PARTITION_ATTEMPTS times, and the first that leaves no client empty
    is returned, preserving the Dirichlet marginals. A draw only counts
    each client's samples; the client index arrays are built for the draw
    that is returned.

    When every attempt leaves a client empty, as it does for small alpha
    and many clients, attempt 0's draw is repaired instead: each empty
    client, in id order, takes the highest-index sample of the currently
    largest client, the lowest id winning ties. PartitionError is raised
    only when the pool holds fewer samples than there are clients.

    `indices` restricts the partition to a sample pool (normally the train
    split); by default the whole dataset is partitioned. n_clients must be
    an integer of at least 1 (integer's rule), else ParameterError.
    """
    n_clients = integer(n_clients, "n_clients")
    if not alpha > 0:  # nan included
        raise ParameterError("alpha must be > 0")
    pool = np.arange(len(dataset), dtype=np.int64) if indices is None else np.asarray(indices, dtype=np.int64)
    if len(pool) < n_clients:
        raise PartitionError(f"cannot give each of {n_clients} clients a sample from a pool of {len(pool)}")
    pool_labels = dataset.labels[pool]
    class_pools = [pool[pool_labels == c] for c in range(dataset.n_classes)]
    for attempt in range(MAX_PARTITION_ATTEMPTS):
        draw = _class_slices(class_pools, n_clients, alpha, np.random.default_rng(seed + attempt))
        if attempt == 0:
            first_draw = draw
        if np.sum([counts for _, counts in draw], axis=0).min() >= 1:
            return _client_indices(draw, n_clients)
    return _fill_empty_clients(_client_indices(first_draw, n_clients))


def _class_slices(class_pools, n_clients: int, alpha: float, rng: np.random.Generator):
    """One Dirichlet draw per class: [(shuffled class samples, each client's count of them)] per non-empty class.

    Client i gets the i-th run of the shuffled samples. A class whose gamma
    variates cannot be normalized takes the Dirichlet limit in place: if
    they sum to zero (alpha -> 0) the class goes whole to one client drawn
    from rng, and if their sum overflows (alpha -> inf) it is split evenly.
    """
    draw = []
    for class_pool in class_pools:
        class_pool = rng.permutation(class_pool)
        if len(class_pool) == 0:
            continue
        gammas = rng.gamma(alpha, 1.0, n_clients)
        with np.errstate(over="ignore"):
            total = gammas.sum()
        if np.isfinite(total) and total > 0.0:
            shares = gammas / total
        elif total == 0.0:
            shares = np.zeros(n_clients)
            shares[rng.integers(n_clients)] = 1.0
        else:
            shares = np.full(n_clients, 1.0 / n_clients)
        cuts = np.floor(np.cumsum(shares)[:-1] * len(class_pool)).astype(int)
        draw.append((class_pool, np.diff(cuts, prepend=0, append=len(class_pool))))
    return draw


def _client_indices(draw, n_clients: int) -> list[np.ndarray]:
    """Each client's sorted sample indices, empty for a client that drew none, from a _class_slices draw."""
    samples = np.concatenate([class_pool for class_pool, _ in draw])
    owners = np.concatenate([np.repeat(np.arange(n_clients), counts) for _, counts in draw])
    order = np.lexsort((samples, owners))
    return np.split(samples[order], np.cumsum(np.bincount(owners, minlength=n_clients))[:-1])


def _fill_empty_clients(held: list[np.ndarray]) -> list[np.ndarray]:
    """Give each empty client, in id order, the highest-index sample of the currently largest client.

    `held` lists every client's sorted sample indices; ties for the largest
    go to the lowest id. With at least as many samples as clients, the
    largest client holds two or more whenever one is empty, so no donor is
    left empty.
    """
    held = list(held)
    for client_id in range(len(held)):
        if len(held[client_id]) == 0:
            donor = int(np.argmax([len(h) for h in held]))
            held[client_id], held[donor] = held[donor][-1:], held[donor][:-1]
    return held


def class_counts(clients: list[np.ndarray], dataset: Dataset) -> np.ndarray:
    """Every client's per-class sample counts, as one (n_clients, C) int64 matrix.

    Row i tallies the labels of clients[i], an index array into dataset; the
    whole matrix is one bincount over (client, label) cells. A client with
    no samples raises ParameterError.
    """
    sizes = np.array([len(client) for client in clients], dtype=np.int64)
    if np.any(sizes < 1):
        raise ParameterError(f"client {int(np.argmin(sizes))} has no samples")
    samples = np.concatenate([np.zeros(0, dtype=np.int64), *clients])
    cells = np.repeat(np.arange(len(sizes)) * dataset.n_classes, sizes) + dataset.labels[samples]
    return np.bincount(cells, minlength=len(sizes) * dataset.n_classes).reshape(len(sizes), dataset.n_classes)
