"""Shared builders for the test suite."""

import struct

import numpy as np
import pytest

from fedsim.data import ClassDistribution
from fedsim.model import ClientUpdate, ParamLayout


def write_idx_pair(directory, images, labels):
    """Write a (n, rows, cols) uint8 image stack and labels as an IDX pair."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    images_path = directory / "images.idx"
    labels_path = directory / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())
    return images_path, labels_path


def make_update(client_id, angles, count, classical=None, n_classes=2, layers=None):
    """Minimal ClientUpdate with the given quantum angles (one qubit) and sample count.

    The classical block is a 2 -> 1 -> 1 extractor: five entries, zero by default.
    """
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    layout = ParamLayout(2, 1, 1, len(angles) if layers is None else layers)
    if classical is None:
        classical = np.zeros(layout.n_classical)
    proportions = np.full(n_classes, 1.0 / n_classes)
    return ClientUpdate(
        client_id,
        np.concatenate([classical, angles]),
        layout,
        ClassDistribution(proportions, count),
        0.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
