"""Shared builders for the test suite."""

import struct

import numpy as np
import pytest


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


def angle_stack(*clients):
    """The (n_clients, L, 1) angle stack of one-qubit clients, given each client's L angles."""
    return np.array(clients, dtype=np.float64).reshape(len(clients), -1, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
