"""Shared builders for the test suite."""

import math
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


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def ry_matrix(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def dense_gate(single, qubit, n):
    out = np.array([[1.0]])
    for pos in range(n):
        out = np.kron(out, single if pos == qubit else np.eye(2))
    return out


def dense_cnot(control, target, n):
    dim = 2**n
    gate = np.zeros((dim, dim))
    for col in range(dim):
        if (col >> (n - 1 - control)) & 1:
            row = col ^ (1 << (n - 1 - target))
        else:
            row = col
        gate[row, col] = 1.0
    return gate


def dense_oracle_state(embedding, angles):
    """Statevector via explicit 2^Q x 2^Q matrix products."""
    layers, n = angles.shape
    psi = np.zeros(2**n)
    psi[0] = 1.0
    for q in range(n):
        psi = dense_gate(ry_matrix(math.pi * embedding[q]), q, n) @ psi
    for layer in range(layers):
        for q in range(n):
            psi = dense_gate(ry_matrix(angles[layer, q]), q, n) @ psi
        if n > 1:
            for q in range(n):
                psi = dense_cnot(q, (q + 1) % n, n) @ psi
    return psi


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
