"""Grouping clients by class-distribution similarity.

Builds a population with two planted client groups (one concentrated on
classes {0,1}, the other on {2,3}), computes the similarity matrix
exp(-l1*JS - l2*size_gap), inspects the Laplacian spectrum, and recovers
the groups with spectral clustering. The eigengap report is the tool for
choosing the cluster count M: a large gap after the M-th eigenvalue marks
M well-separated groups.
"""

import numpy as np

from fedsim import (
    adjusted_rand_index,
    laplacian_eigengaps,
    similarity_matrix,
    spectral_cluster,
)

rng = np.random.default_rng(3)
mixes = np.zeros((10, 4))
counts = np.zeros(10, dtype=np.int64)
for block, classes in enumerate(((0, 1), (2, 3))):
    for i in range(5 * block, 5 * block + 5):
        mixes[i, list(classes)] = rng.dirichlet([2.0, 2.0])
        counts[i] = rng.integers(80, 120)
planted = np.array([0] * 5 + [1] * 5)

sim = similarity_matrix(mixes, counts, lambda1=1.0, lambda2=1.0)
print("similarity matrix (rows/cols = clients, two planted blocks of 5):")
for row in sim.entries:
    print("  " + " ".join(f"{v:4.2f}" for v in row))

values, gaps = laplacian_eigengaps(sim)
print("\nnormalized-Laplacian spectrum and gaps:")
for k, v in enumerate(values):
    gap = f"   gap {gaps[k]:.4f}" if k < len(gaps) else ""
    print(f"  eigenvalue {k}: {v:.4f}{gap}")
print(f"  -> the gap after index 1 ({gaps[1]:.3f}) dwarfs every later gap, pointing at M = 2")

assignment = spectral_cluster(sim, n_clusters=2, seed=0)
print(f"\nrecovered labels: {assignment.labels.tolist()}")
print(f"planted labels:   {planted.tolist()}")
print(f"adjusted Rand index vs planted blocks: {adjusted_rand_index(assignment.labels, planted):.2f}")
