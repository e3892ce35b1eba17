"""How the Dirichlet concentration alpha shapes client heterogeneity.

Partitions one synthetic dataset at several alpha values and prints each
client's class mix plus the mean pairwise Jensen-Shannon divergence, the
quantity the server later feeds into its similarity matrix. Small alpha
gives skewed, nearly single-class clients; large alpha approaches uniform.
"""

import numpy as np

from fedsim import class_counts, dirichlet_partition, generate_synthetic, js_divergence

dataset = generate_synthetic(classes=4, features=8, per_class=100, spread=0.3, seed=42)
print(f"dataset: {len(dataset)} samples, {dataset.n_classes} classes, F={dataset.n_features}\n")

for alpha in (0.1, 0.3, 1.0, 10.0):
    clients = dirichlet_partition(dataset, n_clients=6, alpha=alpha, seed=7)
    counts = class_counts(clients, dataset)
    sizes = counts.sum(axis=1)
    mixes = counts / sizes[:, None]
    pairwise = [
        js_divergence(mixes[i], mixes[j])
        for i in range(len(mixes))
        for j in range(i + 1, len(mixes))
    ]
    print(f"alpha = {alpha}")
    for client_id, (size, mix) in enumerate(zip(sizes, mixes)):
        shares = " ".join(f"{p:5.2f}" for p in mix)
        print(f"  client {client_id}: n={size:3d}  class mix [{shares}]")
    print(f"  mean pairwise JS divergence: {np.mean(pairwise):.4f}  (max possible ln 2 = 0.6931)\n")
