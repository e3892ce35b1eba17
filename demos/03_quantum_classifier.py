"""Inside the variational quantum classifier.

Shows the angle-encoded statevector simulation: logits as Pauli-Z
expectations, the 2*pi periodicity of the rotation angles (the reason
plain averaging of uploaded angles goes wrong), and the exactness of the
two-point shift rule against central finite differences.
"""

import math

import numpy as np

from fedsim import circuit_forward, param_shift_grad, statevector

rng = np.random.default_rng(1)
qubits, layers, classes = 4, 2, 4
angles = rng.uniform(-math.pi, math.pi, (layers, qubits))  # one row of RY angles per layer
embedding = rng.uniform(-1, 1, qubits)

psi = statevector(embedding, angles)
logits = circuit_forward(embedding, angles, classes)
print(f"statevector dimension: {len(psi)}  (norm {np.linalg.norm(psi):.12f})")
print(f"logits <Z_0..Z_3>: {np.round(logits, 4)}  (each in [-1, 1])")

drift = np.max(np.abs(circuit_forward(embedding, angles + 2 * math.pi, classes) - logits))
print(f"\nshift every angle by 2*pi -> max logit change: {drift:.2e}  (angles are periodic)")

upstream = rng.standard_normal(classes)
grad_angles, grad_embedding = param_shift_grad(embedding, angles, upstream, classes)
step = 1e-5
worst = 0.0
for k in range(angles.size):
    plus, minus = angles.copy(), angles.copy()
    plus.flat[k] += step
    minus.flat[k] -= step
    fd = (
        upstream @ circuit_forward(embedding, plus, classes)
        - upstream @ circuit_forward(embedding, minus, classes)
    ) / (2 * step)
    worst = max(worst, abs(fd - grad_angles.flat[k]))
print(f"\nshift-rule gradient vs finite differences over {angles.size} angles:")
print(f"  worst absolute disagreement: {worst:.2e}")
print(f"  embedding gradient (chain-ruled through the pi-scaled encoding): {np.round(grad_embedding, 4)}")
