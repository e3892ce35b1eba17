"""Why periodic parameters need a circular mean.

Two clients upload rotation angles just either side of the -pi/pi cut.
They describe nearly the same rotation, yet the arithmetic mean lands at
0, a quarter turn away from both. The circular mean (weighted unit-vector
sum, then atan2) stays on the cut where it belongs, and its resultant
length doubles as a degeneracy alarm when directions truly cancel.
"""

import math

import numpy as np

from fedsim import AggregationWeights, aggregate_quantum, circular_mean
from fedsim.aggregation import arithmetic_mean_quantum

from_counts = AggregationWeights.from_counts

angles = np.array([math.pi - 0.1, -math.pi + 0.1])
print(f"client angles: {angles.round(4).tolist()}  (both ~0.1 rad from the +/-pi cut)")

mean, resultant = circular_mean(angles, from_counts([1, 1]))
print(f"circular mean:   {mean:+.4f}  (resultant length {resultant:.4f})")
print(f"arithmetic mean: {np.mean(angles):+.4f}  <- far from every client")

# the same comparison through the aggregation entry points used by the server:
# they take the round's (n_clients, layers, qubits) angle stack, here two
# clients with one layer of one qubit, and each client's sample count
counts = [10, 10]
fallback = np.array([[0.25]])  # the previous global angles, (layers, qubits)
circ, degenerate = aggregate_quantum(angles.reshape(2, 1, 1), counts, fallback)
arith = arithmetic_mean_quantum(angles.reshape(2, 1, 1), counts)
print(f"\nserver circular aggregation:   {circ[0, 0]:+.4f}  (degenerate dims: {degenerate})")
print(f"server arithmetic aggregation: {arith[0, 0]:+.4f}")

# fully opposed directions: resultant collapses, server keeps the old value
opposed = np.array([0.0, math.pi]).reshape(2, 1, 1)
kept, degenerate = aggregate_quantum(opposed, counts, fallback)
print(f"\nopposed angles (0, pi): resultant ~ 0, fallback {fallback[0, 0]} kept -> "
      f"{kept[0, 0]}  (degenerate dims: {degenerate})")
