"""Why periodic parameters need a circular mean.

Two clients upload rotation angles just either side of the -pi/pi cut.
They describe nearly the same rotation, yet the arithmetic mean lands at
0, a quarter turn away from both. The circular mean (weighted unit-vector
sum, then atan2) stays on the cut where it belongs, and its resultant
length doubles as a degeneracy alarm when directions truly cancel.
"""

import math

import numpy as np

from fedsim import AggregationWeights, ClientUpdate, ParamLayout, aggregate_quantum, circular_mean
from fedsim.aggregation import arithmetic_mean_quantum
from fedsim.data import ClassDistribution

from_counts = AggregationWeights.from_counts

angles = np.array([math.pi - 0.1, -math.pi + 0.1])
print(f"client angles: {angles.round(4).tolist()}  (both ~0.1 rad from the +/-pi cut)")

mean, resultant = circular_mean(angles, from_counts([1, 1]))
print(f"circular mean:   {mean:+.4f}  (resultant length {resultant:.4f})")
print(f"arithmetic mean: {np.mean(angles):+.4f}  <- far from every client")

# the same comparison through the aggregation entry points used by the server:
# each upload is one flat vector, here a 2 -> 1 -> 1 extractor (five zeros)
# followed by a single angle (one qubit, one layer)
layout = ParamLayout(features=2, hidden=1, qubits=1, layers=1)


def upload(cid, angle):
    params = np.concatenate([np.zeros(layout.n_classical), [angle]])
    return ClientUpdate(cid, params, layout, ClassDistribution(np.array([0.5, 0.5]), 10), 0.0)


updates = [upload(0, angles[0]), upload(1, angles[1])]
fallback = np.array([[0.25]])  # the previous global angles, (layers, qubits)
circ, degenerate = aggregate_quantum(updates, fallback)
arith = arithmetic_mean_quantum(updates)
print(f"\nserver circular aggregation:   {circ[0, 0]:+.4f}  (degenerate dims: {degenerate})")
print(f"server arithmetic aggregation: {arith[0, 0]:+.4f}")

# fully opposed directions: resultant collapses, server keeps the old value
opposed = [upload(0, 0.0), upload(1, math.pi)]
kept, degenerate = aggregate_quantum(opposed, fallback)
print(f"\nopposed angles (0, pi): resultant ~ 0, fallback {fallback[0, 0]} kept -> "
      f"{kept[0, 0]}  (degenerate dims: {degenerate})")
