"""Monte Carlo on the circle: coverage, first-cover times, and the gap law.

Tossing arcs of length l_n = min(0.99, c/n) covers the whole circle
with probability one iff sum n^-2 exp(l_1 + ... + l_n) diverges, which
for c/n sequences flips at c = 1.  At desk scale the phase change is
already unmistakable.

Run:  python demos/covering_monte_carlo.py
"""

import numpy as np

from arccover import (
    LengthSequence,
    coverage_probability,
    first_cover_index,
    gap_measure_samples,
    generate,
)

print("coverage probability after n = 2000 arcs, 100 replications each")
print("c      p_hat   std_err")
for c in (0.5, 0.9, 1.1, 1.5, 2.0):
    seq = LengthSequence.harmonic(c=c, cap=0.99)
    result = coverage_probability(seq, 2000, 100, seed=7)
    print(f"{c:<5.1f}  {result.p_hat:<6.2f}  {result.std_err:.4f}")

print("\nfirst-cover times for the divergent case c = 1.2")
seq = LengthSequence.harmonic(c=1.2, cap=0.99)
times = [first_cover_index(seq, seed, 5000) for seed in range(12)]
print(f"   12 replications: {times}")

print("\nthe uncovered measure obeys E[gap] = prod(1 - l_k) exactly")
seq = LengthSequence.explicit([0.3, 0.2, 0.1, 0.1, 0.05])
lengths = generate(seq, 5)
target = float(np.exp(np.log1p(-lengths).sum()))
samples = gap_measure_samples(seq, 5, 20000, seed=21)
se = samples.std(ddof=1) / np.sqrt(samples.size)
print(f"   5 fixed arcs, 20000 replications")
print(f"   sample mean {samples.mean():.6f}  vs  prod(1-l_k) = {target:.6f}  (SE {se:.6f})")
print(f"   fully covered in {np.mean(samples == 0.0) * 100:.1f}% of replications")
