"""Watch the product integral diverge, and the certificate chase it.

For a nonincreasing length sequence with sum(l_k^2) = infinity the
integral of prod_k f_{l_k} over [0, eps] grows without bound.  The
lower-bound certificate C * exp(sum log g_eps(l_k)) tracks it from
below using only one cheap log per term, so it keeps growing past the
default quadrature cap of n = 10**4 (where exact quadrature takes well
under a second), at no more than O(n) work.

Run:  python demos/product_integral_divergence.py
"""

import numpy as np

from arccover import (
    LengthSequence,
    divergence_table,
    generate,
    product_integral,
    shepp_lower_bound,
    threshold_index,
)

EPS = 0.25
SEQ = LengthSequence.inverse_sqrt(c=1, cap=0.49)   # l_k = min(0.49, 1/sqrt(k)), sum l_k^2 = inf

print(f"lengths l_k = min(0.49, k^-1/2), eps = {EPS}")
print(f"first terms: {np.round(generate(SEQ, 8), 4)}")
m = threshold_index(SEQ, EPS, 100)
print(f"head size m (terms with l_k >= eps): {m}\n")

print("n        log integral   bound_log    g_log_sum")
for row in divergence_table(SEQ, EPS, [0, 10, 100, 1000, 10**4]):
    print(f"{row.n:<8d} {row.log_product_integral:13.4f}  {row.bound_log:10.4f}  {row.g_log_sum:11.4f}")

print("\nbeyond the default quadrature cap the certificate alone keeps growing:")
lengths = generate(SEQ, 10**5)
cert = shepp_lower_bound(lengths, EPS)
print(f"n = {10**5:>6d}:  bound_log = {cert.bound_log:8.4f}   g_log_sum = {cert.g_log_sum:8.4f}")

print("\nper-term growth matches the heuristic log g ~ l_k^2 = 1/k, so the")
print("increment between n = 1e3 and n = 1e5 is about log(100) ~ 4.6:")
small = shepp_lower_bound(lengths[:1000], EPS)
large = shepp_lower_bound(lengths, EPS)
print(f"measured increment: {large.g_log_sum - small.g_log_sum:.4f}")

print("\ncontrast: a square-summable sequence stalls")
flat = LengthSequence.power_decay(c=0.4, alpha=1.0, cap=0.49)   # l_k ~ 0.4/k, sum l_k^2 < inf
flat_lengths = generate(flat, 10**5)
for n in (100, 10**3, 10**5):
    cert = shepp_lower_bound(flat_lengths[:n], EPS)
    print(f"n = {n:>6d}:  g_log_sum = {cert.g_log_sum:.6f}")

print("\nexact quadrature at a modest n for scale:")
q = product_integral(lengths[:200], EPS)
print(f"n = 200: integral = exp({q.log_value:.4f}), {q.segment_count} pieces, "
      f"{q.nodes_per_segment} nodes each")
