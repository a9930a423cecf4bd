"""Precision bookkeeping: how many bits the blackbox must deliver, and how wide
to sample.

Representing a range r at granularity s costs log2(r/s) bits.  A classical
difference scheme must resolve f to m*l/2^n; the quantum estimator needs the
kicked-back phase accurate to within theta, which tightens the requirement by
exactly log2(2*pi/theta) bits, independent of everything else.  At theta=pi/8
that is 4 extra bits, paid back with success probability at least cos^2(theta).
"""
import math

import numpy as np

from qgrad import (
    classical_precision_bits,
    cubic_1d,
    error_scaling_fit,
    optimal_l,
    quadratic,
    quantum_precision_bits,
    success_probability_bound,
)

f_range = (0.0, 1.0)
m, l, n = 1.0, 0.1, 8

print(f"function range {f_range}, m={m}, l={l}, n={n} output bits")
c_bits = classical_precision_bits(f_range[1], f_range[0], m, l, n)
print(f"classical bits required: {c_bits:.4f}")
for theta in (math.pi / 4, math.pi / 8, math.pi / 16):
    q_bits = quantum_precision_bits(f_range[1], f_range[0], m, l, n, theta)
    bound = success_probability_bound(theta)
    print(f"theta = pi/{round(math.pi / theta):>2}: quantum bits {q_bits:.4f} "
          f"(+{q_bits - c_bits:.2f}), success >= {bound:.4f}")

# How large may the sampled region be for a target uncertainty? The classical
# scheme is limited by third derivatives, the quantum one by second derivatives
# and dimension.
print()
print("largest sampling width l for target sigma (D2 = D3 = 1):")
print(f"{'sigma':>8} {'classical':>10} {'quantum d=1':>12} {'quantum d=100':>14}")
for sigma in (1e-2, 1e-4, 1e-6):
    lc = optimal_l(sigma, d3=1.0, mode="classical")
    lq1 = optimal_l(sigma, d2=1.0, d=1, mode="quantum")
    lq100 = optimal_l(sigma, d2=1.0, d=100, mode="quantum")
    print(f"{sigma:>8.0e} {lc:>10.3e} {lq1:>12.3e} {lq100:>14.3e}")

# The error laws behind those widths, measured directly: central differences
# are exact on quadratics and scale as l^2 on cubics.
print()
ls = np.logspace(-2, 0, 8)
slope_c = error_scaling_fit(cubic_1d(1.0), [0.0], ls, method="central")
slope_q = error_scaling_fit(quadratic([0.1], [[1.0]]), [0.0], ls, method="central")
print(f"central-difference error slope on a cubic:    {slope_c:.3f}")
print(f"central-difference slope on a quadratic:      {slope_q} (error at machine noise)")
