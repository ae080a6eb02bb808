"""Exact final-sumtroid distributions, their integer rows, and sampling.

With every available move equally likely, the final sumtroid change of a
flat start has an exact rational distribution.  Scaling by (n-1)! turns
each distribution into a mirror-symmetric integer row; consecutive rows
are related by a sliding-window sum.  A seeded Monte-Carlo sampler
cross-checks the exact numbers.
"""
import math
from fractions import Fraction

from dispersion import (
    final_distribution,
    flat_clusteron,
    monte_carlo,
    scaled_row,
    shadow_probabilities,
    sumtroid_to_lx,
    window_bounds,
)


def main() -> None:
    dist = final_distribution(flat_clusteron(4))
    print("flat size-4 start, exact distribution of the sumtroid change:")
    for k in dist.support():
        print(f"  K = {k:+d}: probability {dist.prob(k)}")
    print()

    print("shadow probabilities are uniform (here n = 7, all 1/6):")
    shadows = shadow_probabilities(scaled_row(7))
    print("  " + ", ".join(f"F(7,{k}): {p}" for k, p in shadows.items()))
    print()

    print("integer rows: probabilities times (n-1)!, sizes 3..7")
    for n in range(3, 8):
        row = scaled_row(n)
        mid = " ".join(str(v) for v in row.half_sequence())
        print(f"  n={n}: {mid} ... (mirror), total {sum(row.sequence())} = {n - 1}!")
    print()

    n, k = 6, -2
    lo, hi = window_bounds(n, k)
    prev = scaled_row(n - 1)
    terms = [prev.value(j) for j in range(lo, hi + 1)]
    print(
        f"each value is a window sum over the previous row: row {n} at K={k} "
        f"is {'+'.join(map(str, terms))} = {sum(terms)}"
    )
    ell, x = sumtroid_to_lx(n, k)
    print(f"and the (leaves, path end) coordinates of K={k} are (l={ell}, x={x})")
    print()

    samples, seed = 200_000, 42
    approx = monte_carlo(n, samples, seed)
    exact = final_distribution(flat_clusteron(n))
    sigma = math.sqrt(float(exact.prob(0)) * (1 - float(exact.prob(0))) / samples)
    print(f"{samples} seeded samples at n={n} versus the exact values:")
    for k in range(-3, 4):
        if exact.prob(k) == 0:
            continue
        e = float(exact.prob(k))
        a = float(approx.get(k, Fraction(0)))
        print(f"  K={k:+d}: exact {e:.5f}, sampled {a:.5f}, diff {abs(a - e):.5f}")
    print(f"(one standard error at the center is about {sigma:.5f})")


if __name__ == "__main__":
    main()
