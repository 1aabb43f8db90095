"""The planted hard pair and its band-hugging decoy.

A planted function rewards a hidden set H; a cardinality-only decoy g ignores
H entirely.  Their constrained maxima differ by the gap fraction
alpha/k + h/n, yet for a random H the two functions agree to within (1 +- eps)
on almost every fixed set.  The sandwich oracle exploits that: it answers with
the decoy whenever the decoy sits inside the band, and only reveals the
planted function otherwise.

Run:
    python demos/02_hard_pair_and_sandwich.py
"""

from fractions import Fraction

from approxsub import (
    HardPairParams,
    Subset,
    build_monotone_pair,
    build_sandwich,
    check_monotone,
    check_submodular,
    draw_hidden_set,
    gap_bound,
)
from approxsub.verify import pair_band_probability, pair_band_reference


def max_over_budget(fn, n, k):
    return max(fn.value(Subset(n, m)) for m in range(1 << n)
               if bin(m).count("1") <= k)

n, h, alpha, k, eps = 12, 6, 3, 4, 0.25
params = HardPairParams(n=n, h=h, alpha=alpha, k=k, epsilon=eps)
hidden = draw_hidden_set(n, h, seed=7)
pair = build_monotone_pair(params, hidden)

print("=" * 70)
print(f"Hard pair at n={n}, h={h}, alpha={alpha}, k={k}, eps={eps}")
print("=" * 70)
print(f"hidden set H = {hidden.subset.elements()}")

print("\nBoth functions are monotone submodular (exhaustively checked):")
for name, fn in [("planted", pair.fh), ("decoy", pair.g)]:
    sub = check_submodular(fn, n)
    mono = check_monotone(fn, n)
    print(f"  {name:8s}: submodular={sub.passed} ({sub.examined} pairs), "
          f"monotone={mono.passed}")

print("\nOn small sets the two coincide; they split once the budget piece caps:")
inside = hidden.subset.elements()
outside = hidden.subset.complement().elements()
for elems in ([inside[0]], inside[:3], inside[:2] + outside[:4], inside[:4] + outside[:5]):
    s = Subset.from_elements(elems, n)
    print(f"  |S|={s.size}: planted={float(pair.fh.value(s)):6.3f}   "
          f"decoy={float(pair.g.value(s)):6.3f}")

max_fh = max_over_budget(pair.fh, n, k)
max_g = max_over_budget(pair.g, n, k)
bound = gap_bound(params)
print(f"\nBrute-force maxima over |S| <= {k}:")
print(f"  planted max = {float(max_fh)}, decoy max = {float(max_g)}")
print(f"  gap bound alpha/k + h/n = {float(bound):.4f}: "
      f"{float(max_g):.3f} <= {float(bound * max_fh):.3f}  "
      f"({'holds' if max_g <= bound * max_fh else 'VIOLATED'})")

print()
print("=" * 70)
print("The sandwich oracle follows the decoy inside the band")
print("=" * 70)
sw = build_sandwich(pair)
revealed = 0
for mask in range(1 << n):
    s = Subset(n, mask)
    if sw.value(s) != pair.g.value(s):
        revealed += 1
print(f"sets where the oracle reveals the planted value: {revealed} / {1 << n}")

print("\nProbability (over random H) that a fixed set stays in the band:")
wide = HardPairParams(n=100, h=50, alpha=4, k=30, epsilon=0.5)
for size in (20, 40, 60):
    exact = pair_band_probability(wide, size)
    ref = pair_band_reference(wide, size)
    print(f"  |S|={size:3d}: exact={exact:.6f}  exponential reference={ref:.3f}")
