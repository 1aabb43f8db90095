"""Greedy under persistent multiplicative noise, measured against its
closed-form guarantee.

The guarantee degrades smoothly with the error level eps = delta / k: at
delta = 0 it is the classical 1 - (1 - 1/k)^k, and it stays constant-factor
for any fixed delta < 1.  Here we sweep delta on a seeded corpus, compare
measured ratios against the formula, and do the same for the matroid variant.

Run:
    python demos/03_noisy_greedy_guarantees.py
"""

from approxsub import (
    ConsistentNoiseOracle,
    PartitionMatroid,
    brute_force,
    greedy_bound,
    greedy_cardinality,
    greedy_matroid,
    matroid_bound,
)
from approxsub.experiments import instance_corpus, run_noise_sweep

print("=" * 70)
print("Guarantee formula vs error level (k = 4)")
print("=" * 70)
k = 4
print(f"{'delta':>6} {'eps':>8} {'guaranteed ratio':>18}")
for delta in (0.0, 0.1, 0.25, 0.5, 0.75, 0.99):
    eps = delta / k
    print(f"{delta:6.2f} {eps:8.4f} {greedy_bound(k, eps):18.4f}")

print()
print("=" * 70)
print("Measured greedy ratios on a seeded corpus (vs noisy-oracle optimum)")
print("=" * 70)
instances = instance_corpus(0, sizes=(8, 10))[:8]
rows = run_noise_sweep(instances, k=k, delta_grid=[0.0, 0.5, 0.99],
                       seeds=[0, 1, 2])
by_delta = {}
for r in rows:
    by_delta.setdefault(r["epsilon"], []).append(r)
for eps in sorted(by_delta):
    bucket = by_delta[eps]
    worst = min(r["ratio"] for r in bucket)
    bound = bucket[0]["bound"]
    ok = all(r["ok"] for r in bucket)
    print(f"eps={eps:8.5f}: worst measured ratio {worst:.4f} "
          f">= guaranteed {bound:.4f}  ({'ok' if ok else 'VIOLATED'}, "
          f"{len(bucket)} runs)")

print()
print("=" * 70)
print("Matroid constraint: same story against the representative's optimum")
print("=" * 70)
matroid = PartitionMatroid([0, 0, 0, 1, 1, 2, 2, 2], [1, 2, 1])
k = matroid.rank()
f = instances[0]
opt = brute_force(f, f.n, matroid)
print(f"rank {k} partition matroid; exact optimum over independent sets: "
      f"{float(opt.value)}")
for delta in (0.0, 0.5):
    eps = delta / k
    bound = matroid_bound(k, eps)
    worst = 1.0
    for seed in range(5):
        F = ConsistentNoiseOracle(f, eps, seed)
        res = greedy_matroid(F, matroid)
        worst = min(worst, float(res.value) / float(opt.value))
    print(f"eps={eps:8.5f}: worst measured ratio {worst:.4f} "
          f">= guaranteed {bound:.4f}  ({'ok' if worst >= bound else 'VIOLATED'})")
