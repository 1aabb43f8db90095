"""Three smaller stories: the greedy trap, the curvature route, and the
sampling rule for inconsistent noise.

Run:
    python demos/05_trap_curvature_sampling.py
"""

from approxsub import (
    ConsistentNoiseOracle,
    CoverageFunction,
    brute_force,
    build_greedy_trap,
    curvature,
    curvature_bound,
    curvature_topk,
    greedy_cardinality,
)
from approxsub.experiments import run_sampling_validation, run_trap

print("=" * 70)
print("1. The greedy trap: a deflation override on a thin set family")
print("=" * 70)
trap = build_greedy_trap(k=16, beta=0.5, n=64)
print(f"eps = {float(trap.epsilon)}; blocks |A|={len(trap.a_elements)} (value 2), "
      f"|B|={len(trap.b_elements)} (value 1/64), |C|={len(trap.c_elements)} (value 1)")
print(f"override: F = {float(trap.override_value)} exactly on the "
      f"{len(trap.c_elements)} sets 'A plus one element of C'")

rows, summary = run_trap(16, 0.5, 64)
print(f"\npredicted greedy value: {summary['claimed_greedy_value']:.6f}")
print(f"measured  greedy value: {summary['measured_greedy_value']:.6f}")
print(f"best feasible value:    {summary['best_feasible_value']:.6f}")
if summary["discrepancy"]:
    print(f"note: {summary['note']}")

print()
print("=" * 70)
print("2. Bounded curvature rescues constant-factor guarantees at constant eps")
print("=" * 70)
f = CoverageFunction(3 + 10, [[i % 3, 3 + i] for i in range(10)])
c = curvature(f)
print(f"coverage fixture with curvature c = {float(c)}")
for eps in (0.1, 0.25):
    bound = curvature_bound(float(c), eps)
    F = ConsistentNoiseOracle(f, eps, seed=5)
    res = curvature_topk(F, k=4)
    opt = brute_force(F, 4)
    ratio = float(res.value) / float(opt.value)
    print(f"  eps={eps}: singleton-surrogate ratio {ratio:.4f} "
          f">= guaranteed {bound:.4f} "
          f"({res.queries_used} queries vs {opt.queries_used} for brute force)")

print()
print("=" * 70)
print("3. Sampling inconsistent noise back to consistency")
print("=" * 70)
shared = CoverageFunction(5, [list(range(5))] * 12)
for constant, label in [(3.0, "full budget"), (1.5, "half budget")]:
    _, s = run_sampling_validation(shared, epsilon=0.1, confidence_constant=constant,
                                   trials=100, seed=42, k=4, width=1.0)
    print(f"  {label:12s} (m={s['m']:4d}): trials with any band violation: "
          f"{s['violating_trials']:3d} / {s['trials']}"
          f"   union-bound prediction {s['prediction']:.3f}")
print("\nThe averaged oracle is consistent (cached per set), so greedy's")
print("guarantee applies whenever every estimate stays inside the band.")
