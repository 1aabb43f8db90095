"""Tour of the core currency: bitmask subsets and the exact function zoo, in
which every function is a value oracle that counts its queries.

Run:
    python demos/01_subsets_oracles_functions.py
"""

import json

from approxsub import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    CoverageFunction,
    Subset,
    curvature,
    instance_from_dict,
    instance_to_dict,
    marginal,
)

print("=" * 70)
print("Subsets are canonical bitmasks over the ground set 0..n-1")
print("=" * 70)

s = Subset.from_elements([5, 0, 3, 5], 8)  # duplicates collapse, order ignored
t = Subset.from_elements([3, 4], 8)
print(f"s = {s.elements()}  (size {s.size}, mask {s.mask:#010b})")
print(f"t = {t.elements()}")
print(f"s | t = {s.union(t).elements()},  s & t = {s.intersection(t).elements()}")
print(f"complement of s = {s.complement().elements()}")

print()
print("=" * 70)
print("Every function is a value oracle: query() counts, value() does not")
print("=" * 70)

f = AdditiveFunction([1, 2, 3, 4, 5, 6, 7, 8])
print(f"f(s) = {f.query(s)}   (queries so far: {f.query_count})")
print(f"f(s) = {f.query(s)}   (same set, same value, queries: {f.query_count})")
print(f"f(empty) = {f.query(Subset.empty(8))}  -- normalized")
print(f"f(t) = {f.value(t)}   (uncounted; queries still {f.query_count})")

print()
print("=" * 70)
print("The exact zoo: additive, budget-additive, coverage, concave")
print("=" * 70)

budgeted = BudgetAdditiveFunction([1, 1, 1, 1], budget=2.5)
big = Subset.from_elements([0, 1, 2], 4)
print(f"budget-additive caps at the budget: value = {budgeted.value(big)}")

cover = CoverageFunction(3, [[0, 1], [1, 2]])
both = Subset.from_elements([0, 1], 2)
print(f"coverage of both sets = {cover.value(both)} (the whole universe)")
print(f"marginal of adding the second set to the first = "
      f"{marginal(cover, Subset.from_elements([0], 2), 1)}")

print()
print("Curvature: how much the last marginal can shrink relative to the first")
print(f"  additive  -> c = {curvature(AdditiveFunction([3, 1, 4]))}")
print(f"  coverage ([0,1],[1,2]) -> c = {curvature(cover)}")
print(f"  identical covers -> c = {curvature(CoverageFunction(2, [[0, 1]] * 3))}")

print()
print("=" * 70)
print("Instances serialize to tagged JSON and round-trip losslessly")
print("=" * 70)

doc = instance_to_dict(cover)
print(json.dumps(doc))
back = instance_from_dict(doc)
assert all(back.value(Subset(2, m)) == cover.value(Subset(2, m)) for m in range(4))
print("round trip ok")
