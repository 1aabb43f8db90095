"""Every function is its own counted oracle.

Solvers once reached a function instance only through ``FunctionOracle``
(kept verbatim in ``conftest`` as the reference).  Each solver run on a
function directly must match the run through that wrapper: the same chosen
set, value and value type, trace and ``queries_used``, and the function's
own query count must equal the count the wrapper kept.
"""

import pytest

from approxsub.adversarial import (
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
)
from approxsub.experiments import instance_corpus
from approxsub.matroids import PartitionMatroid
from approxsub.sets import ValueOracle
from approxsub.solvers import brute_force, curvature_topk, greedy_cardinality, greedy_matroid

from conftest import FunctionOracle


def _functions():
    params = HardPairParams(n=12, h=5, alpha=2, k=5, epsilon=0.3)
    hidden = draw_hidden_set(12, 5, 8)
    out = {f"corpus{i}-{f.kind}": f for i, f in enumerate(instance_corpus(0))}
    out["trap-n12"] = build_greedy_trap(5, 0.2, 12)
    out["trap-n64"] = build_greedy_trap(16, 0.5, 64)
    out["sandwich-monotone"] = build_sandwich(build_monotone_pair(params, hidden))
    out["sandwich-coverage"] = build_sandwich(build_coverage_pair(params, hidden))
    return out


FUNCTIONS = _functions()


def _runs(n):
    """(label, solver call on an oracle) for every solver and constraint."""
    k = min(4, n)
    partition = PartitionMatroid([e % 3 for e in range(n)], [1, 2, 1])
    runs = [
        ("greedy", lambda F: greedy_cardinality(F, n, k)),
        ("greedy-full", lambda F: greedy_cardinality(F, n, n)),
        ("matroid-uniform", lambda F: greedy_matroid(F, PartitionMatroid([0] * n, [3]))),
        ("matroid-partition", lambda F: greedy_matroid(F, partition)),
        ("topk", lambda F: curvature_topk(F, n, k)),
    ]
    if n <= 12:
        runs += [
            ("brute", lambda F: brute_force(F, n, k)),
            ("brute-partition", lambda F: brute_force(F, n, partition)),
        ]
    return runs


def _outcome(res):
    return (res.chosen, res.value, type(res.value), res.trace, res.queries_used)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_solvers_match_the_wrapped_function(name):
    fn = FUNCTIONS[name]
    assert isinstance(fn, ValueOracle)
    for label, solve in _runs(fn.n):
        wrapper = FunctionOracle(fn)
        before = fn.query_count
        expected = _outcome(solve(wrapper))
        assert fn.query_count == before, label  # the wrapper reads value() only
        got = _outcome(solve(fn))
        assert got == expected, label
        assert fn.query_count - before == wrapper.query_count == got[-1], label

