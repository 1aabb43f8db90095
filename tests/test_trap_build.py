"""The greedy trap refuses to leave its band when built.

Every override set A + c has F = 1/eps and f = 2|A| + 1, so the build makes
one exact band test where the trap once checked all |C| override sets in
``check_band()``, called after the build by ``run_trap`` and ``generate``.
``conftest.ParentGreedyTrap`` and ``parent_build_greedy_trap`` keep that
check, the ``value`` beside it and the unchecked build, verbatim.  The build
and its check must give the same verdict and message, ``run_trap`` the same
rows and summary, and ``value()`` the same value and type on every set.
"""

from fractions import Fraction

import pytest

from approxsub.adversarial import GreedyTrapInstance, build_greedy_trap
from approxsub.experiments import run_trap
from approxsub.sets import Subset
from approxsub.solvers import greedy_cardinality
from conftest import override_sets, parent_build_greedy_trap

BETAS = (0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9)


def _grid(max_k=40):
    for k in range(1, max_k + 1):
        for beta in BETAS:
            for n in range(k + 1, 4 * k + 12):
                yield k, beta, n


def _verdict(build, check, k, beta, n):
    try:
        trap = build(k, beta, n)
        if check:
            trap.check_band()
    except ValueError as exc:
        return "refused", str(exc)
    return "built", (trap.n, trap.k, trap.beta, trap.epsilon,
                     trap.a_elements, trap.b_elements, trap.c_elements,
                     trap.override_value, trap.claimed_greedy_value())


def test_build_matches_parent_build_and_band_check():
    inputs = band_refusals = built = 0
    for args in _grid():
        got = _verdict(build_greedy_trap, False, *args)
        assert got == _verdict(parent_build_greedy_trap, True, *args), args
        inputs += 1
        band_refusals += got[0] == "refused" and "leaves the band" in got[1]
        built += got[0] == "built"
    assert (inputs, band_refusals) == (20300, 1892)
    assert built > 0


def parent_run_trap(k: int = 16, beta: float = 0.5, n: int = 64) -> tuple[list[dict], dict]:
    """``experiments.run_trap`` before the build checked the band, verbatim
    but for the parent build and the solver's dropped ``n``."""
    trap = parent_build_greedy_trap(k, beta, n)
    trap.check_band()
    res = greedy_cardinality(trap, k)
    measured = Fraction(res.value)
    claimed = trap.claimed_greedy_value()
    # The intended optimum (all of A plus budget filled from C) is known in
    # closed form; no brute force at n = 64.
    best_known = trap.override_value + (k - len(trap.a_elements))
    row = {
        "experiment": "trap", "n": n, "k": k, "h": "", "alpha": "",
        "beta": beta, "epsilon": float(trap.epsilon), "seed": "",
        "solver": "greedy", "value": float(measured),
        "baseline": float(claimed), "ratio": float(measured / claimed),
        "bound": "", "queries": res.queries_used, "band_escapes": "",
    }
    summary = {
        "epsilon": float(trap.epsilon),
        "claimed_greedy_value": float(claimed),
        "measured_greedy_value": float(measured),
        "discrepancy": measured != claimed,
        "best_feasible_value": float(best_known),
        "chosen": res.chosen.elements(),
        "note": (
            "measured greedy differs from the predicted trap value: the "
            "deflation override covers only the exact A-plus-one-C sets, so "
            "after greedy accepts a single filler element the next queries "
            "reveal the full value of C and greedy escapes the trap"
        ) if measured != claimed else "",
    }
    return [row], summary


def test_run_trap_matches_parent_on_every_greedy_scale_input():
    for n in range(64, 257, 2):
        rows, summary = run_trap(16, 0.5, n)
        assert (rows, summary) == parent_run_trap(16, 0.5, n)


def _small_traps():
    """(parent trap, the same blocks as a trap of today) for every input of
    the grid with n <= 14 that the parent built, band refusals included."""
    for k, beta, n in _grid(13):
        if n > 14:
            continue
        try:
            parent = parent_build_greedy_trap(k, beta, n)
        except ValueError:
            continue
        a_size, bc_size = len(parent.a_elements), len(parent.b_elements)
        yield parent, GreedyTrapInstance(n, k, beta, parent.epsilon, a_size, bc_size)


def test_value_matches_parent_on_every_set():
    traps = list(_small_traps())
    assert len({(p.k, p.beta, p.n) for p, _ in traps}) == len(traps) > 5
    buildable = 0
    for parent, trap in traps:
        try:
            build_greedy_trap(trap.k, trap.beta, trap.n)
            buildable += 1
        except ValueError:
            pass
        n = trap.n
        overrides = 0
        for mask in range(1 << n):
            s = Subset._raw(n, mask, mask.bit_count())
            got, want = trap.value(s), parent.value(s)
            assert got == want and type(got) is type(want), (trap.k, trap.beta, n, mask)
            overrides += parent.is_override(s)
        assert overrides == len(trap.c_elements)
    assert buildable > 0


@pytest.mark.parametrize("k, beta, n", [(16, 0.5, 64), (5, 0.2, 12), (25, 0.5, 52)])
def test_value_refuses_another_ground_set(k, beta, n):
    trap = build_greedy_trap(k, beta, n)
    a = (1 << len(trap.a_elements)) - 1
    masks = [0, a] + [s.mask for s in override_sets(trap)]
    for mask in masks:
        for other in (n + 1, 2 * n):
            s = Subset(other, mask)
            with pytest.raises(ValueError, match="ground set mismatch"):
                trap.value(s)
            with pytest.raises(ValueError, match="ground set mismatch"):
                trap.query(s)
    assert trap.query_count == 0
    f_override = 2 * len(trap.a_elements) + 1
    assert all(trap.value(s) == trap.override_value and trap.f.value(s) == f_override
               for s in override_sets(trap))
