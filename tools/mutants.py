"""Mutant check for the exact paths, the guarantee verdicts and the guards.

Each catalogue entry names a file under ``src/approxsub``, one exact text in
it, the text that replaces it, and the tests (modules, or node ids where a
module is slow to reach the killing test) that must fail on the result.  The
runner copies ``src/`` and ``demos/`` to a temporary directory, checks that
the named tests pass on the unmutated copy, and then, one entry at a time and
each on a fresh copy, applies the replacement and runs the entry's tests with
``-x`` against it.  The repository itself is never edited.  A run with a
failing test (pytest exit 1) kills the mutant, and so does a run that
outlasts ``TIMEOUT_S`` (a deleted guard can leave a loop that never ends); a
passing run is a survivor.  Every pytest run, the unmutated copy's too, has
its address space capped at ``MEMORY_CAP``, so a mutant that allocates before
its guard fails a test with ``MemoryError`` instead of filling the host's
memory.  Any other pytest exit (a collection or usage error, no tests) means
no test judged the mutant, and the check stops.
``tests/test_bench_hooks.py`` imports the repository's own ``src/`` by
design, so no entry names it.

Exit 0 when every mutant is killed, 1 naming each survivor, 2 when an entry
does not apply (its old text is not in its file exactly once, or the mutated
file does not compile), the unmutated copy fails its tests, or no test judged
a mutant.  A survivor is a finding: add a test that kills it, or delete the
code it mutates if nothing needs that code; never drop the entry to pass.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
MEMORY_CAP = 4 << 30  # bytes of address space for each pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/approxsub
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


def _strict(name, path, expr, lo_strict, tests):
    """The band test ``a <= b <= c`` in ``expr`` with one edge made strict."""
    a, b, c = expr.split(" <= ")
    new = f"{a} < {b} <= {c}" if lo_strict else f"{a} <= {b} < {c}"
    return Mutant(name, path, expr, new, tests)


_HOLDS = "return self.q_lo * y <= self.q * Fn * fd <= self.q_hi * y"
_WALK_IN = "if not lo <= F_in <= hi:"
_WALK_OUT = "if not lo <= F_out <= hi:"
_LOOP = "if q_lo * y <= q * Fn <= q_hi * y:"
_NEAR = "return low - 1e-12 * max(1.0, abs(low)) <= F <= high + 1e-12 * max(1.0, abs(high))"

CATALOGUE = (
    # The exact band test and its two inlined fast paths, edge by edge: the
    # pair band's window rounds each edge of F the wrong way, and the decoy
    # walk tests each candidate against the window with one edge strict.
    _strict("band-holds-lo", "adversarial.py", _HOLDS, True, ("tests/test_band.py",)),
    _strict("band-holds-hi", "adversarial.py", _HOLDS, False, ("tests/test_band.py",)),
    Mutant("pair-band-lo", "adversarial.py", "-(-self.q * G // self.q_hi)",
           "self.q * G // self.q_hi", ("tests/test_band_kernel.py",)),
    Mutant("pair-band-hi", "adversarial.py", "self.q * G // self.q_lo",
           "self.q * G // self.q_lo + 1", ("tests/test_band_kernel.py",)),
    _strict("decoy-in-lo", "experiments.py", _WALK_IN, True, ("tests/test_band_kernel.py",)),
    _strict("decoy-in-hi", "experiments.py", _WALK_IN, False, ("tests/test_band_kernel.py",)),
    _strict("decoy-out-lo", "experiments.py", _WALK_OUT, True, ("tests/test_band_kernel.py",)),
    _strict("decoy-out-hi", "experiments.py", _WALK_OUT, False, ("tests/test_band_kernel.py",)),
    _strict("check-sandwich-lo", "verify.py", _LOOP, True, ("tests/test_band.py",)),
    _strict("check-sandwich-hi", "verify.py", _LOOP, False, ("tests/test_band.py",)),
    # The float band test's slack: none, and 1000 times wider.
    Mutant("band-near-no-slack", "adversarial.py", _NEAR, "return low <= F <= high",
           ("tests/test_band.py",)),
    Mutant("band-near-1e-9", "adversarial.py", _NEAR, _NEAR.replace("1e-12", "1e-9"),
           ("tests/test_band.py",)),
    # Greedy's integer-ratio argmax: ties must keep the smallest id.
    Mutant("greedy-int-ties", "solvers.py", "if v * bd > bn:", "if v * bd >= bn:",
           ("tests/test_ratio_argmax.py",)),
    Mutant("greedy-fraction-ties", "solvers.py", "if vn * bd > bn * vd:",
           "if vn * bd >= bn * vd:", ("tests/test_ratio_argmax.py",)),
    # The other exact fast paths, each mutated so that a result changes (a
    # value, a verdict, a drawn set or the memo's bound), not only the time.
    Mutant("weight-sum-class-walk", "functions.py", "for t, c in classes:",
           "for t, c in classes[1:]:", ("tests/test_weight_sum.py",)),
    Mutant("fraction-memo-bound", "functions.py", "if len(self) >= MEMO_LIMIT:",
           "if len(self) > MEMO_LIMIT:",
           ("tests/test_weight_sum.py::test_memo_past_its_bound_matches_reference",)),
    Mutant("submodular-certificate", "verify.py", "for a in range(b + 1, n):",
           "for a in range(b + 2, n):", ("tests/test_submodular_local.py",)),
    Mutant("hidden-set-targets", "adversarial.py",
           "targets = rng.integers(np.arange(h), n).tolist()",
           "targets = rng.integers(0, n, size=h).tolist()", ("tests/test_band_kernel.py",)),
    Mutant("budget-integer-cap", "functions.py",
           "self._limit = budget.numerator * self._sum.den // budget.denominator",
           "self._limit = -(-budget.numerator * self._sum.den // budget.denominator)",
           ("tests/test_weight_sum.py",)),
    Mutant("sum-integer-sum", "functions.py", "scaled += num * (den // d)", "scaled += num",
           ("tests/test_exact_sum.py",)),
    # The sandwich's table keys, the collapsed decoy greedy's tie-break and
    # check_sandwich's scale for f's table ints.
    Mutant("sandwich-table-span-short", "adversarial.py",
           "span = int(T_g.max()) - low + 1", "span = int(T_g.max()) - low",
           ("tests/test_exact_tables.py",)),
    Mutant("decoy-tie-break-reversed", "experiments.py",
           "take_in = in_ids[s1] < out_ids[s0]", "take_in = in_ids[s1] > out_ids[s0]",
           ("tests/test_band_kernel.py",)),
    Mutant("check-sandwich-drops-f-den", "verify.py",
           "D, f_ints = f.den, True", "D, f_ints = 1, True", ("tests/test_exact_tables.py",)),
    # Brute force visits only feasible masks, and coverage walks its set bits;
    # each mutant changes the queried sets or a value.
    Mutant("brute-jump-too-long", "solvers.py", "(mask & -mask) or end",
           "((mask & -mask) << 1) or end", ("tests/test_solver_loops.py",)),
    Mutant("brute-jump-at-limit", "solvers.py", "mask += 1 if size < limit else",
           "mask += 1 if size <= limit else", ("tests/test_solver_loops.py",)),
    Mutant("coverage-walk-drops-a-bit", "functions.py",
           "covers, covered, m = self.covers, 0, s.mask\n        while m:",
           "covers, covered, m = self.covers, 0, s.mask\n        while m & (m - 1):",
           ("tests/test_functions.py",)),
    # The guarantee verdicts decide on the computed values, with no slack.
    Mutant("sweep-ok-strict", "experiments.py", "ok = val >= bound * best",
           "ok = val > bound * best",
           ("tests/test_experiments.py::test_sweep_value_on_its_floor_passes",)),
    Mutant("sweep-ok-slack", "experiments.py", "ok = val >= bound * best",
           "ok = val >= bound * best - 1e-12 * max(1.0, abs(best))",
           ("tests/test_experiments.py::test_sweep_decides_its_floor_without_slack",)),
    Mutant("sample-verdict-strict", "cli.py",
           'ok = summary["violating_fraction"] <= summary["prediction"]',
           'ok = summary["violating_fraction"] < summary["prediction"]',
           ("tests/test_experiments.py::test_sample_fraction_on_its_prediction_passes",)),
    Mutant("sample-verdict-slack", "cli.py",
           'ok = summary["violating_fraction"] <= summary["prediction"]',
           'ok = summary["violating_fraction"] <= summary["prediction"] + 1e-12',
           ("tests/test_experiments.py::test_sample_decides_its_prediction_without_slack",)),
    # Guards, each deleted.
    Mutant("budget-nonnegative", "functions.py",
           "        if budget < 0:\n"
           '            raise ValueError(f"budget must be nonnegative, got {budget}")\n',
           "", ("tests/test_experiments.py::test_cli_verify_refuses_a_negative_budget",)),
    Mutant("coverage-int-cover", "functions.py",
           "            if mask < 0 or (universe_size < mask.bit_length()):\n"
           '                raise ValueError("cover extends past the universe")\n',
           "", ("tests/test_functions.py",)),
    Mutant("pow-snap", "adversarial.py",
           "    if abs(v - r) < 1e-9 * max(1.0, abs(r)):\n        return int(r)\n",
           "", ("tests/test_adversarial.py",)),
    Mutant("sweep-finite", "experiments.py",
           "                if not (math.isfinite(val) and math.isfinite(best)):\n"
           '                    raise ValueError(f"sweep values are not finite: greedy {val}, "\n'
           '                                     f"optimum {best} on instance #{idx}")\n',
           "", ("tests/test_experiments.py",)),
    Mutant("sum-table-all-zero", "functions.py",
           "            if t.any():  # an all-zero term's scale den // term.den may not fit int64\n"
           "                total += t * scale\n",
           "            total += t * scale\n", ("tests/test_exact_tables.py",)),
    Mutant("sandwich-table-int64", "adversarial.py",
           "        if (int(np.abs(T_fh).max()) + 1) * span > 1 << 63:\n"
           "            return None\n",
           "", ("tests/test_exact_tables.py",)),
    Mutant("sandwich-table-limit", "adversarial.py",
           "        if max(map(abs, chosen)) >= TABLE_LIMIT:\n            return None\n",
           "", ("tests/test_exact_tables.py",)),
    Mutant("table-of-finite", "verify.py",
           "            if not math.isfinite(4 * top):  # nan fails too\n"
           '                raise ValueError(f"{_describe(fn)} reaches |value| = {top:.6g}, too large "\n'
           '                                 f"for the float checks (sums of two values must stay finite)")\n',
           "", ("tests/test_experiments.py",)),
    Mutant("weight-sum-class-cap", "functions.py",
           "if len(groups) <= 64:", "if groups is not None:", ("tests/test_weight_sum.py",)),
    Mutant("coverage-table-63", "functions.py",
           "        if self.universe_size > 63:\n            return None\n",
           "", ("tests/test_exact_tables.py",)),
    Mutant("subset-remove-absent", "sets.py",
           "        if not self.contains(e):\n            return self\n",
           "", ("tests/test_sets.py",)),
    Mutant("curvature-zero-singleton", "functions.py",
           "        if single == 0:\n"
           '            raise ValueError(f"singleton {{{a}}} has value 0; curvature undefined")\n',
           "", ("tests/test_functions.py",)),
    Mutant("hidden-set-range", "adversarial.py",
           "    if not 0 < h <= n:\n"
           '        raise ValueError(f"need 0 < h <= n, got h={h}, n={n}")\n',
           "", ("tests/test_adversarial.py",)),
    Mutant("hypergeom-empty-range", "verify.py",
           "    if lo > hi:\n        return Fraction(0)\n",
           "", ("tests/test_verify.py",)),
    Mutant("sample-fixture-alpha", "experiments.py", 'if config_int(alpha, "alpha") < 1:',
           "if False:", ("tests/test_experiments.py::test_cli_sample_fixture_names_both_bounds",)),
    Mutant("sample-fixture-built-first", "experiments.py",
           '    if n > SAMPLE_MAX_N:\n',
           '    if f is None:\n        ConcaveCardinalityFunction([0] + [alpha] * n)\n'
           '    if n > SAMPLE_MAX_N:\n',
           ("tests/test_experiments.py::test_sampling_refuses_n_before_building_the_fixture",)),
    Mutant("sweep-sizes-unchecked", "experiments.py",
           "for n in sizes if instances is None else", "for n in [] if instances is None else",
           ("tests/test_experiments.py::test_sweep_refuses_sizes_before_building_the_corpus",)),
    Mutant("sweep-beside-unchecked", "experiments.py",
           "if instances is not None and (given := [key for key, v in keys.items()"
           " if v is not None]):", "if False:",
           ("tests/test_experiments.py::"
            "test_sweep_refuses_the_default_input_keys_beside_instances",)),
    Mutant("sample-beside-unchecked", "experiments.py",
           "if f is not None and (given := [key for key, v in keys.items() if v is not None]):",
           "if False:", ("tests/test_experiments.py::"
                         "test_sampling_refuses_the_fixture_keys_beside_an_instance",)),
    Mutant("sample-budget-past-n", "experiments.py", "if not 1 <= k <= n:", "if not 1 <= k:",
           ("tests/test_experiments.py::test_cli_sample_refuses_a_budget_outside_one_to_n",)),
    Mutant("sweep-delta-range", "experiments.py", "if not 0 <= eps < 1:", "if False:",
           ("tests/test_experiments.py::"
            "test_cli_sweep_reads_every_seed_and_delta_before_any_run",)),
    Mutant("required-samples-underflow", "noise.py",
           "    if not denominator > 0:\n"
           '        raise ValueError(f"b * eps^2 underflows to 0 at b={b}, eps={epsilon}")\n',
           "", ("tests/test_noise.py",)),
    Mutant("concentration-exact-unchecked", "verify.py",
           'if method == "exact" and (given := [key for key, v in keys.items() if v is not None]):',
           "if False:",
           ("tests/test_verify.py::test_concentration_exact_refuses_trials_and_seed",)),
    Mutant("mc-trials", "verify.py",
           "    if trials < 1:\n"
           '        raise ValueError(f"Monte-Carlo estimate needs trials >= 1, got {trials}")\n',
           "", ("tests/test_verify.py",)),
)


def _copy(dest: Path) -> None:
    """src/ and demos/ under dest, as in the repository (a test finds the
    demos next to the package's src/)."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "demos"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)


def cap_memory() -> None:
    """Cap the calling process's address space at ``MEMORY_CAP`` (a
    ``preexec_fn``: it runs in the child before pytest starts)."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(copy: Path, tests, timeout: float):
    """(returncode or None on timeout, first failing test id) of pytest -x on
    ``tests`` with the package imported from ``copy``.  The run's cwd is the
    copy, so hypothesis keeps its example database there, not in the repo."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(str(ROOT / t) for t in tests)]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return None, ""
    first = next((ln.split(" ")[1] for ln in proc.stdout.splitlines()
                  if ln.startswith(("FAILED ", "ERROR "))), "")
    if first:  # pytest names the test relative to the cwd
        path, _, rest = first.partition("::")
        first = f"{(copy / path).resolve().relative_to(ROOT)}::{rest}"
    return proc.returncode, first


def mutated(m: Mutant) -> str:
    """The text of m's file in the repository's ``src/`` with m applied.
    ValueError when m's old text is not in the file exactly once, or when the
    result does not compile: such a mutant fails at import, and no test would
    judge it."""
    text = (ROOT / "src" / "approxsub" / m.path).read_text()
    count = text.count(m.old)
    if count != 1:
        raise ValueError(f"{m.name}: its old text occurs {count} times in {m.path}")
    new = text.replace(m.old, m.new)
    try:
        compile(new, m.path, "exec")
    except SyntaxError as exc:
        raise ValueError(f"{m.name}: the mutated {m.path} does not compile: {exc}") from None
    return new


def main() -> int:
    try:
        texts = [mutated(m) for m in CATALOGUE]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        probe = subprocess.run([sys.executable, "-c", "import approxsub; print(approxsub.__file__)"],
                               cwd=base, env=dict(os.environ, PYTHONPATH=str(base / "src")),
                               capture_output=True, text=True)
        if not probe.stdout.startswith(str(base)):
            print(f"the copy is not the package imported: {probe.stdout or probe.stderr}",
                  file=sys.stderr)
            return 2
        targets = sorted({t for m in CATALOGUE for t in m.tests})
        code, first = _pytest(base, targets, TIMEOUT_S * len(targets))
        if code != 0:
            why = "timeout" if code is None else first or f"pytest exit {code}"
            print(f"the unmutated copy fails its tests ({why})", file=sys.stderr)
            return 2
        survivors = []
        for i, (m, text) in enumerate(zip(CATALOGUE, texts)):
            copy = Path(tmp) / f"m{i}"
            _copy(copy)
            (copy / "src" / "approxsub" / m.path).write_text(text)
            start = time.monotonic()
            code, first = _pytest(copy, m.tests, TIMEOUT_S)
            took = f"{time.monotonic() - start:.1f} s"
            if code == 0:
                survivors.append(m.name)
                print(f"SURVIVED {m.name} ({took})", flush=True)
            elif code is None:
                print(f"killed   {m.name} by the {TIMEOUT_S} s timeout", flush=True)
            elif code == 1:
                print(f"killed   {m.name} by {first} ({took})", flush=True)
            else:  # collection or usage error, or no tests: no test judged it
                print(f"{m.name}: pytest exit {code} ({first or 'no failing test'}), "
                      f"so no test judged the mutant", file=sys.stderr)
                return 2
            shutil.rmtree(copy)
    if survivors:
        print(f"{len(survivors)} of {len(CATALOGUE)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(CATALOGUE)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
