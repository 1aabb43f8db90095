"""Command-line driver.

Subcommands: verify, distinguish, sweep, trap, sample, generate.
Exit codes: 0 = pass, 1 = counterexample or violated bound, 2 = rejected
preconditions or bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .adversarial import (
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    gap_bound,
    power_law_params,
)
from .functions import CoverageFunction, config_int, config_number, config_seed, instance_from_dict
from .noise import noise_from_dict
from .verify import check_concentration, check_monotone, check_sandwich, check_submodular

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_REJECTED = 2
_FIXTURE_MAX_ALPHA = 1 << 24  # the sample fixture's shared block is one alpha-bit int


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON must be an object, got {type(data).__name__}")
    return data


def _emit(rows, args, default_stdout=False):
    if args.out:
        experiments.emit_report(rows, args.out, args.format)
        print(f"wrote {len(rows)} rows to {args.out}")
    elif default_stdout:
        for row in rows:
            print(json.dumps({k: experiments._json_cell(v) for k, v in row.items()},
                             sort_keys=True))


def _cmd_verify(args) -> int:
    prop = args.property
    if prop == "concentration":
        if None in (args.n, args.h, args.set_size, args.epsilon):
            raise ValueError("concentration needs --n, --h, --set-size, --epsilon")
        report = check_concentration(
            args.n, args.h, args.set_size, args.epsilon,
            method=args.mode or "exact",
            trials=args.trials, seed=args.seed,
        )
        print(f"concentration n={report.n} h={report.h} |S|={report.set_size} "
              f"eps={report.epsilon}: measured={report.measured:.6f} "
              f"reference={report.reference:.6f} "
              f"[{'pass' if report.passed else 'FAIL'}]")
        return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE

    if prop in ("submodular", "monotone"):
        if args.instance:
            inst = instance_from_dict(_load_json(args.instance))
        else:
            raise ValueError("--instance required for submodular/monotone checks")
        check = check_submodular if prop == "submodular" else check_monotone
        report = check(inst, inst.n)
        print(f"{report.property_name} {report.instance}: "
              f"{'pass' if report.passed else 'FAIL'} "
              f"({report.examined} checks)"
              + ("" if report.passed else f"; counterexample: {report.counterexample}"))
        return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE

    if not args.config:
        raise ValueError("--config required for the sandwich check")
    cfg = _load_json(args.config)
    if "construction" in cfg:
        construction = cfg.pop("construction")
        if not isinstance(construction, dict):
            raise ValueError(f"a construction must be a JSON object, "
                             f"got {type(construction).__name__}")
        family = construction.pop("family", "monotone")
        if family not in ("monotone", "coverage"):
            raise ValueError(f"construction family must be 'monotone' or 'coverage', "
                             f"got {family!r}")
        params = HardPairParams(**construction)
        hidden = draw_hidden_set(params.n, params.h, cfg.get("seed", args.seed))
        pair = (build_coverage_pair if family == "coverage"
                else build_monotone_pair)(params, hidden)
        F, f, epsilon, n = build_sandwich(pair), pair.fh, params.epsilon, params.n
    else:
        if "instance" not in cfg:
            raise ValueError("a sandwich config needs a 'construction' or an 'instance'")
        f = instance_from_dict(cfg.pop("instance"))
        if "noise" not in cfg:
            raise ValueError("a sandwich config with an 'instance' needs a 'noise' block: "
                             "it builds the noisy oracle F checked against the instance")
        noise = cfg.pop("noise")
        if isinstance(noise, dict) and "epsilon" not in noise:
            raise ValueError("the noise block needs 'epsilon': the sandwich check tests "
                             "F against the band (1 +- epsilon) f")
        F = noise_from_dict(f, noise)
        epsilon, n = config_number(noise["epsilon"], "epsilon"), f.n
    report = check_sandwich(F, f, epsilon, n, **{
        "mode": args.mode or "exhaustive", "trials": args.trials, "seed": args.seed, **cfg,
    })
    print(f"sandwich {report.instance}: {'pass' if report.passed else 'FAIL'} "
          f"({report.examined} sets)")
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


def _cmd_distinguish(args) -> int:
    rows, summary = experiments.run_distinguishability(args.n, args.beta, args.trials, args.seed)
    _emit(rows, args)
    print(json.dumps({"summary": summary}, sort_keys=True, default=str))
    return EXIT_PASS if all(r["ok"] for r in rows) else EXIT_COUNTEREXAMPLE


def _cmd_sweep(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    if args.seed is not None and ("instances" in cfg or "corpus_seed" in cfg):
        raise ValueError("sweep with instances or corpus_seed in its config does not read --seed")
    for key in ("instances", "sizes", "seeds", "delta_grid"):
        if key in cfg and not isinstance(cfg[key], list):
            raise ValueError(f"{key} must be a list, got {cfg[key]!r}")
    if "instances" in cfg:
        instances = [instance_from_dict(d) for d in cfg.pop("instances")]
    else:
        sizes = tuple(config_int(size, "a size") for size in cfg.pop("sizes", (8, 10)))
        if not all(1 <= size <= experiments.SWEEP_MAX_N for size in sizes):
            raise ValueError(f"sweep sizes must be in 1..{experiments.SWEEP_MAX_N}, got {sizes}")
        key = "corpus_seed" if "corpus_seed" in cfg else "seed"
        seed = cfg.pop("corpus_seed", 0 if args.seed is None else args.seed)
        corpus = experiments.instance_corpus(config_seed(seed, key), sizes=sizes)
        count = config_int(cfg.pop("count", len(corpus)), "count")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        instances = corpus[:count]
    rows = experiments.run_noise_sweep(instances, **cfg)
    _emit(rows, args)
    bad = [r for r in rows if not r.get("ok", True)]
    print(f"sweep: {len(rows)} runs, {len(bad)} below the guarantee")
    return EXIT_COUNTEREXAMPLE if bad else EXIT_PASS


def _cmd_trap(args) -> int:
    if args.curve is not None:
        rows = experiments.run_trap_curve(args.curve, args.beta)
        _emit(rows, args, default_stdout=True)
        return EXIT_PASS
    rows, summary = experiments.run_trap(args.k, args.beta, args.n)
    _emit(rows, args)
    print(f"trap k={args.k} beta={args.beta} n={args.n}: "
          f"claimed greedy value = {summary['claimed_greedy_value']:.6f}, "
          f"measured greedy value = {summary['measured_greedy_value']:.6f}")
    if summary["discrepancy"]:
        print(f"DISCREPANCY: {summary['note']}")
    return EXIT_PASS


def _cmd_sample(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    if "instance" in cfg:
        f = instance_from_dict(cfg.pop("instance"))
    else:
        # Default fixture: every element covers the same shared block, so the
        # value range over nonempty sets is a single point.
        n, alpha = config_int(cfg.pop("n", 12), "n"), config_int(cfg.pop("alpha", 5), "alpha")
        if not (1 <= n <= experiments.SAMPLE_MAX_N and 1 <= alpha <= _FIXTURE_MAX_ALPHA):
            raise ValueError(f"the fixture is guarded at 1 <= n <= {experiments.SAMPLE_MAX_N} and "
                             f"1 <= alpha <= {_FIXTURE_MAX_ALPHA}, got n={n}, alpha={alpha}")
        f = CoverageFunction(alpha, [(1 << alpha) - 1] * n)
    rows, summary = experiments.run_sampling_validation(f, **{"seed": args.seed, **cfg})
    _emit(rows, args)
    print(json.dumps({"summary": summary}, sort_keys=True))
    ok = summary["violating_fraction"] <= summary["prediction"] + 1e-12
    return EXIT_PASS if ok else EXIT_COUNTEREXAMPLE


def _cmd_generate(args) -> int:
    meta: dict
    if args.construction == "trap":
        trap = build_greedy_trap(args.k, args.beta, args.n)
        meta = {
            "construction": "trap", "n": trap.n, "k": trap.k, "beta": trap.beta,
            "epsilon": float(trap.epsilon),
            "blocks": {"A": trap.a_elements, "B": trap.b_elements, "C": trap.c_elements},
            "override_value": float(trap.override_value),
            "override_sets": len(trap.c_elements),
        }
    else:
        params = power_law_params(args.n, args.beta)
        hidden = draw_hidden_set(params.n, params.h, args.seed)
        meta = {
            "construction": args.construction, "n": params.n, "h": params.h,
            "alpha": params.alpha, "k": params.k, "epsilon": params.epsilon,
            "beta": args.beta, "seed": args.seed,
            "gap_bound": float(gap_bound(params)),
            "hidden": hidden.elements(),
        }
    text = json.dumps(meta, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote instance metadata to {args.out}")
    else:
        print(text)
    return EXIT_PASS


_SHARED_FLAGS = {
    "--config": {"default": None, "help": "JSON config path"},
    "--seed": {"type": int, "default": 0},
    "--out": {"default": None, "help": "report output path"},
    "--format": {"choices": ("csv", "structured"), "default": None,
                 "help": "report format with --out (default csv)"},
}


# The optional flags each case of verify, trap and generate reads, with the
# value each takes when it is not given.  In those subcommands these flags
# parse to None when absent, so a flag given to a case that does not read it
# exits 2 rather than being ignored.  --format, wherever it is a flag, is read
# only with --out.
_READS = {
    "verify": {
        "--property concentration --mode exact": {"--n": None, "--h": None, "--set-size": None,
                                                  "--epsilon": None, "--mode": None},
        "--property concentration --mode mc": {"--n": None, "--h": None, "--set-size": None,
                                               "--epsilon": None, "--mode": None,
                                               "--trials": 100_000, "--seed": 0},
        "--property submodular": {"--instance": None},
        "--property monotone": {"--instance": None},
        "--property sandwich": {"--config": None, "--mode": None,
                                "--trials": 100_000, "--seed": 0},
    },
    "trap": {
        "--curve": {"--curve": None, "--beta": 0.5, "--out": None},
        "without --curve": {"--k": 16, "--n": 64, "--beta": 0.5, "--out": None},
    },
    "generate": {
        "--construction monotone": {"--n": None, "--beta": None, "--seed": 0, "--out": None},
        "--construction coverage": {"--n": None, "--beta": None, "--seed": 0, "--out": None},
        "--construction trap": {"--n": None, "--beta": None, "--k": 16, "--out": None},
    },
}


def _case(args) -> str:
    """The ``_READS`` key of args' case."""
    if args.command == "verify":
        if args.property == "concentration":  # check_concentration refuses other modes
            return f"--property concentration --mode {'mc' if args.mode == 'mc' else 'exact'}"
        return f"--property {args.property}"
    if args.command == "generate":
        return f"--construction {args.construction}"
    return "--curve" if args.curve is not None else "without --curve"


def _resolve_flags(args) -> None:
    """Refuse the flags given that args' case does not read (see ``_READS``),
    then give each flag it reads that was not given its default."""
    values = vars(args)
    if "format" in values:
        if values["format"] is not None and values["out"] is None:
            raise ValueError(f"{args.command} reads --format only with --out")
        values["format"] = values["format"] or "csv"
    table = _READS.get(args.command)
    if table is None:
        return
    case = _case(args)
    reads = table[case]
    dest = {flag: flag[2:].replace("-", "_") for flags in table.values() for flag in flags}
    unread = [flag for flag in dest if flag not in reads and values[dest[flag]] is not None]
    if unread:
        raise ValueError(f"{args.command} {case} does not read {', '.join(unread)}")
    for flag, default in reads.items():
        if values[dest[flag]] is None:
            values[dest[flag]] = default


def _shared(*flags) -> list:
    """A parent parser with only the shared flags a subcommand's handler reads."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_SHARED_FLAGS[flag])
    return [parent]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxsub",
        description="Maximize approximately submodular functions; generate and "
                    "verify adversarial instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # verify, trap and generate take their flags' defaults from _READS
    p = sub.add_parser("verify", parents=_shared("--config", "--seed"), help="property checks")
    p.add_argument("--property", required=True,
                   choices=("submodular", "monotone", "sandwich", "concentration"))
    p.add_argument("--instance", default=None, help="instance JSON path")
    p.add_argument("--mode", default=None, help="exhaustive|sampled|exact|mc")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--set-size", type=int, dest="set_size", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_verify, seed=None)

    p = sub.add_parser("distinguish", parents=_shared("--seed", "--out", "--format"),
                       help="decoy-following experiment at scale")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("sweep", parents=_shared(*_SHARED_FLAGS), help="greedy noise sweep")
    p.set_defaults(func=_cmd_sweep, seed=None)  # _cmd_sweep refuses or defaults it

    p = sub.add_parser("trap", parents=_shared("--out", "--format"),
                       help="greedy trap reproduction")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--curve", type=int, nargs="*", default=None,
                   help="budgets for a ratio-vs-budget curve")
    p.set_defaults(func=_cmd_trap)

    p = sub.add_parser("sample", parents=_shared(*_SHARED_FLAGS), help="sampling-rule validation")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("generate", parents=_shared("--seed", "--out"),
                       help="emit adversarial instance metadata")
    p.add_argument("--construction", required=True,
                   choices=("monotone", "coverage", "trap"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--k", type=int, default=None, help="budget (trap only)")
    p.set_defaults(func=_cmd_generate, seed=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_flags(args)
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, RecursionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
