"""Command-line driver.

Subcommands: verify, distinguish, sweep, trap, sample, generate.
Exit codes: 0 = pass, 1 = counterexample or violated bound, 2 = rejected
preconditions or bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .functions import (config_number, config_seed, instance_from_dict, refuse_stray_keys,
                        require_keys)
from .noise import noise_from_dict
from .verify import check_concentration, check_monotone, check_sandwich, check_submodular

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_REJECTED = 2
_PAIR_KEYS = [f.name for f in dataclasses.fields(HardPairParams)]  # a construction needs each


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
            print(json.dumps(row, sort_keys=True))


def _refuse_beside(args, key: str, keys) -> None:
    """Refuse ``keys``, which build the runner's default input, beside ``key``."""
    names = [name for name in keys if name in args.cfg]
    if key in args.cfg and names:
        raise ValueError(f"a {args.command} config with {key!r} does not read {names}")


def _cmd_verify(args) -> int:
    prop = args.property
    if prop == "concentration":
        report = check_concentration(
            args.n, args.h, args.set_size, args.epsilon,
            method=args.mode, trials=args.trials, seed=args.seed,
        )
        print(f"concentration n={report.n} h={report.h} |S|={report.set_size} "
              f"eps={report.epsilon}: measured={report.measured:.6f} "
              f"reference={report.reference:.6f} "
              f"[{'pass' if report.passed else 'FAIL'}]")
        return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE

    if prop in ("submodular", "monotone"):
        inst = instance_from_dict(_load_json(args.instance))
        check = check_submodular if prop == "submodular" else check_monotone
        report = check(inst, inst.n)
        print(f"{report.property_name} {report.instance}: "
              f"{'pass' if report.passed else 'FAIL'} "
              f"({report.examined} checks)"
              + ("" if report.passed else f"; counterexample: {report.counterexample}"))
        return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE

    cfg = args.cfg
    if "construction" in cfg:
        refuse_stray_keys(cfg, ["construction"], "a sandwich config with a 'construction'")
        construction = cfg["construction"]
        if not isinstance(construction, dict):
            raise ValueError(f"a construction must be a JSON object, "
                             f"got {type(construction).__name__}")
        refuse_stray_keys(construction, ["family", *_PAIR_KEYS], "a construction")
        require_keys(construction, _PAIR_KEYS, "a construction")
        family = construction.pop("family", "monotone")
        if family not in ("monotone", "coverage"):
            raise ValueError(f"construction family must be 'monotone' or 'coverage', "
                             f"got {family!r}")
        params = HardPairParams(**construction)
        hidden = draw_hidden_set(params.n, params.h, args.seed)
        pair = (build_coverage_pair if family == "coverage"
                else build_monotone_pair)(params, hidden)
        F, f, epsilon, n = build_sandwich(pair), pair.fh, params.epsilon, params.n
    else:
        if "instance" not in cfg:
            raise ValueError("a sandwich config needs a 'construction' or an 'instance'")
        refuse_stray_keys(cfg, ["instance", "noise"], "a sandwich config with an 'instance'")
        f = instance_from_dict(cfg["instance"])
        if "noise" not in cfg:
            raise ValueError("a sandwich config with an 'instance' needs a 'noise' block: "
                             "it builds the noisy oracle F checked against the instance")
        noise = cfg["noise"]
        if isinstance(noise, dict) and "epsilon" not in noise:
            raise ValueError("the noise block needs 'epsilon': the sandwich check tests "
                             "F against the band (1 +- epsilon) f")
        F = noise_from_dict(f, noise)
        epsilon, n = config_number(noise["epsilon"], "epsilon"), f.n
    report = check_sandwich(F, f, epsilon, n, args.mode, args.trials, args.seed)
    print(f"sandwich {report.instance}: {'pass' if report.passed else 'FAIL'} "
          f"({report.examined} sets)")
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


def _cmd_distinguish(args) -> int:
    rows, summary = experiments.run_distinguishability(args.n, args.beta, args.trials, args.seed)
    _emit(rows, args)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return EXIT_PASS if all(r["ok"] for r in rows) else EXIT_COUNTEREXAMPLE


def _cmd_sweep(args) -> int:
    cfg = args.cfg
    for key in ("instances", "sizes", "seeds", "delta_grid"):
        if key in cfg and not isinstance(cfg[key], list):
            raise ValueError(f"{key} must be a list, got {cfg[key]!r}")
    _refuse_beside(args, "instances", ("sizes", "count"))
    if "instances" in cfg:  # a case without --seed: args.seed is None, and no corpus is built
        cfg["instances"] = [instance_from_dict(d) for d in cfg["instances"]]
    rows = experiments.run_noise_sweep(corpus_seed=args.seed, **cfg)
    _emit(rows, args)
    bad = [r for r in rows if not r["ok"]]
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
    _refuse_beside(args, "instance", ("n", "alpha"))
    f = instance_from_dict(args.cfg.pop("instance")) if "instance" in args.cfg else None
    rows, summary = experiments.run_sampling_validation(f, seed=args.seed, **args.cfg)
    _emit(rows, args)
    print(json.dumps({"summary": summary}, sort_keys=True))
    ok = summary["violating_fraction"] <= summary["prediction"]
    return EXIT_PASS if ok else EXIT_COUNTEREXAMPLE


def _cmd_generate(args) -> int:
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


# Each flag's argparse keywords.  A flag parses to None when absent; its
# default comes from the case that reads it (``_READS``).
_FLAGS = {
    "--property": {"required": True,
                   "choices": ("submodular", "monotone", "sandwich", "concentration")},
    "--construction": {"required": True, "choices": ("monotone", "coverage", "trap")},
    "--instance": {"help": "instance JSON path"},
    "--config": {"help": "JSON config path"},
    "--mode": {"help": "exhaustive|sampled|exact|mc"},
    "--n": {"type": int},
    "--h": {"type": int},
    "--set-size": {"type": int},
    "--epsilon": {"type": float},
    "--k": {"type": int, "help": "greedy budget"},
    "--beta": {"type": float},
    "--curve": {"type": int, "nargs": "*", "help": "budgets for a ratio-vs-budget curve"},
    "--trials": {"type": int},
    "--seed": {"type": int},
    "--out": {"help": "report output path"},
    "--format": {"choices": ("csv", "structured"),
                 "help": "report format with --out (default csv)"},
}

# The flags each case of each subcommand reads, with the value each takes when
# it is not given; a _REQUIRED flag must be given.  A flag given to a case that
# does not read it exits 2 rather than being ignored; --format is read only
# with --out.
_REQUIRED = object()
_REPORT = {"--out": None, "--format": "csv"}
_CONCENTRATION = {"--property": _REQUIRED, "--n": _REQUIRED, "--h": _REQUIRED,
                  "--set-size": _REQUIRED, "--epsilon": _REQUIRED, "--mode": "exact"}
_SANDWICH = {"--property": _REQUIRED, "--config": _REQUIRED, "--mode": "exhaustive"}
_GENERATE = {"--construction": _REQUIRED, "--n": _REQUIRED, "--beta": _REQUIRED, "--out": None}
_READS = {
    "verify": {
        "--property concentration --mode exact": _CONCENTRATION,
        "--property concentration --mode mc": {**_CONCENTRATION, "--trials": 100_000, "--seed": 0},
        "--property submodular": {"--property": _REQUIRED, "--instance": _REQUIRED},
        "--property monotone": {"--property": _REQUIRED, "--instance": _REQUIRED},
        "--property sandwich --mode exhaustive": {**_SANDWICH, "--seed": 0},
        "--property sandwich --mode exhaustive with an instance in its config": _SANDWICH,
        "--property sandwich --mode sampled": {**_SANDWICH, "--trials": 100_000, "--seed": 0},
    },
    "distinguish": {"": {"--n": 4096, "--beta": 0.25, "--trials": 100, "--seed": 0, **_REPORT}},
    "sweep": {
        "with instances in its config": {"--config": None, **_REPORT},
        "": {"--config": None, "--seed": 0, **_REPORT},
    },
    "trap": {
        "--curve": {"--curve": None, "--beta": 0.5, **_REPORT},
        "without --curve": {"--k": 16, "--n": 64, "--beta": 0.5, **_REPORT},
    },
    "sample": {"": {"--config": None, "--seed": 0, **_REPORT}},
    "generate": {
        "--construction monotone": {**_GENERATE, "--seed": 0},
        "--construction coverage": {**_GENERATE, "--seed": 0},
        "--construction trap": {**_GENERATE, "--k": 16},
    },
}
# The config keys that give the same setting as a flag: a run takes it from
# one or the other, never both.  A seed from a config is checked by its key.
_KEYS = {
    "verify": {"seed": "--seed", "mode": "--mode", "trials": "--trials"},
    "sweep": {"corpus_seed": "--seed"},
    "sample": {"seed": "--seed"},
}


def _case(args, cfg: dict) -> str:
    """The ``_READS`` key of args' case, given its config."""
    if args.command == "verify":  # the check refuses a mode it does not know
        modes = {"concentration": ("mc", "exact"), "sandwich": ("sampled", "exhaustive")}
        if args.property not in modes:
            return f"--property {args.property}"
        other, default = modes[args.property]
        case = f"--property {args.property} --mode {other if args.mode == other else default}"
        if case.endswith("exhaustive") and "instance" in cfg and "construction" not in cfg:
            case += " with an instance in its config"  # only a construction reads --seed
        return case
    if args.command == "sweep":
        return "with instances in its config" if "instances" in cfg else ""
    if args.command == "trap":
        return "--curve" if args.curve is not None else "without --curve"
    if args.command == "generate":
        return f"--construction {args.construction}"
    return ""


def _refuse_unread(args, case: str, given: dict, reads) -> None:
    unread = [name for flag, name in given.items() if flag not in reads]
    if unread:
        raise ValueError(f"{args.command} {case} does not read {', '.join(unread)}")


def _resolve(args) -> None:
    """Settle args' settings from its flags and its config, read once into
    ``args.cfg``: move each config key that gives a flag's setting
    (``_KEYS``) into it, refuse a setting given both ways and a flag or key
    args' case does not read (``_READS``), then give each flag the case
    reads that was not given its default, or refuse a required one."""
    values, table = vars(args), _READS[args.command]
    dest = {flag: flag[2:].replace("-", "_") for reads in table.values() for flag in reads}
    given = {flag: flag for flag in dest if values[dest[flag]] is not None}
    if "--format" in given and values["out"] is None:
        raise ValueError(f"{args.command} reads --format only with --out")
    args.cfg = {}
    case = _case(args, args.cfg)
    if values.get("config") is not None and "--config" in table[case]:
        # before opening the config, refuse what no case with a config reads
        _refuse_unread(args, case, given, {flag for reads in table.values()
                                           if "--config" in reads for flag in reads})
        args.cfg = cfg = _load_json(args.config)
        for key, flag in _KEYS[args.command].items():
            if key in cfg:
                if flag in given:
                    raise ValueError(f"{args.command} gets {key} from both {flag} and its config")
                value = cfg.pop(key)
                values[dest[flag]] = config_seed(value, key) if flag == "--seed" else value
                given[flag] = f"{key} from its config"
        case = _case(args, cfg)
    _refuse_unread(args, case, given, table[case])
    for flag, default in table[case].items():
        if flag not in given:
            if default is _REQUIRED:
                raise ValueError(f"{args.command} {case} needs {flag}")
            values[dest[flag]] = default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxsub",
        description="Maximize approximately submodular functions; generate and "
                    "verify adversarial instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_ in (
        ("verify", _cmd_verify, "property checks"),
        ("distinguish", _cmd_distinguish, "decoy-following experiment at scale"),
        ("sweep", _cmd_sweep, "greedy noise sweep"),
        ("trap", _cmd_trap, "greedy trap reproduction"),
        ("sample", _cmd_sample, "sampling-rule validation"),
        ("generate", _cmd_generate, "emit adversarial instance metadata"),
    ):
        p = sub.add_parser(name, help=help_)
        cases = _READS[name].values()
        for flag in dict.fromkeys(flag for reads in cases for flag in reads):
            p.add_argument(flag, default=None, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, RecursionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
