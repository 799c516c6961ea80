"""Command-line harness.

  morreylab run <config-file> [--out PATH] [--seed N] [--trials N]
  morreylab norm <csv> --p P --q Q [--weight csv:PATH|pow:G|const:C]
  morreylab weight-const <kind> <config-file>
  morreylab decompose <config-file> --json PATH

Exit codes: 0 success, 2 validation failure, 3 invariant violation (a run's
report counts some, or the decomposition fails verify_decomposition).
"""

from __future__ import annotations

import argparse
import sys

from .czd import decomposition_to_json
from .errors import ValidationError
from .field import LatticeFunction, from_csv
from .harness import (
    ExperimentConfig,
    _decompose,
    _depth,
    _exponent_set,
    _make_weight,
    _q0,
    _stage_chunks,
    _write_json,
    config_from_pairs,
    emit_report,
    parse_config,
    run_experiment,
)
from .weights_norms import WeightConditionKind, morrey_norm, two_weight_constant

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


def _load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None or args.trials is not None:
        overrides = dict(cfg.raw)
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.trials is not None:
            overrides["trials"] = str(args.trials)
        cfg = config_from_pairs(sorted(overrides.items()))
    report = run_experiment(cfg)
    out = args.out or f"{cfg.experiment.lower()}_report"
    csv_path, json_path = emit_report(report, out)
    print(f"wrote {csv_path} and {json_path}")
    print(f"max ratio {report.summary['max_ratio']} over "
          f"{len(report.rows)} rows; growth factors {report.summary['growth_factors']}")
    if report.summary["invariant_violations"] > 0:
        print(f"invariant violations: {report.summary['invariant_violations']}",
              file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_norm(args) -> int:
    f = from_csv(args.csv)
    w = None
    if args.weight:
        w = _make_weight(args.weight, f.window)
    val = morrey_norm(f, args.p, args.q, w=w)
    print(repr(val))
    return EXIT_OK


def _cmd_weight_const(args) -> int:
    cfg = _load_config(args.config)
    kind = WeightConditionKind(args.kind)
    win = cfg.window
    e = _exponent_set(cfg, kind)
    params, depth = cfg.params, _depth(cfg)
    v = _make_weight(params.get("weight_v", "const:1"), win, depth)
    w1 = _make_weight(params.get("weight_w1", params.get("weight_u1", "const:1")), win, depth)
    w2 = _make_weight(params.get("weight_w2", params.get("weight_u2", "const:1")), win, depth)
    print(repr(two_weight_constant(kind, v, w1, w2, e, win)))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    cfg = _load_config(args.config)
    win = cfg.window
    q0 = _q0(cfg, win)
    _, f, g, _ = next(_stage_chunks(cfg, win, n_trials=1))
    f, g = (LatticeFunction(win, x.values[0]) for x in (f, g))
    d, bad, _ = _decompose(cfg, cfg.params.get("kind", "cz"), f, g, q0)
    _write_json(decomposition_to_json(d, win), args.json)
    print(f"wrote {args.json}: {sum(len(v) for v in d.levels.values())} stopping cubes "
          f"over {len(d.levels)} levels")
    if bad:
        print(f"invariant violations: {len(bad)}", file=sys.stderr)
        for msg in bad:
            print(msg, file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="morreylab",
                                     description="empirical harness for weighted "
                                                 "inequalities on dyadic lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_norm = sub.add_parser("norm", help="Morrey norm of a lattice-function CSV")
    p_norm.add_argument("csv")
    p_norm.add_argument("--p", type=float, required=True)
    p_norm.add_argument("--q", type=float, required=True)
    p_norm.add_argument("--weight", default=None)
    p_norm.set_defaults(fn=_cmd_norm)

    p_wc = sub.add_parser("weight-const", help="evaluate a weight-condition constant")
    p_wc.add_argument("kind", choices=[k.value for k in WeightConditionKind])
    p_wc.add_argument("config")
    p_wc.set_defaults(fn=_cmd_weight_const)

    p_dec = sub.add_parser("decompose", help="stopping-time decomposition to JSON")
    p_dec.add_argument("config")
    p_dec.add_argument("--json", required=True)
    p_dec.set_defaults(fn=_cmd_decompose)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
