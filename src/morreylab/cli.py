"""Command-line harness.

  morreylab run <config-file> [--out PATH] [--seed N] [--trials N]
  morreylab norm <csv> --p P --q Q [--weight csv:PATH|pow:G|const:C]
  morreylab weight-const <kind> <config-file>
  morreylab decompose <config-file> --json PATH

Exit codes: 0 success, 2 validation failure (a ValidationError or an OSError
only), 3 invariant violation (a run's report counts some, or the decomposition
fails verify_decomposition); any other exception is a bug: a traceback, exit 1.
"""

from __future__ import annotations

import argparse
import sys

from .czd import decomposition_to_json
from .errors import ValidationError
from .field import LatticeFunction, Weight
from .harness import (
    _DECOMPOSE_KEYS,
    _EXPONENTS,
    _WEIGHT,
    ExperimentConfig,
    _decompose,
    _exponent_set,
    _make_weight,
    _q0,
    _read_csv,
    _stage_chunks,
    _weights,
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


def _load_config(path: str, extra=None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), extra)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    overrides = {k: str(v) for k, v in (("seed", args.seed), ("trials", args.trials))
                 if v is not None}
    if overrides:
        cfg = config_from_pairs(sorted({**dict(cfg.raw), **overrides}.items()))
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
    f = _read_csv(args.csv)
    bad = [] if 0 < args.q <= args.p else [f"norm needs 0 < q <= p; got q={args.q}, p={args.p}"]
    bad += _WEIGHT.problem("norm", "weight", args.weight, f.window)
    if bad:
        raise ValidationError(bad)
    w = _make_weight(args.weight, f.window) if args.weight else None
    print(repr(morrey_norm(f, args.p, args.q, w=w)))
    return EXIT_OK


def _cmd_weight_const(args) -> int:
    cfg = _load_config(args.config)
    if not _EXPONENTS.keys() <= cfg.params.keys():
        raise ValidationError(f"{cfg.experiment} does not read the exponent keys of weight-const")
    kind, win = WeightConditionKind(args.kind), cfg.window
    e = _exponent_set(cfg, kind)
    if kind.regime == "T21" and (e.s < 1.0) != (kind is WeightConditionKind.C22):
        raise ValidationError(f"C22 needs s<1 and C23 needs s>=1 (s={e.s})")
    if "weight_v" in cfg.params:
        v, w1, w2 = _weights(cfg, win, "v", "w1", "w2")
    else:  # T29: the weights u1, u2 take the places of w1, w2
        v, w1, w2 = Weight.constant(win, 1.0), *_weights(cfg, win, "u1", "u2")
    print(repr(two_weight_constant(kind, v, w1, w2, e, win)))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    cfg = _load_config(args.config, _DECOMPOSE_KEYS)
    if cfg.experiment != "CZ_INV":
        raise ValidationError(f"decompose needs a CZ_INV config; got {cfg.experiment}")
    win = cfg.window
    q0 = _q0(cfg.params, win)
    _, f, g, _ = next(_stage_chunks(cfg, win, n_trials=1))
    f, g = (LatticeFunction(win, x.values[0]) for x in (f, g))
    (d, bad, _), = _decompose(cfg, (cfg.params["kind"],), f, g, q0)
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
    except (ValidationError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
