"""The single-key sweep: every shipped config with one key set to an odd value.

    python tests/key_sweep.py

For each ``configs/*.cfg`` and each key its experiment reads besides the window,
level, depth, refinements and trials keys (but with the seed), and for each value
in ``ODD``, it parses the edited config and runs it with two trials.  It prints the
number of runs per outcome (exit 0, exit 3, ``ValidationError`` or the name of any
other exception) and then each distinct (experiment, raise site, message) triple of
an exception that is not a ``ValidationError``.  It exits 1 if there is one: bad
input must end in a ``ValidationError`` (exit 2 of the command line), so any other
exception is a fault of the program.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
ODD = ("0", "-1", "nan", "inf", "-inf", "1e308", "abc", "1,2", "pow:-5", "const:0", "0.5", "5")


def _raise_site(exc: BaseException) -> str:
    """module.function (qualified from Python 3.11 on) of the frame that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def sweep() -> tuple[Counter, dict]:
    """(runs per outcome, {(experiment, raise site, message): runs}) of the sweep."""
    from morreylab.errors import ValidationError
    from morreylab.harness import _COMMON, config_from_pairs, parse_config, run_experiment

    outcomes, faults = Counter(), Counter()
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        raw = dict(cfg.raw, trials="2")
        for key in sorted(set(cfg.params) - set(_COMMON) | {"seed"}):
            for value in ODD:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        report = run_experiment(config_from_pairs({**raw, key: value}.items()))
                    outcomes["exit 3" if report.summary["invariant_violations"] else "exit 0"] += 1
                except ValidationError:
                    outcomes["ValidationError"] += 1
                except Exception as exc:  # noqa: BLE001 - the sweep reports every other kind
                    outcomes[type(exc).__name__] += 1
                    faults[(cfg.experiment, _raise_site(exc), f"{type(exc).__name__}: {exc}")] += 1
    return outcomes, faults


def main() -> int:
    outcomes, faults = sweep()
    print(f"{sum(outcomes.values())} runs: "
          + ", ".join(f"{n} {outcome}" for outcome, n in sorted(outcomes.items())))
    for (experiment, site, message), n in sorted(faults.items()):
        print(f"{n:4d}  {experiment}  {site}  {message}")
    print(f"{sum(faults.values())} runs in {len(faults)} triples end in an exception "
          "other than ValidationError")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
