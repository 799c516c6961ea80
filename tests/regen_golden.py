"""Golden reports: what they cover, how they are produced, and their regeneration.

``tests/golden/`` holds the CSV and JSON report of every ``configs/*.cfg``
plus the stdout of ``morreylab weight-const`` for the kinds in
``WEIGHT_CONST``, and ``platform.json``, the fingerprint of the platform
that produced them (bit-level results depend on the Python and numpy
versions, the BLAS build and the SIMD features numpy dispatches to).
``test_golden.py`` compares fresh outputs against them.

A change that moves numbers on purpose regenerates them with

    python tests/regen_golden.py

which rewrites only ``tests/golden/`` and prints every file that changed
with its largest relative change, for the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "golden"
PLATFORM_FILE = "platform.json"

# weight-const kinds whose stdout is kept, all on this config
WEIGHT_CONST = ("C29", "C211")
WEIGHT_CONST_CONFIG = "t28_strong_maximal.cfg"


def platform_fingerprint() -> dict:
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as features
        except ImportError:
            features = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # the build info is no stable numpy API
        blas = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def produce(out_dir: Path) -> list[str]:
    """Write every golden output into out_dir; returns the file names."""
    from morreylab import cli
    from morreylab.harness import emit_report, parse_config, run_experiment

    names = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        report = run_experiment(parse_config(path.read_text(encoding="utf-8")))
        emit_report(report, out_dir / path.stem)
        names += [path.stem + ".csv", path.stem + ".json"]
    for kind in WEIGHT_CONST:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["weight-const", kind, str(CONFIGS / WEIGHT_CONST_CONFIG)])
        if code != 0:
            raise RuntimeError(f"weight-const {kind} exited {code}")
        name = f"weight_const_{kind}.txt"
        (out_dir / name).write_text(buf.getvalue(), encoding="utf-8", newline="\n")
        names.append(name)
    return names


def _numbers(text: str) -> list[float]:
    out = []
    for token in text.replace(",", " ").replace(":", " ").split():
        token = token.strip("[]{}\"")
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def largest_relative_change(old: str, new: str) -> float:
    """Largest relative change between the numbers of two outputs, in order;
    inf when they hold different counts of numbers."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x != y:
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    old = {p.name: p.read_text(encoding="utf-8") for p in GOLDEN.iterdir() if p.is_file()}
    for name in old:
        (GOLDEN / name).unlink()
    names = produce(GOLDEN)
    (GOLDEN / PLATFORM_FILE).write_text(
        json.dumps(platform_fingerprint(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n")
    for name in sorted(set(names) | set(old) - {PLATFORM_FILE}):
        if name not in old:
            print(f"added   {name}")
        elif name not in names:
            print(f"removed {name}")
        else:
            new = (GOLDEN / name).read_text(encoding="utf-8")
            if new != old[name]:
                print(f"changed {name}: largest relative change "
                      f"{largest_relative_change(old[name], new):.3g}")
    print(f"wrote {len(names)} golden outputs and {PLATFORM_FILE} to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
