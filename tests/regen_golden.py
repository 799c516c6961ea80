"""Golden reports: what they cover, how they are produced, and their regeneration.

``tests/golden/`` holds the CSV and JSON report of every ``configs/*.cfg``,
the stdout of ``morreylab weight-const`` for the kinds in ``WEIGHT_CONST``,
the JSON that ``morreylab decompose`` writes for ``DECOMPOSE_CONFIG`` (an
empty forest), the forests of both stopping-time decompositions on
``SPIKED_1D`` (non-empty ones), and ``platform.json``, the fingerprint of
the platform that produced them (bit-level results depend on the Python
and numpy versions, the BLAS build and the SIMD features numpy dispatches
to).
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

# `morreylab decompose --json` output kept for this config
DECOMPOSE_CONFIG = "czd_decompose.cfg"

# A uniform background on [0, 1) at level_min -14 with co-located spikes in
# f and g, ((cell index,), factor); the stopping cubes of both
# decompositions of Q0 = [0, 1) cluster around the spikes.
SPIKED_1D = {"level_min": -14, "seed": 0, "alpha": 0.1,
             "spikes": (((9000,), 1e6), ((3000,), 1e5), ((12000,), 3e4))}
SPIKED_1D_NAME = "czd_spiked_1d.json"


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


def spiked_forests() -> dict:
    """decomposition_to_json of cz_decompose (theta1 = theta2 = 2) and of
    cz_decompose_alpha (r1 = r2 = 2, SPIKED_1D's alpha) on the spiked input."""
    import numpy as np

    from morreylab.czd import cz_decompose, cz_decompose_alpha, decomposition_to_json
    from morreylab.dyadic import Cube, Window
    from morreylab.field import LatticeFunction

    window = Window(1, SPIKED_1D["level_min"], 0)
    rng = np.random.default_rng(SPIKED_1D["seed"])
    fv = rng.uniform(0.05, 1.0, window.shape)
    gv = rng.uniform(0.05, 1.0, window.shape)
    for index, size in SPIKED_1D["spikes"]:
        cell = tuple(i - lo for i, lo in zip(index, window.cell_index_lo))
        fv[cell] *= size
        gv[cell] *= size
    f, g = LatticeFunction(window, fv), LatticeFunction(window, gv)
    q0 = Cube(0, (0,))
    return {
        "cz": decomposition_to_json(cz_decompose(f, g, q0, 2.0, 2.0), window),
        "cz_alpha": decomposition_to_json(
            cz_decompose_alpha(f, g, q0, 2.0, 2.0, SPIKED_1D["alpha"]), window),
    }


def _cli(argv: list[str]) -> str:
    from morreylab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"morreylab {' '.join(argv[:2])} exited {code}")
    return buf.getvalue()


def produce(out_dir: Path) -> list[str]:
    """Write every golden output into out_dir; returns the file names."""
    from morreylab.harness import emit_report, parse_config, run_experiment

    names = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        report = run_experiment(parse_config(path.read_text(encoding="utf-8")))
        emit_report(report, out_dir / path.stem)
        names += [path.stem + ".csv", path.stem + ".json"]
    for kind in WEIGHT_CONST:
        name = f"weight_const_{kind}.txt"
        text = _cli(["weight-const", kind, str(CONFIGS / WEIGHT_CONST_CONFIG)])
        (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
        names.append(name)
    name = f"decompose_{Path(DECOMPOSE_CONFIG).stem}.json"
    _cli(["decompose", str(CONFIGS / DECOMPOSE_CONFIG), "--json", str(out_dir / name)])
    names.append(name)
    # compact: the exceptional sets list about 16 000 cells per forest
    (out_dir / SPIKED_1D_NAME).write_text(
        json.dumps(spiked_forests(), sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    names.append(SPIKED_1D_NAME)
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
