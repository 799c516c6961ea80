"""Stopping-time forests on fixed spiked inputs: the czd check of `stopping_time`.

    python3 perfbench/forest.py stopping_time

In the timed `stopping_time` runs no cube can cross the first threshold of
a decomposition, whatever the data.  The 2-D threshold factor is
(4 * 18^2)^(1/t1 + 1/t2), while the functional of a cube Q inside Q0 is at
most (cells of 3Q0 / 9)^(1/t1 + 1/t2) times that of Q0, because 3Q lies in
3Q0 and holds at least 9 cells; 3Q0 has 48^2 or 96^2 cells there.  So those
runs return empty forests, and their checks would pass a `czd` that
skipped the walk.

This script builds the inputs of the `forest_probes` of the named workload
in perfbench/workloads.json, each a fixed uniform background with co-located
spikes in f and g.  It runs `cz_decompose` (theta1 = theta2 = 2) and
`cz_decompose_alpha` (r1 = r2 = 2 and the probe's alpha) on each, with Q0
the top cube at the origin.  It prints one JSON object that maps
"<probe>/<kind>" to the stopping cubes per level, the cap flag, gamma and
the threshold factor, the number of invariant violations that
`verify_decomposition` finds, and a SHA-256 of the forest's cubes and
exceptional cell sets as `decomposition_to_json` writes them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from morreylab.czd import (cz_decompose, cz_decompose_alpha, decomposition_to_json,
                           verify_decomposition)
from morreylab.dyadic import Cube, Window
from morreylab.field import LatticeFunction

HERE = Path(__file__).resolve().parent


def inputs(probe: dict) -> tuple[Window, LatticeFunction, LatticeFunction]:
    window = Window(probe["dim"], probe["level_min"], 0)
    rng = np.random.default_rng(probe["seed"])
    fv = rng.uniform(0.05, 1.0, window.shape)
    gv = rng.uniform(0.05, 1.0, window.shape)
    for index, size in probe["spikes"]:
        cell = tuple(i - lo for i, lo in zip(index, window.cell_index_lo))
        fv[cell] *= size
        gv[cell] *= size
    return window, LatticeFunction(window, fv), LatticeFunction(window, gv)


def summary(d, f, g, window: Window, t1: float, t2: float, alpha) -> dict:
    view = decomposition_to_json(d, window)
    forest = {key: view[key] for key in ("base", "levels", "e_cells", "cap_hit")}
    return {
        "stopping_cubes": {str(k): len(cubes) for k, cubes in sorted(d.levels.items())},
        "cap_hit": d.cap_hit,
        "gamma": d.gamma,
        "factor": d.factor,
        "violations": len(verify_decomposition(d, f, g, window, t1, t2, alpha=alpha)),
        "forest_sha256": hashlib.sha256(
            json.dumps(forest, sort_keys=True).encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    table = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    out = {}
    for name, probe in table["workloads"][argv[1]]["forest_probes"].items():
        window, f, g = inputs(probe)
        q0 = Cube(0, (0,) * probe["dim"])
        out[f"{name}/cz"] = summary(cz_decompose(f, g, q0, 2.0, 2.0),
                                    f, g, window, 2.0, 2.0, None)
        alpha = probe["alpha"]
        out[f"{name}/cz_alpha"] = summary(cz_decompose_alpha(f, g, q0, 2.0, 2.0, alpha),
                                          f, g, window, 2.0, 2.0, alpha)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
