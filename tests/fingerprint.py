"""The output fingerprint: one sha256 over the outputs of every shipped config.

    python tests/fingerprint.py

It writes, into a temporary directory, the CSV and JSON report of `morreylab
run` on every ``configs/*.cfg``, the JSON of `morreylab decompose
configs/czd_decompose.cfg --json FILE` and the stdout of `morreylab
weight-const C29|C211 configs/t28_strong_maximal.cfg` (41 files), and prints
the sha256 of the sorted, newline-terminated list of the sha256 hex digests
of their contents.  A change that must keep every number, such as a speedup,
prints the same value before and after it.  Like ``tests/golden/``, the value
holds for one platform (see ``regen_golden.py``).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from regen_golden import CONFIGS, DECOMPOSE_CONFIG, ROOT, WEIGHT_CONST, WEIGHT_CONST_CONFIG, _cli


def outputs(out_dir: Path) -> list[bytes]:
    """The contents of the fingerprinted files, written into out_dir."""
    from morreylab.harness import emit_report, parse_config, run_experiment

    paths = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        report = run_experiment(parse_config(path.read_text(encoding="utf-8")))
        paths += emit_report(report, out_dir / path.stem)
    decomposed = out_dir / "decompose.json"
    _cli(["decompose", str(CONFIGS / DECOMPOSE_CONFIG), "--json", str(decomposed)])
    paths.append(decomposed)
    texts = [_cli(["weight-const", kind, str(CONFIGS / WEIGHT_CONST_CONFIG)])
             for kind in WEIGHT_CONST]
    return [Path(p).read_bytes() for p in paths] + [t.encode("utf-8") for t in texts]


def fingerprint(contents: list[bytes]) -> str:
    digests = sorted(hashlib.sha256(c).hexdigest() for c in contents)
    return hashlib.sha256("".join(d + "\n" for d in digests).encode("ascii")).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        contents = outputs(Path(tmp))
    print(f"{fingerprint(contents)}  ({len(contents)} files)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
