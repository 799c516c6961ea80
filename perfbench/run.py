#!/usr/bin/env python3
"""Benchmark of `morreylab run`: end-to-end times per workload, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload trial_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 60 --trace 1

Each workload (perfbench/workloads.json) is a shipped config plus overrides,
with the seed written into the generated config.  Every run of it is a real
`morreylab run` in a fresh process (perfbench/child.py), so per-process caches
start cold as they do for users.  One child runs at a time, single-threaded,
in a closed loop; with several workloads the children go round-robin.

Before timing, each workload runs once at the default seed and its CSV is
compared with perfbench/reference/<workload>.csv.  A workload with
`forest_probes` (stopping_time) also runs perfbench/forest.py and compares
its stopping-time forests with perfbench/reference/<workload>.forest.json.
Every child must exit 0, report no invariant violations, and write the same
CSV and JSON bytes as the other children of the same seed; a child that
does not counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: report_s (parsed
config to both report files written) and rows_per_s, setup_s (process start
to parsed config) and peak_rss_mb, each the median over the timed children.
On a shared 2-core VM the machine's speed changed by up to 2x within
seconds while CPU time stayed equal to wall time.  So each child times a
short fixed kernel every 50 ms while it runs (child.Speedometer),
and its times are scaled by SAMPLE_REF_S over the mean kernel time of the
same span: set-up by the samples of set-up, the run by those of the run.
The time the samples take is left out of the span.  The unscaled wall
times are printed too.
--trace 1 alternates untraced and traced children and prints the per-layer
metrics of the traced ones (perfbench/tracer.py): medians for times, scaled
by each traced child's own samples, and exact, asserted-equal values for
counts, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
MIN_SETUPS = 9              # set-up samples per workload; short runs top up with set-up-only children
DEADLINE_S = 170.0          # hard cap per workload of one invocation
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
VALUE_COLUMNS = ("lhs", "rhs", "ratio")
# Times are scaled to a machine on which one child.Speedometer kernel takes SAMPLE_REF_S.
SAMPLE_REF_S = 0.0013


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def make_config(spec: dict, seed: int) -> str:
    """The shipped config with the workload's overrides and the seed applied."""
    pairs: dict[str, str] = {}
    for line in (ROOT / "configs" / spec["config"]).read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, _, value = body.partition("=")
            pairs[key.strip()] = value.strip()
    pairs.update(spec["overrides"])
    pairs["seed"] = str(seed)
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


class Runner:
    """Launches children into a scratch directory and checks what they write."""

    def __init__(self, work: Path, table: dict, deadline: float):
        self.work = work
        self.table = table
        self.deadline = deadline
        self.env = child_env()
        self.count = 0
        self.digests: dict[tuple, str] = {}

    def run(self, workload: str, seed: int, mode: str = "run") -> dict:
        """One child in MODE run, trace or setup (see child.py)."""
        self.count += 1
        stem = self.work / f"{self.count:04d}_{workload}_{seed}"
        cfg = stem.with_suffix(".cfg")
        cfg.write_text(make_config(self.table["workloads"][workload], seed), encoding="utf-8")
        stamp = stem.with_suffix(".stamp.json")
        cmd = [sys.executable, str(HERE / "child.py"), str(cfg), str(stem), str(stamp), mode]
        rec = {"workload": workload, "seed": seed, "mode": mode, "problems": []}
        with open(stem.with_suffix(".log"), "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            status, usage = self._wait(proc)
        if status != 0:
            tail = stem.with_suffix(".log").read_text(errors="replace").strip().splitlines()[-3:]
            rec["problems"].append(f"exit status {status}: {' | '.join(tail)}")
            return rec
        stamps = json.loads(stamp.read_text(encoding="utf-8"))
        setup_wall_s = stamps["setup_end"] - start - stamps["setup_handler_s"]
        rec.update(setup_wall_s=setup_wall_s, setup_kernel_s=stamps["setup_kernel_s"],
                   setup_s=setup_wall_s * SAMPLE_REF_S / stamps["setup_kernel_s"])
        if mode == "setup":
            return rec
        csv_text = Path(f"{stem}.csv").read_text(encoding="utf-8")
        json_text = Path(f"{stem}.json").read_text(encoding="utf-8")
        summary = json.loads(json_text)
        report_wall_s = stamps["emitted"] - stamps["parsed"] - stamps["run_handler_s"]
        rec.update(
            report_wall_s=report_wall_s,
            report_s=report_wall_s * SAMPLE_REF_S / stamps["run_kernel_s"],
            run_kernel_s=stamps["run_kernel_s"],
            rss_mb=usage.ru_maxrss * 1024 / 1e6,
            rows=len(csv_text.splitlines()) - 1,
            csv=csv_text,
            layers=stamps["layers"],
            versions=(stamps["python"], stamps["numpy"]),
        )
        if summary["invariant_violations"] != 0:
            rec["problems"].append(f"invariant_violations = {summary['invariant_violations']}")
        digest = hashlib.sha256((csv_text + "\0" + json_text).encode()).hexdigest()
        first = self.digests.setdefault((workload, seed), digest)
        if digest != first:
            rec["problems"].append("CSV/JSON differ from an earlier run of the same seed")
        return rec

    def forest(self, workload: str) -> list[str]:
        """Problems of the forest probes (forest.py) against reference/<workload>.forest.json."""
        out, log = self.work / f"{workload}_forest.json", self.work / f"{workload}_forest.log"
        with open(out, "wb") as stdout, open(log, "wb") as stderr:
            proc = subprocess.Popen([sys.executable, str(HERE / "forest.py"), workload],
                                    stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
            status, _ = self._wait(proc)
        if status != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            return [f"forest probe: exit status {status}: {' | '.join(tail)}"]
        got = json.loads(out.read_text(encoding="utf-8"))
        want = json.loads((HERE / "reference" / f"{workload}.forest.json").read_text(encoding="utf-8"))
        if got.keys() != want.keys():
            return [f"forest probe: decompositions {sorted(got)}, reference has {sorted(want)}"]
        problems = []
        for key, ref in want.items():
            for field, value in ref.items():
                x = got[key].get(field)
                if isinstance(value, float) and isinstance(x, float):
                    ok = x == value or abs(x - value) <= self.table["rtol"] * max(abs(x), abs(value))
                else:
                    ok = x == value
                if not ok:
                    problems.append(f"forest probe {key} {field}: {x} vs reference {value}")
        return problems

    def _wait(self, proc):
        """Reap the child with its resource usage; kill it at the deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return f"{proc.returncode} (killed at the deadline)", usage
            time.sleep(0.01)


def compare_csv(got: str, want: str, rtol: float) -> list[str]:
    """Differences of a report CSV from the reference beyond the relative tolerance."""
    g_rows = list(csv.DictReader(io.StringIO(got)))
    w_rows = list(csv.DictReader(io.StringIO(want)))
    if len(g_rows) != len(w_rows) or (g_rows and g_rows[0].keys() != w_rows[0].keys()):
        return [f"{len(g_rows)} rows, reference has {len(w_rows)} (or the columns differ)"]
    problems = []
    for i, (g, w) in enumerate(zip(g_rows, w_rows)):
        for col, want_text in w.items():
            if col not in VALUE_COLUMNS:
                ok = g[col] == want_text
            else:
                x, y = float(g[col]), float(want_text)
                ok = x == y or abs(x - y) <= rtol * max(abs(x), abs(y))
            if not ok:
                problems.append(f"row {i} {col}: {g[col]} vs reference {want_text}")
    return problems[:5]


def end_to_end(recs: list[dict], setups: list[float]) -> dict:
    report_s = statistics.median(r["report_s"] for r in recs)
    return {
        "report_s": report_s,
        "rows_per_s": recs[0]["rows"] / report_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in recs),
    }


def per_layer(plain: list[dict], traced: list[dict], names: list[str]) -> tuple[dict, list]:
    """Medians of traced times, scaled as report_s is; counts must repeat exactly."""
    out, problems = {}, []
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = (statistics.median(r["report_s"] for r in traced)
                         / statistics.median(r["report_s"] for r in plain) - 1.0)
            continue
        values = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            out[name] = statistics.median(
                v * SAMPLE_REF_S / r["run_kernel_s"] for v, r in zip(values, traced))
        elif len(set(values)) == 1:
            out[name] = values[0]
        else:
            out[name] = values[0]
            problems.append(f"{name} did not repeat: {values}")
    return out, problems


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    table = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    names = list(table["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=table["default_seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "morreylab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no morreylab sources and configs under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = names if args.workload == "all" else [args.workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        runner = Runner(work, table, started + DEADLINE_S * len(workloads))
        return measure(runner, table, workloads, args, spec, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(runner: Runner, table: dict, workloads: list[str], args, spec: dict,
            units: dict) -> int:
    records: dict[str, list] = {w: [] for w in workloads}
    problems: dict[str, list] = {w: [] for w in workloads}
    attempted = failed = 0

    def note(rec: dict) -> None:
        nonlocal attempted, failed
        attempted += 1
        if rec["problems"]:
            failed += 1
            problems[rec["workload"]] += rec["problems"]

    for w in workloads:   # the reference check, untimed; it also warms the file cache
        rec = runner.run(w, table["default_seed"])
        if not rec["problems"]:
            want = (HERE / "reference" / f"{w}.csv").read_text(encoding="utf-8")
            rec["problems"] += compare_csv(rec["csv"], want, table["rtol"])
            if "forest_probes" in table["workloads"][w]:
                rec["problems"] += runner.forest(w)
        note(rec)

    modes = ("run", "trace") if args.trace else ("run",)
    start = time.monotonic()
    rounds = 0
    while True:
        for w in workloads:
            for mode in modes:
                rec = runner.run(w, args.seed, mode)
                note(rec)
                records[w].append(rec)
        rounds += 1
        elapsed = time.monotonic() - start
        if (rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds
                or time.monotonic() > runner.deadline):
            break
    if not args.trace:
        for w in workloads:
            for _ in range(MIN_SETUPS - len(records[w])):
                rec = runner.run(w, args.seed, "setup")
                note(rec)
                records[w].append(rec)

    metrics: dict[str, float] = {}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    versions = ("?", "?")
    for w in workloads:
        good = [r for r in records[w] if not r["problems"]]
        plain = [r for r in good if r["mode"] == "run"]
        traced = [r for r in good if r["mode"] == "trace"]
        if not plain or (args.trace and not traced):
            print(f"perfbench: {w}: no successful run: {problems[w][:3]}", file=sys.stderr)
            return 1
        versions = plain[0]["versions"]
        if args.trace:
            values, bad = per_layer(plain, traced, names)
            calls = traced[0]["layers"]
            for layer in table["workloads"][w]["exercises"]:
                if not any(v for k, v in calls.items()
                           if k.startswith(layer + ".") and k.endswith(".calls")):
                    bad.append(f"layer {layer} recorded no calls")
            if bad:
                failed += 1
                problems[w] += bad
        else:
            values = end_to_end(plain, [r["setup_s"] for r in good])
        times = sorted(r["report_s"] for r in plain)
        print(f"{w}: seed {args.seed}; {len(plain)} untraced runs, report_s from {times[0]:.4f}"
              f" to {times[-1]:.4f} s; {len(traced)} traced runs; one reference check at seed"
              f" {table['default_seed']}")
        print(f"  wall clock, unscaled: report {statistics.median(r['report_wall_s'] for r in plain):.4f} s,"
              f" setup {statistics.median(r['setup_wall_s'] for r in good):.4f} s;"
              f" speed kernel {statistics.median(r['run_kernel_s'] for r in plain):.6f} s"
              f" (scaled to {SAMPLE_REF_S} s)")
        for name in names:
            print(f"  {name:40s} {values[name]:.6g} {units[name]}")
        if args.trace:
            total = statistics.median(r["report_s"] for r in traced)
            shares = {layer: values[f"{layer}.self_s"] / total for layer in LAYERS}
            shares["emit"] = values["harness.emit_s"] / total
            print("  layer shares of report_s: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        for p in problems[w][:5]:
            print(f"  PROBLEM: {p}")
        prefix = "" if len(workloads) == 1 else f"{w}/"
        metrics.update({f"{prefix}{n}": values[n] for n in names})

    print(f"machine: python {versions[0]}, numpy {versions[1]}, nproc {os.cpu_count()}, cpu {cpu_model()}; "
          f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n.rsplit("/", 1)[-1]]}
                    for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
