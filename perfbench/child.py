"""One `morreylab run` in a fresh process, timed and optionally traced.

    python3 perfbench/child.py CONFIG OUT_PREFIX STAMP_JSON MODE

Runs ``morreylab.cli.main(["run", CONFIG, "--out", OUT_PREFIX])`` and writes
STAMP_JSON with the CLOCK_MONOTONIC times at which the config was parsed and
the report files were written, the machine's speed while the process set up
and while it ran (see ``Speedometer``), and the library versions.  MODE is
``run``, ``trace`` (also record the per-layer metrics of ``tracer.Tracer``)
or ``setup`` (stop once the config is parsed, to sample set-up time alone).
The stamps come from wrappers around ``cli.parse_config`` and
``cli.emit_report``; the sources are not touched.
"""

from __future__ import annotations

import json
import platform
import signal
import statistics
import sys
import time

SAMPLE_INTERVAL_S = 0.05
BURST = 5                   # kernel samples taken in a row after set-up and after the run


class _SetupDone(BaseException):
    """Raised after parsing in setup mode; the CLI catches only Exception subclasses."""


class Speedometer:
    """Times a short fixed kernel every SAMPLE_INTERVAL_S, from a SIGALRM handler.

    The kernel mixes small numpy passes with interpreter work, like
    morreylab's per-cube loops.  The machine's speed drifts on a scale of
    about a second, so the mean kernel time over a window tells how fast the
    machine was during it.  The handler runs in the main thread, between
    bytecodes; the time it takes is recorded, so that the caller can take
    it out of the window's wall time.
    """

    def __init__(self, numpy):
        self.a = numpy.linspace(0.0, 1.0, 512)
        self.samples: list[tuple[float, float, float]] = []   # (end, kernel s, handler s)
        self.running = False
        self.tracer = None      # told of each sample's time, to keep it out of the spans

    def kernel(self) -> float:
        a = self.a
        start = time.perf_counter()
        acc = 0.0
        for i in range(200):
            acc += float((a[i % 64:] * a[:512 - i % 64]).sum())
            for j in range(20):
                acc += j * 0.5
        return time.perf_counter() - start

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        took = self.kernel()
        self.samples.append((time.monotonic(), took, time.perf_counter() - start))
        if self.tracer is not None:
            self.tracer.exclude(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.running = False

    def burst(self) -> None:
        """BURST samples in a row, with the timer held so that none nests in another."""
        running = self.running
        self.stop()
        for _ in range(BURST):
            self._sample()
        if running:
            self.start()

    def kernel_s(self, lo: float, hi: float) -> float:
        """Mean kernel time of the samples that ended in (lo, hi]."""
        return statistics.mean(s[1] for s in self.samples if lo < s[0] <= hi)

    def handler_s(self, lo: float, hi: float) -> float:
        """Handler time of the samples that ended in (lo, hi]."""
        return sum(s[2] for s in self.samples if lo < s[0] <= hi)


def main(argv: list[str]) -> int:
    config, out, stamp_path, mode = argv[1:5]
    import numpy
    speed = Speedometer(numpy)
    speed.start()
    from morreylab import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        speed.tracer = tracer
    stamps: dict = {}
    parse_config, emit_report = cli.parse_config, cli.emit_report

    def parsed(*args, **kwargs):
        result = parse_config(*args, **kwargs)
        stamps["setup_end"] = time.monotonic()
        speed.burst()
        stamps["parsed"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return result

    def emitted(*args, **kwargs):
        result = emit_report(*args, **kwargs)
        stamps["emitted"] = time.monotonic()
        speed.stop()
        speed.burst()
        return result

    cli.parse_config, cli.emit_report = parsed, emitted
    try:
        rc = cli.main(["run", config, "--out", out])
    except _SetupDone:
        rc = 0
    speed.stop()
    # Set-up speed: samples up to the burst after parsing; run speed: samples
    # of the run and the burst after it.  Handler time inside each window is
    # taken out of that window's wall time.
    stamps["setup_kernel_s"] = speed.kernel_s(0.0, stamps["parsed"])
    stamps["setup_handler_s"] = speed.handler_s(0.0, stamps["setup_end"])
    if "emitted" in stamps:
        stamps["run_kernel_s"] = speed.kernel_s(stamps["parsed"], float("inf"))
        stamps["run_handler_s"] = speed.handler_s(stamps["parsed"], stamps["emitted"])
    stamps.update(
        rc=rc,
        python=platform.python_version(),
        numpy=numpy.__version__,
        layers=tracer.metrics() if tracer else None,
    )
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
