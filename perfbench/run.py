"""The repository benchmark: one workload, timed end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload place-synth4 --seed 1 \\
        --seconds 30 --trace 0

One process, one thread, a closed loop with one caller: each operation
starts when the previous one (and its checks) finished.  The run

1. spawns ``SETUP_PROBES`` fresh interpreters, one after another, that
   import ``repro`` and generate the inputs; ``setup_s`` is the median
   time from spawn to inputs ready, corrected for the shared host's
   speed by a :class:`hostspeed.SpeedProbe` running in this process
   meanwhile;
2. runs one untimed warm-up operation on the tiny inputs of the
   self-test, then sets up the full inputs in this process and computes
   the independent reference once;
3. repeats the operation until ``--seconds`` would be exceeded (at least
   once) and reports medians.  Untraced operations run under the
   probe, and ``wall_s`` is the median of their corrected wall times.
   With ``--trace 1`` it alternates untraced and traced operations,
   reports the per-layer metrics of the traced ones (raw, not
   corrected), and writes the spans to ``perfbench/out/``.

Every operation's outputs are checked (see ``checks.py``); a failed
check or an exception counts in ``failed``.  The last line of standard
output is the JSON result; the lines before it are the human-readable
table with units and directions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import SETUP_SLOWDOWN_EXPONENT, SpeedProbe
from tracing import ROOT as ROOT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

#: end-to-end metric -> (unit, better).  fail_frac is printed in the table
#: but, being 0 on a healthy run, travels in the result line as
#: failed/attempted
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "comm_messages": ("count", "lower"),
    "comm_words": ("count", "lower"),
    "model_speedup": ("ratio", "higher"),
    "chosen_cost": ("cost", "lower"),
}
PER_LAYER = {
    "lang.parse_ms": "ms", "analysis.deps_ms": "ms",
    "placement.dfg_ms": "ms", "placement.propagate_ms": "ms",
    "placement.solutions": "count", "placement.comms_ms": "ms",
    "placement.rank_ms": "ms", "placement.annotate_ms": "ms",
    "placement.search_ms": "ms", "placement.used_ratio": "ratio",
    "lang.oracle_ms": "ms", "lang.oracle_steps": "count",
    "runtime.compute_ms": "ms", "runtime.rank_imbalance": "ratio",
    "mesh.partition_ms": "ms", "mesh.schedule_ms": "ms",
    "mesh.migrate_ms": "ms", "mesh.moved_entities": "count",
    "runtime.checkpoint_ms": "ms", "runtime.checkpoints": "count",
    "runtime.checkpoint_words": "count", "runtime.log_entries": "count",
    "runtime.replayed_messages": "count", "runtime.halo_ms": "ms",
    "runtime.halo_calls": "count", "analysis.commcheck_ms": "ms",
    "driver.verify_ms": "ms", "trace.unattributed_ms": "ms",
    "trace.wall_s": "s", "trace.overhead_ms": "ms",
}
#: per-layer timing metric -> the tracer layer whose self time it is
LAYER_OF = {name: name[:-3] for name, unit in PER_LAYER.items()
            if unit == "ms" and not name.startswith("trace.")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load(name: str, scale: str):
    """Import the program and return the named workload."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    return WORKLOADS[name](scale)


def probe_setup(args, probe: SpeedProbe) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to its inputs being
    ready, raw and at nominal host speed.

    This process probes the host while it waits for the child, so the
    probes' time is not on the child's clock.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    with probe.sampling():
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    seconds = json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start
    return seconds, probe.scaled(seconds, SETUP_SLOWDOWN_EXPONENT)


def _null_span(name: str, layer: str):
    return contextlib.nullcontext()


class Runner:
    def __init__(self, workload, seed: int):
        self.wl = workload
        self.inputs = workload.setup(seed)
        self.ref = workload.reference(self.inputs)
        self.attempted = 0
        self.failures: list[list[str]] = []
        #: outcome of the latest untraced operation that returned one
        self.last = None

    def once(self, tracer=None, probe=None):
        """One operation, probed for host speed if ``probe`` is given;
        returns (seconds, outcome or None)."""
        gc.collect()
        span = tracer.span if tracer is not None else _null_span
        sampling = (probe.sampling() if probe is not None
                    else contextlib.nullcontext())
        failed = self.wl.preflight(self.inputs)
        with sampling:
            start = time.perf_counter()
            try:
                with span(ROOT_SPAN, ROOT_SPAN):
                    outcome = self.wl.operate(self.inputs, self.ref, span)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                outcome = None
                failed.append(f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        if outcome is not None:
            failed += outcome.get("failures", [])
            failed += self.wl.check(self.inputs, self.ref, outcome)
            if tracer is None:
                self.last = outcome
        self.attempted += 1
        if failed:
            self.failures.append(failed)
        return seconds, outcome


def layer_metrics(wl, tracer, outcome, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    self_ms = tracer.layer_self_ms()
    out = {name: self_ms.get(layer, 0.0) for name, layer in LAYER_OF.items()}
    counts = wl.layer_counts(outcome) if outcome is not None else {}
    out.update({name: 0.0 for name, unit in PER_LAYER.items()
                if unit != "ms" and name not in out})
    out.update(counts)
    out["placement.solutions"] = float(
        tracer.counters.get("Propagator.solutions.yields", 0))
    out["runtime.halo_calls"] = float(tracer.calls("runtime.halo"))
    out["runtime.checkpoint_words"] = float(
        tracer.counters.get("runtime.checkpoint_words", 0))
    out["trace.unattributed_ms"] = self_ms.get(ROOT_SPAN, 0.0)
    out["trace.wall_s"] = wall_s
    return out


def measure(runner: Runner, probe: SpeedProbe, seconds: float,
            trace: bool):
    """Closed loop until the budget would be exceeded; returns the
    untraced operations' (raw seconds, corrected seconds, slowdown) and
    the traced operations' per-layer metrics."""
    untraced: list[tuple[float, float, float]] = []
    traced: list[dict[str, float]] = []
    last_tracer = None
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        secs = runner.once(probe=probe)[0]
        untraced.append((secs, probe.corrected(secs), probe.slowdown()))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                tsecs, toutcome = runner.once(tracer)
            traced.append(layer_metrics(runner.wl, tracer, toutcome, tsecs))
            last_tracer = tracer
        lap = time.monotonic() - t0
        if time.monotonic() - start + lap > seconds:
            return untraced, traced, last_tracer


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.probe_setup:
        wl = load(args.workload, args.scale)
        wl.setup(args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    probe = SpeedProbe()
    setups = [probe_setup(args, probe) for _ in range(SETUP_PROBES)]
    wl = load(args.workload, args.scale)
    # warm-up on the tiny inputs: lazy imports and first-call costs are
    # paid outside the timed loop for a fraction of a full operation
    warm = Runner(load(args.workload, "tiny"), args.seed)
    warm.once()
    runner = Runner(wl, args.seed)
    untraced, traced, tracer = measure(runner, probe, args.seconds,
                                       bool(args.trace))
    last = runner.last
    failures = warm.failures + runner.failures
    attempted = warm.attempted + runner.attempted
    if last is None:
        print("perfbench: every operation failed:\n"
              + "\n".join(f[0] for f in failures), file=sys.stderr)
        return 1

    raw_s, wall_s, slowdown = (statistics.median(col)
                               for col in zip(*untraced))
    # the probe's memory is resident for the whole run; it is not the
    # workload's
    raw_setup_s, setup_s = (statistics.median(col) for col in zip(*setups))
    e2e = {"wall_s": wall_s, "setup_s": setup_s,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
               - probe.rss_mb}
    e2e.update(wl.metrics(runner.inputs, last))
    applies = set(e2e)
    for name in END_TO_END:
        # comm_* and model_speedup do not apply without an SPMD run;
        # they read 1 so every workload carries every metric
        e2e.setdefault(name, 1.0)
    failed = len(failures)
    fail_frac = failed / attempted

    print(f"{wl.name} seed={args.seed} scale={args.scale}: "
          f"{len(untraced)} timed operation(s) + 1 tiny warm-up, "
          f"{attempted} checked, {failed} failed; raw wall time "
          f"{raw_s:.4g} s at a median host slowdown of {slowdown:.3f}, "
          f"raw setup time {raw_setup_s:.4g} s")
    for failure in failures[:3]:
        print("  FAILED: " + "; ".join(failure))
    print(f"  {'metric':<16}{'value':>16}  {'unit':<7}better")
    for name, (unit, better) in END_TO_END.items():
        shown = f"{e2e[name]:.6g}" if name in applies else "n/a"
        print(f"  {name:<16}{shown:>16}  {unit:<7}{better}")
    print(f"  {'fail_frac':<16}{fail_frac:>16.6g}  {'ratio':<7}lower")

    if args.trace:
        metrics = per_layer(traced, raw_s)
        write_trace(tracer, wl.name, args.seed, metrics)
        for name, value in metrics.items():
            print(f"  {name:<28}{value:>14.6g}  {PER_LAYER[name]}")
        result_metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                          for name, value in metrics.items()}
    else:
        result_metrics = {name: {"value": e2e[name], "unit": unit}
                          for name, (unit, _b) in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def per_layer(traced: list[dict[str, float]],
              untraced_raw_s: float) -> dict[str, float]:
    """Median of every per-layer metric over the traced operations."""
    out = {name: statistics.median(m[name] for m in traced)
           for name in PER_LAYER if name != "trace.overhead_ms"}
    out["trace.overhead_ms"] = (out["trace.wall_s"]
                                - untraced_raw_s) * 1e3
    return {name: out[name] for name in PER_LAYER}


def write_trace(tracer, name: str, seed: int, metrics: dict) -> None:
    """Spans of the last traced operation, as JSON and Chrome trace."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    with open(stem + ".spans.json", "w") as fh:
        json.dump(tracer.to_json({"workload": name, "seed": seed,
                                  "per_layer": metrics}), fh)
    with open(stem + ".chrome.json", "w") as fh:
        json.dump(tracer.to_chrome(), fh)


if __name__ == "__main__":
    sys.exit(main())
