"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It uses synthetic n=2, TESTIV on an 8x8 grid and HEAT on a 2000-node
mesh, and asserts that

* the command prints every metric named in ``BENCHMARK.json`` with its
  unit, for both ``--trace 0`` and ``--trace 1``, and checks clean;
* the counts (solutions, messages, words, checkpoints, replayed
  messages, moved entities, ...) repeat exactly across two runs in
  separate processes with different hash seeds;
* traced self times plus the unattributed remainder add up to the
  traced wall time, and the Chrome trace has one track per layer;
* the host-speed probe samples during a block, takes its own time out
  of the corrected time, and leaves no timer or handler behind;
* an injected NaN, a truncated output and an unsupplied input are each
  counted as a failure;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command fails without printing a result.
"""

from __future__ import annotations

import json
import os
import signal
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark module itself)

sys.path.insert(0, run.SRC)

from checks import compare_field  # noqa: E402
from hostspeed import PERIOD_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: units of measured quantities; every other metric is a count or a
#: ratio of counts and must repeat exactly
MEASURED_UNITS = {"s", "ms", "MB"}


def result_of(cmd: list[str], cwd: str = ROOT,
              hash_seed: str = "0") -> tuple[int, str]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=300)
    return proc.returncode, proc.stdout


def check_cli(spec: dict) -> None:
    """Each workload and trace mode twice, in processes with different
    hash seeds: names and units as declared, counts equal."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, want in (("0", units), ("1", layer_units)):
            counts = []
            for hash_seed in ("1", "2"):
                code, out = result_of([
                    sys.executable, "perfbench/run.py", "--workload",
                    w["name"], "--seed", "3", "--seconds", "0.1",
                    "--trace", trace, "--scale", "tiny"],
                    hash_seed=hash_seed)
                assert code == 0, out
                res = json.loads(out.strip().splitlines()[-1])
                assert set(res) == {"correct", "attempted", "failed",
                                    "metrics"}
                assert res["correct"] and res["failed"] == 0, res
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == want, (w["name"], trace, got)
                assert all(isinstance(v["value"], float)
                           for v in res["metrics"].values())
                counts.append({k: v["value"]
                               for k, v in res["metrics"].items()
                               if v["unit"] not in MEASURED_UNITS})
            assert counts[0] == counts[1], (w["name"], trace, counts)


def check_traced(name: str, seed: int = 5) -> None:
    """One traced operation: self times add up to the traced wall time,
    one Chrome track per layer, and the layers the workload is meant to
    exercise did run."""
    runner = run.Runner(WORKLOADS[name]("tiny"), seed)
    tracer = Tracer()
    with tracer.installed():
        secs, outcome = runner.once(tracer)
    assert not runner.failures, runner.failures
    layers = run.layer_metrics(runner.wl, tracer, outcome, secs)
    total_ms = sum(tracer.layer_self_ms().values())
    assert abs(total_ms - tracer.root_ms()) < 1e-6 * max(1.0, total_ms)
    assert tracer.root_ms() <= secs * 1e3
    chrome = tracer.to_chrome()["traceEvents"]
    tracks = {e["args"]["name"] for e in chrome
              if e["name"] == "thread_name"}
    assert tracks == {s.layer for s in tracer.spans}, tracks
    if name == "heat-resilient":
        for key in ("mesh.moved_entities", "runtime.checkpoints",
                    "runtime.checkpoint_words",
                    "runtime.replayed_messages"):
            assert layers[key] > 0, (key, layers)
    if name == "place-synth4":
        assert layers["placement.solutions"] == 64


def check_speed_probe() -> None:
    probe = SpeedProbe()
    assert probe.corrected(1.0) == 1.0  # nothing sampled yet
    handler = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 20 * PERIOD_S:
            pass
        seconds = time.perf_counter() - start
    assert len(probe.samples) >= 10, probe.samples
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    # the probes took part of the block, not all of it
    assert 0 < sum(probe.samples) < seconds / 2, probe.samples
    assert probe.corrected(seconds) > 0
    assert probe.rss_mb > 10, probe.rss_mb


def check_failures_counted() -> None:
    from repro.runtime import executor

    nan = np.array([1.0, np.nan])
    assert compare_field("x", nan, nan, 1e-9, 1e-11)
    assert compare_field("x", np.ones(3), np.ones(4), 1e-9, 1e-11)
    assert compare_field("x", None, np.ones(4), 1e-9, 1e-11)

    runner = run.Runner(WORKLOADS["testiv-interp"]("tiny"), 1)
    gather = executor.SPMDResult.gather
    for corrupt in (lambda a: np.full_like(a, np.nan), lambda a: a[:-1]):
        executor.SPMDResult.gather = \
            lambda self, var, c=corrupt: c(gather(self, var))
        try:
            before = len(runner.failures)
            runner.once()
            assert len(runner.failures) == before + 1, runner.failures
        finally:
            executor.SPMDResult.gather = gather
    del runner.inputs["fields"]["airesom"]
    with warnings.catch_warnings():
        # the zero-defaulted input divides by zero inside the program
        warnings.simplefilter("ignore", RuntimeWarning)
        runner.once()
    assert any("airesom" in f for f in runner.failures[-1]), runner.failures
    assert runner.attempted == 3 and len(runner.failures) == 3


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(bare, "perfbench"))
    code, out = result_of([sys.executable, "perfbench/run.py", "--workload",
                           "place-synth4", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and '"metrics"' not in out, (code, out)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    check_speed_probe()
    check_failures_counted()
    for name in WORKLOADS:
        check_traced(name)
    check_bare_directory()
    check_cli(spec)
    print("perfbench self-test ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
