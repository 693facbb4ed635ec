"""The benchmark's workloads: inputs from a seed, one operation, checks.

Each workload is a :class:`Workload` with

``setup(seed)``
    import the program and generate the inputs (mesh, fields, program
    text and spec) — the program only ever receives these;
``reference(inputs)``
    the independent expected answer, computed once per process outside
    any timed region;
``operate(inputs, ref, span)``
    the timed operation, calling the program's public functions through
    their module attributes so a :class:`tracing.Tracer` can time them;
``metrics(inputs, outcome)`` / ``layer_counts(outcome)``
    end-to-end values and per-layer counts read off the outcome.

The operation of ``testiv-interp`` and ``heat-resilient`` ends with the
output checks (they are part of ``wall_s``); ``place-synth4`` checks
after the timed placement.  Either way every failure lands in
``outcome["failures"]``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable

import numpy as np

from checks import compare_field, missing_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

#: output comparison tolerances (the repository's own integration tests
#: use the same pair)
RTOL, ATOL = 1e-9, 1e-11

#: workload parameters; ``tiny`` is the self-test's scale
SCALES: dict[str, dict[str, Any]] = {
    "full": {"synth_phases": 4, "testiv_n": 32, "testiv_ranks": 8,
             "maxloop": 20, "heat_nodes": 30000, "heat_ranks": 64,
             "heat_steps": 40},
    "tiny": {"synth_phases": 2, "testiv_n": 8, "testiv_ranks": 4,
             "maxloop": 20, "heat_nodes": 2000, "heat_ranks": 16,
             "heat_steps": 40},
}

HEAT_SPEC_TEXT = """\
pattern overlap-elements-2d
extent node nsom
extent triangle ntri
indexmap som triangle node
array u0 node
array u1 node
array u node
array rhs node
array mass node
array area triangle
"""
HEAT_DT = 0.05
#: the heat mesh is the same for every workload seed (only the initial
#: field varies): across mesh seeds the work itself differs, which made
#: model_speedup spread 7.5% and wall_s 15% between seeds
HEAT_MESH_SEED = 0
KILL_RANK, KILL_EVENT = 3, 22
CHECKPOINT_EVERY = 4
REBALANCE_AT = 30

Span = Callable[[str, str], Any]


def _modules():
    from repro.driver import pipeline
    from repro.placement import engine
    return pipeline, engine


def payload_digest(result) -> str:
    """sha256 of ``ranked[0]``'s position-mapped payload and its cost."""
    from repro.placement import serialize

    chosen = result.ranked[0]
    payload = serialize.ranked_to_payload(
        chosen, serialize._sid_to_pos(result.sub))
    blob = json.dumps({"payload": payload, "cost": chosen.cost.total},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _guarded(failures: list[str], what: str, fn: Callable[[], Any]) -> Any:
    """Run ``fn``; an exception becomes a failure instead of a crash."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - every error is a failure
        failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


class Workload:
    name = ""
    #: comm_* and model_speedup are not produced (no SPMD run)
    executes = True

    def __init__(self, scale: str = "full"):
        self.cfg = SCALES[scale]

    def setup(self, seed: int) -> dict:
        """Import the program and generate the inputs."""
        _modules()
        return self.inputs(seed)

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def reference(self, inputs: dict) -> Any:
        return None

    def operate(self, inputs: dict, ref: Any, span: Span) -> dict:
        raise NotImplementedError

    def preflight(self, inputs: dict) -> list[str]:
        """Failures visible before running: unsupplied inputs."""
        if "fields" not in inputs:
            return []
        return missing_inputs(inputs["source"], inputs["spec"],
                              inputs["fields"], inputs["scalars"])

    def check(self, inputs: dict, ref: Any, outcome: dict) -> list[str]:
        """Failures found after the timed operation (its own checks land
        in ``outcome["failures"]``)."""
        return []

    def metrics(self, inputs: dict, outcome: dict) -> dict[str, float]:
        chosen = outcome["chosen"]
        out = {"chosen_cost": float(chosen.cost.total)}
        if not self.executes:
            return out
        from repro.runtime.perfmodel import parallel_time, sequential_time

        seq, spmd = outcome["sequential"], outcome["spmd"]
        par = parallel_time(spmd.rank_steps, spmd.stats, halo_wave=True)
        out["comm_messages"] = float(spmd.stats.total_messages())
        out["comm_words"] = float(spmd.stats.total_words())
        out["model_speedup"] = sequential_time(seq.steps) / par.total
        return out

    def layer_counts(self, outcome: dict) -> dict[str, float]:
        # one placement is used per operation, out of all annotated
        counts = {"placement.used_ratio": 1.0 / len(outcome["result"].ranked)}
        if not self.executes:
            return counts
        seq, spmd = outcome["sequential"], outcome["spmd"]
        steps = np.asarray(spmd.rank_steps, dtype=np.float64)
        rec = spmd.recovery or {}
        mig = spmd.migration or {}
        counts.update({
            "lang.oracle_steps": float(seq.steps),
            "runtime.rank_imbalance": float(steps.max() / steps.mean()),
            "mesh.moved_entities": float(mig.get("moved_entities", 0)),
            "runtime.checkpoints": float(rec.get("checkpoints_taken", 0)),
            "runtime.log_entries": float(rec.get("log_entries", 0)),
            "runtime.replayed_messages":
                float(rec.get("replayed_messages", 0)),
        })
        return counts


class PlaceSynth(Workload):
    """``repro-place PROGRAM SPEC`` on the synthetic program, unbounded."""

    name = "place-synth4"
    executes = False

    def inputs(self, seed: int) -> dict:
        # the program text is fixed: this workload ignores the seed
        from repro.corpus import synthetic_source, synthetic_spec

        n = self.cfg["synth_phases"]
        return {"source": synthetic_source(n), "spec": synthetic_spec(),
                "key": f"synth{n}"}

    def reference(self, inputs: dict) -> dict:
        with open(REFERENCE_FILE) as fh:
            return json.load(fh)["place"][inputs["key"]]

    def operate(self, inputs: dict, ref: dict, span: Span) -> dict:
        _, engine = _modules()
        with span("enumerate_placements", "placement.search"):
            result = engine.enumerate_placements(inputs["source"],
                                                 inputs["spec"])
        return {"result": result, "chosen": result.ranked[0]}

    def check(self, inputs: dict, ref: dict, outcome: dict) -> list[str]:
        pipeline, _ = _modules()
        failures: list[str] = []
        result = outcome["result"]
        _guarded(failures, "strict commcheck of ranked[0]",
                 lambda: pipeline.check(result, result.ranked[0].placement,
                                        mode="strict"))
        digest = _guarded(failures, "payload digest",
                          lambda: payload_digest(result))
        if digest is not None and digest != ref["digest"]:
            failures.append(f"ranked[0] payload digest {digest[:12]} != "
                            f"recorded {ref['digest'][:12]}")
        cost = float(result.ranked[0].cost.total)
        if cost != ref["cost"]:
            failures.append(f"chosen cost {cost!r} != recorded "
                            f"{ref['cost']!r}")
        return failures


class TestivInterp(Workload):
    """The paper's TESTIV through ``run_pipeline`` on every default."""

    name = "testiv-interp"

    def inputs(self, seed: int) -> dict:
        from repro.corpus import TESTIV_SOURCE
        from repro.mesh import structured_tri_mesh
        from repro.spec import spec_for_testiv

        n = self.cfg["testiv_n"]
        mesh = structured_tri_mesh(n, n)
        rng = np.random.default_rng(seed)
        return {
            "source": TESTIV_SOURCE, "spec": spec_for_testiv(), "mesh": mesh,
            "fields": {"init": rng.uniform(0.0, 1.0, mesh.n_nodes),
                       "airetri": mesh.triangle_areas,
                       "airesom": mesh.node_areas},
            "scalars": {"epsilon": 1e-30, "maxloop": self.cfg["maxloop"]},
        }

    def reference(self, inputs: dict) -> tuple[np.ndarray, int]:
        from repro.corpus import reference_testiv

        f, s, mesh = inputs["fields"], inputs["scalars"], inputs["mesh"]
        return reference_testiv(f["init"], mesh.triangles + 1, f["airetri"],
                                f["airesom"], s["epsilon"], s["maxloop"])

    def operate(self, inputs: dict, ref: Any, span: Span) -> dict:
        pipeline, _ = _modules()
        failures: list[str] = []
        run = pipeline.run_pipeline(
            inputs["source"], inputs["spec"], inputs["mesh"],
            self.cfg["testiv_ranks"], fields=inputs["fields"],
            scalars=inputs["scalars"])
        with span("checks", "driver.verify"):
            want, sweeps = ref
            if set(run.outputs) != {"result"}:
                failures.append(f"outputs {sorted(run.outputs)} != "
                                f"['result']")
            seq_val, par_val = run.outputs.get("result", (None, None))
            failures += compare_field("sequential result", seq_val, want,
                                      RTOL, ATOL)
            failures += compare_field("SPMD result", par_val, want,
                                      RTOL, ATOL)
            loops = [run.sequential.env.get("loop")]
            loops += [env.get("loop") for env in run.spmd.envs]
            if any(loop != sweeps for loop in loops):
                failures.append(f"sweep counts {sorted(set(map(str, loops)))}"
                                f" != reference {sweeps}")
        return {"result": run.placements, "chosen": run.chosen,
                "sequential": run.sequential, "spmd": run.spmd,
                "failures": failures}


def heat_reference(u0: np.ndarray, tris: np.ndarray, area: np.ndarray,
                   mass: np.ndarray, dt: float, nstep: int) -> np.ndarray:
    """Explicit diffusion of HEAT_SOURCE in numpy (0-based ``tris``)."""
    u = np.array(u0, dtype=np.float64)
    for _ in range(nstep):
        corner = u[tris]
        um = (corner[:, 0] + corner[:, 1] + corner[:, 2]) / 3.0
        rhs = np.zeros_like(u)
        for k in range(3):
            np.add.at(rhs, tris[:, k], area * (um - corner[:, k]))
        u = u + dt * rhs / mass
    return u


def skewed_layout(elem_ranks: np.ndarray) -> np.ndarray:
    """The rcb layout with the upper half (by element id) of rank 0's
    elements handed to rank 1.

    The solve starts on this layout so that the measured-load rebalancer
    has work to do: on plain rcb the loads sit within its 5% slack and
    the migration epoch would move nothing.
    """
    out = np.array(elem_ranks, copy=True)
    owned = np.flatnonzero(out == 0)
    out[owned[len(owned) // 2:]] = 1
    return out


class HeatResilient(Workload):
    """HEAT on a large random mesh: vector kernels, split-phase windows,
    a killed rank recovered locally, and one measured-load migration
    epoch."""

    name = "heat-resilient"

    def inputs(self, seed: int) -> dict:
        from repro.corpus import HEAT_SOURCE
        from repro.mesh import random_delaunay_mesh
        from repro.runtime.faults import FaultPlan
        from repro.spec import PartitionSpec

        mesh = random_delaunay_mesh(self.cfg["heat_nodes"],
                                    seed=HEAT_MESH_SEED)
        rng = np.random.default_rng(seed)
        return {
            "source": HEAT_SOURCE,
            "spec": PartitionSpec.parse(HEAT_SPEC_TEXT), "mesh": mesh,
            "fields": {"u0": rng.standard_normal(mesh.n_nodes),
                       "area": mesh.triangle_areas, "mass": mesh.node_areas},
            "scalars": {"dt": HEAT_DT, "nstep": self.cfg["heat_steps"]},
            "faults": FaultPlan.parse(
                f"kill rank={KILL_RANK} event={KILL_EVENT}"),
        }

    def reference(self, inputs: dict) -> np.ndarray:
        f, s = inputs["fields"], inputs["scalars"]
        return heat_reference(f["u0"], inputs["mesh"].triangles, f["area"],
                              f["mass"], s["dt"], s["nstep"])

    def operate(self, inputs: dict, ref: Any, span: Span) -> dict:
        # run_pipeline's public steps, with SPMDExecutor.run called
        # directly: run_pipeline checkpoints at every event, so its local
        # restart never replays anything
        from repro.mesh.migrate import RebalancePolicy
        from repro.mesh.partition import partition_elements

        pipeline, _ = _modules()
        spec, mesh = inputs["spec"], inputs["mesh"]
        fields, scalars = inputs["fields"], inputs["scalars"]
        failures: list[str] = []
        placements = pipeline.enumerate_placements(inputs["source"], spec)
        chosen = placements.ranked[0]
        placement = pipeline.widen_placement(placements.vfg,
                                             chosen.placement)
        with span("partition_elements", "mesh.partition"):
            rcb = partition_elements(mesh, self.cfg["heat_ranks"], "rcb")
        partition = pipeline.build_partition(
            mesh, self.cfg["heat_ranks"], spec.pattern,
            elem_ranks=skewed_layout(rcb))
        partition.check_invariants()
        pipeline.check(placements, placement, partition, mode="warn")
        policy = RebalancePolicy(rebalance_at=(REBALANCE_AT,))
        sub = placements.sub
        env = pipeline.build_global_env(sub, spec, mesh, fields, scalars)
        seq = pipeline.run_sequential(sub, env, backend="vector")
        executor = pipeline.SPMDExecutor(sub, spec, placement, partition,
                                         backend="vector")
        spmd = executor.run({**fields, **scalars},
                            faults=inputs["faults"],
                            checkpoint_every=CHECKPOINT_EVERY,
                            recovery="local", rebalance=policy)
        with span("checks", "driver.verify"):
            outputs = sorted(placements.output_vars())
            if outputs != ["u1"]:
                failures.append(f"outputs {outputs} != ['u1']")
            n = mesh.n_nodes
            seq_u1 = np.asarray(seq.env["u1"])[:n]
            failures += compare_field("sequential u1", seq_u1, ref,
                                      RTOL, ATOL)
            failures += compare_field("SPMD u1", spmd.gather("u1"), ref,
                                      RTOL, ATOL)
            rec = spmd.recovery or {}
            if rec.get("rank_restores") != 1 or \
                    not rec.get("replayed_events"):
                failures.append(f"kill of rank {KILL_RANK} not recovered "
                                f"by a replaying local restart: {rec}")
            if (spmd.migration or {}).get("epochs") != 1:
                failures.append(f"expected one migration epoch: "
                                f"{spmd.migration}")
        return {"result": placements, "chosen": chosen, "sequential": seq,
                "spmd": spmd, "failures": failures}


WORKLOADS = {cls.name: cls for cls in (PlaceSynth, TestivInterp,
                                       HeatResilient)}
