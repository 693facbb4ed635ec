"""Reusable experiment harnesses: processor sweeps and pattern comparisons.

Library-grade versions of what the benchmarks do by hand, for downstream
users running their own studies: one analysis + one sequential oracle run,
then SPMD executions across processor counts or overlapping patterns, each
verified and timed under an α–β machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from ..lang.ast import Subroutine
from ..mesh.overlap import build_partition
from ..mesh.partition import Mesh
from ..placement.engine import PlacementResult, enumerate_placements
from ..runtime.executor import SPMDExecutor, SPMDResult
from ..runtime.perfmodel import (
    MachineModel,
    TimeBreakdown,
    parallel_time,
    sequential_time,
)
from ..spec import PartitionSpec
from .pipeline import (
    build_global_env,
    collect_outputs,
    max_abs_error,
    run_sequential,
    verify_outputs,
)


@dataclass
class SweepPoint:
    """One processor count of a sweep."""

    nparts: int
    result: SPMDResult
    time: TimeBreakdown
    speedup: float
    max_error: float

    @property
    def efficiency(self) -> float:
        return self.speedup / self.nparts if self.nparts else 0.0


@dataclass
class SweepResult:
    """A full strong-scaling sweep of one program on one mesh."""

    placements: PlacementResult
    sequential_steps: int
    sequential_seconds: float
    points: list[SweepPoint] = field(default_factory=list)

    def table(self) -> str:
        lines = [f"{'P':>4}{'speedup':>9}{'eff':>7}{'max err':>11}"
                 f"{'words':>9}"]
        for p in self.points:
            lines.append(f"{p.nparts:>4}{p.speedup:>9.2f}"
                         f"{p.efficiency:>7.2f}{p.max_error:>11.2e}"
                         f"{p.result.stats.total_words():>9}")
        return "\n".join(lines)


def _split_inputs(values: dict[str, Any]):
    fields = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in values.items()
               if not isinstance(v, np.ndarray)}
    return fields, scalars


def sweep_nparts(source_or_sub: Union[str, Subroutine],
                 spec: PartitionSpec,
                 mesh: Mesh,
                 values: dict[str, Any],
                 part_counts: tuple[int, ...] = (1, 2, 4, 8),
                 model: MachineModel = MachineModel(),
                 method: str = "rcb",
                 backend: str = "interp",
                 placement_index: int = 0,
                 placements: Optional[PlacementResult] = None,
                 rtol: float = 1e-9) -> SweepResult:
    """Strong-scaling sweep: one oracle run, one SPMD run per P, verified.

    Each point's outputs must agree with the oracle within ``rtol``
    (``atol = rtol / 10``) over the whole mesh; a non-finite or
    truncated output fails the sweep (:func:`~.pipeline.verify_outputs`).
    """
    if placements is None:
        placements = enumerate_placements(source_or_sub, spec)
    sub = placements.sub
    fields, scalars = _split_inputs(values)
    seq_env = build_global_env(sub, spec, mesh, fields, scalars)
    seq = run_sequential(sub, seq_env, backend=backend)
    t_seq = sequential_time(seq.steps, model)
    sweep = SweepResult(placements=placements, sequential_steps=seq.steps,
                        sequential_seconds=t_seq)
    for nparts in part_counts:
        partition = build_partition(mesh, nparts, spec.pattern, method=method)
        ex = SPMDExecutor(sub, spec,
                          placements.ranked[placement_index].placement,
                          partition, backend=backend)
        res = ex.run({k.lower(): v for k, v in values.items()})
        t_par = parallel_time(res.rank_steps, res.stats, model)
        outputs = collect_outputs(placements, spec, mesh, seq.env, res)
        verify_outputs(outputs, rtol=rtol, atol=rtol / 10,
                       where=f" at P={nparts}")
        sweep.points.append(SweepPoint(
            nparts=nparts, result=res, time=t_par,
            speedup=t_par.speedup_over(t_seq),
            max_error=max_abs_error(outputs)))
    return sweep


@dataclass
class PatternComparison:
    """One overlapping pattern's cost profile on a fixed problem."""

    pattern: str
    duplicated_elements: int
    busiest_rank_steps: int
    messages: int
    words: int
    simulated_seconds: float


def compare_patterns(source_or_sub: Union[str, Subroutine],
                     specs: dict[str, PartitionSpec],
                     mesh: Mesh,
                     values: dict[str, Any],
                     nparts: int = 8,
                     model: MachineModel = MachineModel(),
                     rtol: float = 1e-9) -> list[PatternComparison]:
    """Run the same program under several patterns; verify and profile each.

    ``specs`` maps a display label to the per-pattern PartitionSpec (array
    declarations are usually identical; only ``pattern`` differs).  Every
    pattern's first output must agree with the first pattern's within
    ``rtol``, and be finite (:func:`~.pipeline.verify_outputs`).
    """
    rows: list[PatternComparison] = []
    reference: Optional[np.ndarray] = None
    ref_var: Optional[str] = None
    for label, spec in specs.items():
        placements = enumerate_placements(source_or_sub, spec)
        sub = placements.sub
        partition = build_partition(mesh, nparts, spec.pattern)
        ex = SPMDExecutor(sub, spec, placements.best().placement, partition)
        res = ex.run({k.lower(): v for k, v in values.items()})
        t = parallel_time(res.rank_steps, res.stats, model)
        rows.append(PatternComparison(
            pattern=label,
            duplicated_elements=sum(
                partition.overlap_sizes(partition.element_name)),
            busiest_rank_steps=max(res.rank_steps),
            messages=res.stats.total_messages(),
            words=res.stats.total_words(),
            simulated_seconds=t.total))
        if ref_var is None:
            ref_var = sorted(placements.vfg.outputs)[0]
            reference = np.asarray(res.gather(ref_var))
        else:
            verify_outputs({ref_var: (reference, res.gather(ref_var))},
                           rtol=rtol, atol=0.0,
                           where=f" under pattern {label}")
    return rows
