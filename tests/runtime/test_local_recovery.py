"""Differential oracle for localized restart (``recovery="local"``).

Global rollback is the reference recovery implementation; localized
restart — restore only the dead rank, re-drive it against the
sender-side message log while the survivors wait — is the scale
implementation.  These tests require *bit identity* between the two
modes and the fault-free run: final environments, step counts, the event
log, and (for local mode) the untouched traffic ledger.  A corpus slice
runs in tier 1; the full 16-placement × phase × transport × wave cross
is marked ``soak`` and runs in the per-PR fault-matrix job at 4 ranks.
"""

import numpy as np
import pytest

from repro.corpus import ADVECTION_SOURCE, HEAT_SOURCE, TESTIV_SOURCE
from repro.errors import CommTimeout, RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    RECOVERY_LOCAL,
    RECOVERY_MODES,
    WAVE_BLOCK,
    WAVE_MESSAGES,
    CheckpointManager,
    FaultPlan,
    SPMDExecutor,
    SimComm,
    envs_bit_identical,
)
from repro.lang.interp import MachineState
from repro.runtime.faults import kill_check
from repro.runtime.msglog import MessageLog
from repro.placement.comms import K_COMBINE
from repro.spec import PartitionSpec, spec_for_testiv


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    rng = np.random.default_rng(0)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }
    return placements, spec, partition, values


def _run(setup, index=0, split=False, transport="ring", wave="block",
         plan_text=None, timeout=0, **kw):
    placements, spec, partition, values = setup
    placement = placements.ranked[index].placement
    if split:
        placement = widen_placement(placements.vfg, placement)
    plan = FaultPlan.parse(plan_text) if plan_text else None
    ex = SPMDExecutor(placements.sub, spec, placement, partition)
    return ex.run(dict(values), faults=plan, comm_timeout=timeout,
                  transport=transport, halo_wave=wave, **kw)


def _record_stream(stats):
    return [(r.label, r.msgs, r.words, r.window, r.overlap_steps)
            for r in stats.collectives]


class TestCorpusLocalDifferential:
    """local ≡ global ≡ fault-free, bit for bit."""

    def test_corpus_slice_both_phases(self, setup):
        for index in (0, 7, 15):
            for split in (False, True):
                base = _run(setup, index, split)
                where = f"placement #{index} split={split}"
                plan = "kill rank=1 event=3"
                for mode in RECOVERY_MODES:
                    res = _run(setup, index, split, plan_text=plan,
                               recovery=mode, checkpoint_every=2)
                    diff = envs_bit_identical(base.envs, res.envs)
                    assert diff is None, f"{where} {mode}: {diff}"
                    assert res.rank_steps == base.rank_steps, where
                    assert [e[0] for e in res.timeline.events] \
                        == [e[0] for e in base.timeline.events], where

    def test_local_mode_never_touches_the_ledger(self, setup):
        # global rollback rewinds the stats with the transport; localized
        # restart suppresses replay re-sends *before* accounting, so its
        # final ledger must be exactly the fault-free one
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=5",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert res.recovery["replayed_events"] > 0
        assert _record_stream(res.stats) == _record_stream(base.stats)
        assert res.stats.total_messages() == base.stats.total_messages()
        assert res.stats.total_words() == base.stats.total_words()

    def test_kill_every_event_every_rank(self, setup):
        base = _run(setup, split=True)
        nevents = len(base.timeline.events)
        for event in range(1, nevents):
            for rank in (0, 2):
                res = _run(setup, split=True,
                           plan_text=f"kill rank={rank} event={event}",
                           recovery=RECOVERY_LOCAL, checkpoint_every=3)
                diff = envs_bit_identical(base.envs, res.envs)
                assert diff is None, f"rank {rank} event {event}: {diff}"

    @pytest.mark.soak
    def test_full_corpus_cross(self, setup):
        placements, spec, partition, values = setup
        for transport in ("ring", "deque"):
            failures = kill_check(placements, spec, partition, values,
                                  transport=transport)
            assert not failures, "\n".join(failures)


_SOLVER_SPEC = """\
pattern {pattern}
extent node nsom
extent triangle ntri
indexmap som triangle node
array {fields}
"""

#: name -> (source, node arrays (first one is the random initial
#: field), triangle array, outputs, remaining inputs on a mesh)
_SOLVERS = {
    "heat": (HEAT_SOURCE, ("u0", "u1", "u", "rhs", "mass"), "area",
             ("u1",), lambda mesh: {"area": mesh.triangle_areas,
                                    "mass": mesh.node_areas,
                                    "dt": 0.05, "nstep": 3}),
    "advection": (ADVECTION_SOURCE, ("c0", "c1", "c", "acc"), "w",
                  ("c1", "cmax"),
                  lambda mesh: {"w": np.full(mesh.n_triangles, 0.05),
                                "nstep": 3}),
}


class TestSolverPrograms:
    """Local restart beyond TESTIV's overlap placements: shared-nodes
    placements replay a ``combine(+)``.  ADVECTION's ``reduce(max)`` is
    its last event, which no kill boundary follows, so it never replays;
    TESTIV's in-loop reduce covers the replayed tree."""

    @pytest.mark.parametrize("split", [False, True],
                             ids=["blocking", "split"])
    @pytest.mark.parametrize("pattern", ["overlap-elements-2d",
                                         "shared-nodes-2d"])
    @pytest.mark.parametrize("program", sorted(_SOLVERS))
    def test_kill_at_every_event(self, program, pattern, split):
        source, nodes, tri, outputs, inputs = _SOLVERS[program]
        fields = "\narray ".join([f"{a} node" for a in nodes]
                                  + [f"{tri} triangle"])
        spec = PartitionSpec.parse(
            _SOLVER_SPEC.format(pattern=pattern, fields=fields))
        mesh = structured_tri_mesh(8, 8)
        rng = np.random.default_rng(7)
        values = {nodes[0]: rng.standard_normal(mesh.n_nodes),
                  **inputs(mesh)}
        placements = enumerate_placements(source, spec)
        placement = placements.best().placement
        if split:
            placement = widen_placement(placements.vfg, placement)
        if pattern == "shared-nodes-2d":
            assert any(op.kind == K_COMBINE and op.op == "+"
                       for op in placement.comms)
        partition = build_partition(mesh, 4, spec.pattern)

        def run(**kw):
            return SPMDExecutor(placements.sub, spec, placement,
                                partition).run(dict(values), **kw)

        base = run()
        for event in range(1, len(base.timeline.events)):
            res = run(faults=FaultPlan.parse(f"kill rank=1 event={event}"),
                      recovery=RECOVERY_LOCAL, checkpoint_every=3)
            where = f"kill at event {event}"
            for var in outputs:
                assert np.array_equal(res.gather(var), base.gather(var)), \
                    f"{where}: {var}"
            assert res.stats.total_messages() \
                == base.stats.total_messages(), where
            assert res.stats.total_words() == base.stats.total_words(), \
                where


class TestLocalizedRestart:
    def test_recovery_is_recorded_out_of_band(self, setup):
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=3",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        # the event log matches the fault-free one; the restart is a note
        assert [e[0] for e in res.timeline.events] \
            == [e[0] for e in base.timeline.events]
        assert len(res.timeline.faults) == 1
        note = res.timeline.faults[0]
        assert "localized restart" in note and "rank 1" in note

    def test_recovery_dict_reports_the_restart(self, setup):
        res = _run(setup, plan_text="kill rank=1 event=5",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        info = res.recovery
        assert info["mode"] == RECOVERY_LOCAL
        assert info["rank_restores"] == 1 and info["restores"] == 0
        assert info["replayed_events"] >= 1
        assert info["restored_words"] > 0
        assert info["log_entries"] > 0

    def test_sparse_cadence_replays_logged_messages(self, setup):
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=6",
                   recovery=RECOVERY_LOCAL, checkpoint_every=4)
        assert envs_bit_identical(base.envs, res.envs) is None
        info = res.recovery
        assert info["replayed_events"] >= 2
        assert info["replayed_messages"] > 0
        assert info["suppressed_sends"] > 0

    def test_kill_inside_open_split_window(self, setup):
        # split placements keep messages on the wire across the kill
        # boundary: the wire-residue skip must leave them for the
        # restored rank's own waits
        for wave in (WAVE_BLOCK, WAVE_MESSAGES):
            base = _run(setup, split=True, wave=wave)
            nevents = len(base.timeline.events)
            for event in range(2, nevents, 2):
                res = _run(setup, split=True, wave=wave,
                           plan_text=f"kill rank=1 event={event}",
                           recovery=RECOVERY_LOCAL, checkpoint_every=4)
                diff = envs_bit_identical(base.envs, res.envs)
                assert diff is None, f"{wave} event {event}: {diff}"

    def test_multiple_kills_survived(self, setup):
        base = _run(setup)
        res = _run(setup,
                   plan_text="kill rank=0 event=2; kill rank=2 event=5",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.recovery["rank_restores"] == 2
        assert len(res.timeline.faults) == 2

    def test_two_ranks_killed_at_the_same_event(self, setup):
        base = _run(setup)
        res = _run(setup,
                   plan_text="kill rank=0 event=3; kill rank=2 event=3",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.recovery["rank_restores"] == 2

    def test_local_composes_with_wire_faults(self, setup):
        base = _run(setup)
        for plan in ("kill rank=1 event=4; reorder; seed=6",
                     "kill rank=1 event=4; delay count=2 steps=2; seed=9"):
            res = _run(setup, plan_text=plan, recovery=RECOVERY_LOCAL,
                       checkpoint_every=2, timeout=16)
            diff = envs_bit_identical(base.envs, res.envs)
            assert diff is None, f"{plan}: {diff}"

    def test_per_message_wave_recovers_too(self, setup):
        base = _run(setup, wave=WAVE_MESSAGES)
        res = _run(setup, wave=WAVE_MESSAGES,
                   plan_text="kill rank=1 event=4",
                   recovery=RECOVERY_LOCAL, checkpoint_every=3)
        assert envs_bit_identical(base.envs, res.envs) is None

    def test_restored_words_local_is_one_rank_global_is_all(self, setup):
        plan = "kill rank=1 event=4"
        local = _run(setup, plan_text=plan, recovery=RECOVERY_LOCAL,
                     checkpoint_every=2)
        glob = _run(setup, plan_text=plan, recovery="global",
                    checkpoint_every=2)
        # the recovery-cost claim of the PR: local restores one rank's
        # words, global restores every rank's (≈ P× more at P=3)
        assert 0 < local.recovery["restored_words"] \
            < glob.recovery["restored_words"]
        assert glob.recovery["restored_words"] \
            >= 2 * local.recovery["restored_words"]

    def test_replay_stall_names_the_restart(self, setup, monkeypatch):
        # with nothing re-delivered from the log the restored rank's
        # first receive stalls; the watchdog must say it was in replay
        monkeypatch.setattr(MessageLog, "replay_onto",
                            lambda self, comm, rank, mark: (0, 0))
        with pytest.raises(CommTimeout,
                           match="stalled during localized restart of "
                                 "rank 1") as err:
            _run(setup, plan_text="kill rank=1 event=5",
                 recovery=RECOVERY_LOCAL, checkpoint_every=4)
        assert "recovery in progress" in str(err.value)

    def test_unknown_recovery_mode_rejected(self, setup):
        with pytest.raises(RuntimeFault, match="unknown recovery mode"):
            _run(setup, recovery="optimistic")


class TestRetentionPolicy:
    def _world(self, nranks=2, words=16):
        comm = SimComm(nranks)
        envs = [{"a": np.arange(float(words)), "k": r}
                for r in range(nranks)]
        states = [MachineState(pc=r) for r in range(nranks)]
        return comm, envs, states

    def test_keep_k_ring_evicts_oldest(self):
        comm, envs, states = self._world()
        mgr = CheckpointManager(keep=3)
        for ev in range(5):
            mgr.take(comm, envs, states, ev, 0)
        assert len(mgr.checkpoints) == 3 and mgr.evicted == 2
        assert [cp.event_count for cp in mgr.checkpoints] == [2, 3, 4]

    def test_budget_evicts_but_never_the_newest(self):
        comm, envs, states = self._world(words=64)
        # each checkpoint is 2×64 = 128 words; a 100-word budget can hold
        # none — the newest must survive anyway
        mgr = CheckpointManager(keep=4, budget_words=100)
        for ev in range(3):
            mgr.take(comm, envs, states, ev, 0)
        assert len(mgr.checkpoints) == 1
        assert mgr.checkpoints[0].event_count == 2
        assert mgr.total_words() == 128

    def test_restore_rewinds_to_newest_retained(self):
        comm, envs, states = self._world()
        mgr = CheckpointManager(keep=2)
        for ev in range(4):
            states[0].pc = ev
            mgr.take(comm, envs, states, ev, 0)
        states[0].pc = 99
        cp = mgr.restore(comm, envs, states)
        assert cp.event_count == 3 and states[0].pc == 3

    def test_restore_rank_touches_one_rank_only(self):
        comm, envs, states = self._world(nranks=3)
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, 2, 0)
        for env in envs:
            env["a"][:] = -7.0
        cp = mgr.restore_rank(1, envs, states)
        assert cp.event_count == 2
        np.testing.assert_array_equal(envs[1]["a"], np.arange(16.0))
        assert envs[0]["a"][0] == -7.0 and envs[2]["a"][0] == -7.0
        assert mgr.rank_restores == 1 and mgr.restores == 0
        assert mgr.restored_words == 16

    def test_restore_rank_range_checked(self):
        comm, envs, states = self._world()
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, 0, 0)
        with pytest.raises(RuntimeFault, match="out of range"):
            mgr.restore_rank(5, envs, states)

    def test_adaptive_cadence_end_to_end(self, setup):
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=4",
                   recovery=RECOVERY_LOCAL, checkpoint_every="auto")
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.recovery["checkpoints_taken"] >= 1

    def test_keep_k_end_to_end(self, setup):
        res = _run(setup, checkpoint=True, checkpoint_every=2,
                   checkpoint_keep=3)
        info = res.recovery
        assert info["checkpoints_retained"] <= 3
        assert info["checkpoints_taken"] \
            == info["checkpoints_retained"] + info["checkpoints_evicted"]

    def test_cc104_diagnostic_is_structured(self):
        comm, envs, states = self._world()
        comm.view(0).send(1.0, dest=1)
        mgr = CheckpointManager()
        with pytest.raises(RuntimeFault, match="CC104") as err:
            mgr.take(comm, envs, states, 3, 0)
        diag = err.value.diagnostic
        assert diag.code == "CC104"
        assert diag.name == "nonquiescent-checkpoint"
        assert diag.data["messages"] == 1 and diag.data["event"] == 3
        assert diag.data["channels"]
        comm.view(1).recv(0)


class TestZeroOverheadDefault:
    def test_no_logging_unless_local_mode(self, setup):
        # default (global) recovery must not arm the message log
        res = _run(setup, checkpoint=True, checkpoint_every=2)
        assert res.recovery["mode"] == "global"
        assert res.recovery["log_entries"] == 0

    def test_no_recovery_info_without_checkpointing(self, setup):
        res = _run(setup, checkpoint=False)
        assert res.recovery is None

    def test_local_without_faults_is_bit_identical(self, setup):
        base = _run(setup)
        res = _run(setup, checkpoint=True, recovery=RECOVERY_LOCAL,
                   checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.rank_steps == base.rank_steps
        assert res.recovery["rank_restores"] == 0
        assert res.recovery["suppressed_sends"] == 0
        # the log held every delivery, but nothing ever replayed it
        assert res.recovery["log_entries"] > 0
