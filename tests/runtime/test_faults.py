"""Tests for the fault-injection fabric, watchdog and recovery paths."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import CommTimeout, RankKilled, ReproError, RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.runtime import (
    FaultComm,
    FaultPlan,
    FaultRule,
    KillRule,
    SPMDExecutor,
    SimComm,
    adversarial_check,
    envs_bit_identical,
    make_comm,
    parallel_time,
)
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    return mesh, spec, placements, partition


def inputs_for(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }


def executor(setup):
    mesh, spec, placements, partition = setup
    return SPMDExecutor(placements.sub, spec,
                        placements.best().placement, partition)


@pytest.fixture(scope="module")
def baseline(setup):
    mesh = setup[0]
    return executor(setup).run(inputs_for(mesh))


class TestFaultPlan:
    def test_parse_all_clauses(self):
        plan = FaultPlan.parse(
            "seed=42\n"
            "drop src=0 dst=1 tag=101 count=1  # lose one halo message\n"
            "delay dst=2 steps=3\n"
            "reorder; duplicate prob=0.5\n"
            "kill rank=2 event=4\n"
            "no-retransmit\n")
        assert plan.seed == 42 and not plan.retransmit
        assert plan.kills == [KillRule(rank=2, event=4)]
        actions = [r.action for r in plan.rules]
        assert actions == ["drop", "delay", "reorder", "duplicate"]
        assert plan.rules[0] == FaultRule("drop", src=0, dst=1, tag=101,
                                          count=1)
        assert plan.rules[1].steps == 3
        assert plan.rules[3].prob == 0.5

    def test_describe_round_trips(self):
        text = "seed=7; drop src=1 count=2; delay steps=4; kill rank=0 event=1"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.describe())
        assert again == plan

    def test_bad_clauses_rejected(self):
        with pytest.raises(ReproError, match="unknown fault clause"):
            FaultPlan.parse("explode rank=1")
        with pytest.raises(ReproError, match="KEY=VALUE"):
            FaultPlan.parse("drop src")
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultRule("melt")

    def test_rule_matching_wildcards(self):
        rule = FaultRule("drop", src=0, tag=5)
        assert rule.matches(0, 3, 5) and not rule.matches(1, 3, 5)
        assert not rule.matches(0, 3, 6)
        assert FaultRule("drop").matches(7, 8, 9)

    def test_make_comm_factory(self):
        assert type(make_comm(2, None)) is SimComm
        assert isinstance(make_comm(2, FaultPlan()), FaultComm)


class TestDeterminism:
    def test_seeded_runs_identical(self, setup, baseline):
        mesh = setup[0]
        plan = "reorder; delay count=2 steps=2; seed=9"
        runs = [executor(setup).run(inputs_for(mesh),
                                    faults=FaultPlan.parse(plan),
                                    comm_timeout=16) for _ in range(2)]
        assert envs_bit_identical(runs[0].envs, runs[1].envs) is None
        assert runs[0].stats.retries == runs[1].stats.retries

    def test_rng_state_rides_transport_snapshot(self):
        comm = FaultComm(2, FaultPlan(seed=5))
        comm.rng.random()
        snap = comm.transport_snapshot()
        first = comm.rng.random()
        comm.transport_restore(snap)
        assert comm.rng.random() == first


class TestDropFaults:
    def test_drop_without_budget_names_the_stall(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1; no-retransmit")
        with pytest.raises(CommTimeout) as ei:
            executor(setup).run(inputs_for(mesh), faults=plan)
        exc = ei.value
        assert isinstance(exc, RuntimeFault)
        # the watchdog names the CommOp, its anchor and the missing peer
        assert exc.op is not None and exc.anchor is not None
        assert exc.src is not None and exc.dst is not None
        text = str(exc)
        assert "stalled at anchor" in text
        assert "missing peer" in text
        assert f"rank {exc.src} never delivered to rank {exc.dst}" in text

    def test_drop_recovered_by_retransmission(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=8)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.stats.retries > 0
        assert res.stats.retransmits == 1
        assert res.stats.retransmit_words > 0

    def test_unrecoverable_drop_carries_ledger(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("drop count=1; no-retransmit")
        with pytest.raises(CommTimeout) as ei:
            executor(setup).run(inputs_for(mesh), faults=plan,
                                comm_timeout=4)
        assert ei.value.waited == 4
        assert "dropped" in ei.value.ledger
        assert ei.value.ledger["dropped"]


class TestDelayFaults:
    def test_delay_recovered_by_retries(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=3 steps=2; seed=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=16)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.stats.retries > 0

    def test_delay_without_budget_times_out(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=1 steps=5")
        with pytest.raises(CommTimeout, match="deadlock"):
            executor(setup).run(inputs_for(mesh), faults=plan)

    def test_delay_charged_by_perfmodel(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("delay count=3 steps=2; seed=1")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=16)
        clean = parallel_time(baseline.rank_steps, baseline.stats)
        faulty = parallel_time(res.rank_steps, res.stats)
        assert clean.comm_fault == 0.0
        assert faulty.comm_fault > 0.0
        assert faulty.total > clean.total


class TestDuplicateFaults:
    def test_duplicate_caught_by_drain_check(self, setup):
        mesh = setup[0]
        # tag 1000 = the first fresh-tag channel; its duplicate can never
        # be matched by a later collective, so the drain check must name it
        plan = FaultPlan.parse(f"duplicate tag={SimComm.FRESH_TAG_BASE} "
                               f"count=1")
        with pytest.raises(RuntimeFault, match="never received") as ei:
            executor(setup).run(inputs_for(mesh), faults=plan)
        assert f"tag={SimComm.FRESH_TAG_BASE}" in str(ei.value)


class TestCorruptFaults:
    def test_corruption_diverges_results(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("corrupt count=1; seed=2")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is not None
        # accounting is untouched: same traffic, only different bits
        assert res.stats.total_words() == baseline.stats.total_words()


class TestReorderFaults:
    def test_reorder_is_survived_bit_identically(self, setup, baseline):
        mesh = setup[0]
        for seed in (3, 4):
            plan = FaultPlan(rules=[FaultRule("reorder")], seed=seed)
            res = executor(setup).run(inputs_for(mesh), faults=plan)
            assert envs_bit_identical(baseline.envs, res.envs) is None
            assert res.stats.total_words() == baseline.stats.total_words()


class TestKillRecovery:
    def test_kill_recovers_bit_identically(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=3")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.rank_steps == baseline.rank_steps
        # the replayed event log matches the fault-free one...
        assert [e[0] for e in res.timeline.events] \
            == [e[0] for e in baseline.timeline.events]
        # ...and the recovery is recorded out-of-band
        assert len(res.timeline.faults) == 1
        assert "killed" in res.timeline.faults[0]
        assert "rolled back" in res.timeline.faults[0]

    def test_kill_without_checkpointing_is_fatal(self, setup):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=3")
        with pytest.raises(RankKilled, match="no recovery") as ei:
            executor(setup).run(inputs_for(mesh), faults=plan,
                                checkpoint=False)
        assert ei.value.rank == 1 and ei.value.event == 3

    def test_multiple_kills_survived(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=0 event=2; kill rank=2 event=5")
        res = executor(setup).run(inputs_for(mesh), faults=plan)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert len(res.timeline.faults) == 2

    def test_sparse_checkpoint_cadence_still_recovers(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=6")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  checkpoint_every=4)
        assert envs_bit_identical(baseline.envs, res.envs) is None

    def test_kill_composes_with_wire_faults(self, setup, baseline):
        mesh = setup[0]
        plan = FaultPlan.parse("kill rank=1 event=4; reorder; seed=6")
        res = executor(setup).run(inputs_for(mesh), faults=plan,
                                  comm_timeout=8)
        assert envs_bit_identical(baseline.envs, res.envs) is None


class TestZeroOverheadDefault:
    def test_no_plan_means_plain_fabric_and_identical_results(
            self, setup, baseline):
        mesh = setup[0]
        res = executor(setup).run(inputs_for(mesh), faults=None)
        assert envs_bit_identical(baseline.envs, res.envs) is None
        assert res.rank_steps == baseline.rank_steps
        assert res.stats.retries == 0
        assert res.stats.retransmits == 0
        assert not res.timeline.faults


class TestAdversarialChecker:
    def test_corpus_placements_order_independent(self, setup):
        mesh, spec, placements, partition = setup
        failures = adversarial_check(placements, spec, partition,
                                     inputs_for(mesh), seeds=(5,),
                                     indices=[0, 1])
        assert failures == []

    def test_envs_bit_identical_reports_divergence(self):
        a = [{"x": np.arange(3.0), "s": 1}]
        b = [{"x": np.arange(3.0), "s": 1}]
        assert envs_bit_identical(a, b) is None
        b[0]["x"][1] = 9.0
        assert "array 'x'" in envs_bit_identical(a, b)
        b[0]["x"][1] = 1.0
        b[0]["s"] = 2
        assert "scalar 's'" in envs_bit_identical(a, b)
        assert "rank count" in envs_bit_identical(a, a + b)
