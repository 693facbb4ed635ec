"""Differential oracle: block-wave halos must be indistinguishable.

The per-message halo path is the reference implementation; the block-wave
path (one concatenated float64 block per wave through
``send_block``/``recv_block``, taken by every flat-store field) is the
scale implementation, and the only one the product runtime selects.
``tests/wire.py`` reaches the reference from the tests.  These tests
replay the whole TESTIV placement corpus — all 16 ranked placements —
under every combination of {blocking, split-phase} × {ring, deque} and
require *bit identity*: final environments, the CollectiveRecord stream,
traffic totals, and a clean drain.  A seeded fault sweep then checks the
two paths present the same message sequence to a hostile fabric: same
recovery, same failure diagnostics, same checkpoint replay.
"""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import RuntimeFault
from repro.mesh import CombineSchedule, OverlapSchedule, build_partition, \
    structured_tri_mesh
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    FaultPlan,
    MachineModel,
    SPMDExecutor,
    SimComm,
    envs_bit_identical,
    parallel_time,
)
from repro.runtime.faults import soak_check
from repro.runtime.halos import combine_complete, combine_post, \
    combine_update, overlap_post, overlap_update
from repro.spec import spec_for_testiv
from tests.wire import TRANSPORTS, WAVES, halo_store, reference_wire

WAVE_BLOCK, WAVE_MESSAGES = WAVES


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


def _run(setup, index, wave, transport="ring", split=False, plan_text=None,
         timeout=0):
    placements, spec, partition, values = setup
    placement = placements.ranked[index].placement
    if split:
        placement = widen_placement(placements.vfg, placement)
    plan = FaultPlan.parse(plan_text) if plan_text else None
    ex = SPMDExecutor(placements.sub, spec, placement, partition)
    with reference_wire(transport, wave):
        return ex.run(dict(values), faults=plan, comm_timeout=timeout)


def _record_stream(stats):
    return [(r.label, r.msgs, r.words, r.window, r.overlap_steps)
            for r in stats.collectives]


def _assert_twin(block, msgs, where):
    diff = envs_bit_identical(block.envs, msgs.envs)
    assert diff is None, f"{where}: {diff}"
    assert block.rank_steps == msgs.rank_steps, where
    assert _record_stream(block.stats) == _record_stream(msgs.stats), where
    assert block.stats.total_messages() == msgs.stats.total_messages(), where
    assert block.stats.total_words() == msgs.stats.total_words(), where
    assert block.stats.retries == msgs.stats.retries, where
    assert block.stats.retransmits == msgs.stats.retransmits, where


class TestCorpusWaveDifferential:
    """All 16 placements × {blocking, split} × {ring, deque}.

    The executor itself asserts a clean drain (``assert_drained`` and
    ``assert_no_pending_requests`` run on every successful ``run()``),
    so a completed pair here *is* a drained pair.
    """

    def test_all_16_placements_both_phases_both_transports(self, setup):
        placements = setup[0]
        assert len(placements.ranked) == 16
        for index in range(16):
            for split in (False, True):
                for transport in TRANSPORTS:
                    block = _run(setup, index, WAVE_BLOCK, transport, split)
                    msgs = _run(setup, index, WAVE_MESSAGES, transport,
                                split)
                    _assert_twin(block, msgs,
                                 f"placement #{index} split={split} "
                                 f"{transport}")


class TestWaveFaultRegression:
    """A hostile fabric must not tell the two wave paths apart."""

    #: the first fresh tag — the corpus' first overlap/gather window
    HALO_TAG = SimComm.FRESH_TAG_BASE

    def test_reorder_on_halo_tag_bit_identical(self, setup):
        clean = _run(setup, 0, WAVE_BLOCK)
        for wave in WAVES:
            res = _run(setup, 0, wave,
                       plan_text=f"reorder tag={self.HALO_TAG}; seed=11")
            diff = envs_bit_identical(clean.envs, res.envs)
            assert diff is None, f"{wave}: {diff}"

    def test_drop_with_retransmit_same_recovery(self, setup):
        runs = {wave: _run(setup, 0, wave,
                           plan_text="drop count=2; seed=3", timeout=16)
                for wave in WAVES}
        _assert_twin(runs[WAVE_BLOCK], runs[WAVE_MESSAGES],
                     "drop count=2 seed=3")
        assert runs[WAVE_BLOCK].stats.retransmits > 0

    @pytest.mark.parametrize("plan_text", ["corrupt count=1; seed=4",
                                           "corrupt prob=0.05; seed=11"])
    def test_corrupt_same_damage(self, setup, plan_text):
        # a flipped payload changes values, so the clean run is no
        # reference; both paths must still take the same damage
        clean = _run(setup, 0, WAVE_BLOCK)
        runs = {wave: _run(setup, 0, wave, plan_text=plan_text)
                for wave in WAVES}
        _assert_twin(runs[WAVE_BLOCK], runs[WAVE_MESSAGES], plan_text)
        assert envs_bit_identical(clean.envs,
                                  runs[WAVE_BLOCK].envs) is not None

    def test_duplicate_on_halo_tag_same_failure(self, setup):
        # a duplicated halo message leaves a stray on the wire; both
        # paths must fail the post-run drain with the same report
        texts = {}
        for wave in WAVES:
            with pytest.raises(RuntimeFault) as err:
                _run(setup, 0, wave,
                     plan_text=f"duplicate tag={self.HALO_TAG} count=1; "
                               f"seed=2")
            texts[wave] = str(err.value)
        assert texts[WAVE_BLOCK] == texts[WAVE_MESSAGES]

    def test_kill_and_replay_bit_identical(self, setup):
        clean = _run(setup, 0, WAVE_BLOCK)
        runs = {wave: _run(setup, 0, wave,
                           plan_text="kill rank=1 event=4; seed=6")
                for wave in WAVES}
        for wave, res in runs.items():
            assert any("rolled back" in f for f in res.timeline.faults), wave
            diff = envs_bit_identical(clean.envs, res.envs)
            assert diff is None, f"{wave}: {diff}"


class TestWaveEligibility:
    """The flat store picks the wire: what it cannot hold goes
    per-message."""

    def _schedule(self):
        idx = np.array([0], dtype=np.int64)
        return OverlapSchedule(entity="node", sends=[{1: idx}, {}],
                               recvs=[{}, {0: idx}])

    def test_non_float64_falls_back_to_messages(self):
        comm = SimComm(2)
        envs = [{"v": np.arange(4, dtype=np.int64)},
                {"v": np.zeros(4, dtype=np.int64)}]
        pending = overlap_post(comm, envs, "v", self._schedule(),
                               store=halo_store(WAVE_BLOCK, envs, "v"))
        assert pending.field is None

    def test_float64_takes_the_block_path(self):
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0)}, {"v": np.zeros(4)}]
        pending = overlap_post(comm, envs, "v", self._schedule(),
                               store=halo_store(WAVE_BLOCK, envs, "v"))
        assert pending.field is not None
        assert pending.recv_side is not None

    def test_empty_wave_completes(self):
        # ranks sharing nothing: the block path must move zero words and
        # count zero traffic, like the per-message path always has
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0)}, {"v": np.zeros(4)}]
        sched = OverlapSchedule(entity="node", sends=[{}, {}],
                                recvs=[{}, {}])
        overlap_update(comm, envs, "v", sched,
                       store=halo_store(WAVE_BLOCK, envs, "v"))
        comm.assert_drained()
        assert comm.stats.total_messages() == 0


class TestCombineWaveOps:
    """Every combine operator rounds identically on both wave paths."""

    def _schedule(self):
        i01 = np.array([1, 2], dtype=np.int64)
        return CombineSchedule(
            entity="node",
            gather_sends=[{}, {0: i01}],
            gather_recvs=[{1: i01}, {}],
            return_sends=[{1: i01}, {}],
            return_recvs=[{}, {0: i01}])

    @pytest.mark.parametrize("op", ["+", "*", "max", "min"])
    def test_ops_bit_identical(self, op):
        rng = np.random.default_rng(5)
        base = [rng.standard_normal(4), rng.standard_normal(4)]
        outs = {}
        for wave in WAVES:
            envs = [{"v": base[0].copy()}, {"v": base[1].copy()}]
            comm = SimComm(2)
            combine_update(comm, envs, "v", self._schedule(), op=op,
                           store=halo_store(wave, envs, "v"))
            comm.assert_drained()
            outs[wave] = envs
        diff = envs_bit_identical(outs[WAVE_BLOCK], outs[WAVE_MESSAGES])
        assert diff is None, f"op {op}: {diff}"

    def test_split_phase_combine_bit_identical(self):
        rng = np.random.default_rng(9)
        base = [rng.standard_normal(4), rng.standard_normal(4)]
        outs = {}
        for wave in WAVES:
            envs = [{"v": base[0].copy()}, {"v": base[1].copy()}]
            comm = SimComm(2)
            pending = combine_post(comm, envs, "v", self._schedule(),
                                   op="+", store=halo_store(wave, envs, "v"))
            assert (pending.field is not None) == (wave == WAVE_BLOCK)
            combine_complete(pending)
            comm.assert_drained()
            comm.assert_no_pending_requests()
            outs[wave] = envs
        diff = envs_bit_identical(outs[WAVE_BLOCK], outs[WAVE_MESSAGES])
        assert diff is None, diff


class TestPerfModelWaves:
    def test_halo_wave_amortizes_latency(self, setup):
        res = _run(setup, 0, WAVE_BLOCK)
        model = MachineModel()
        per_msg = parallel_time(res.rank_steps, res.stats, model)
        waved = parallel_time(res.rank_steps, res.stats, model,
                              halo_wave=True)
        # same words cross the wire, but message setup is amortized
        assert waved.comm_volume == per_msg.comm_volume
        assert waved.comm_latency < per_msg.comm_latency
        assert waved.compute == per_msg.compute

    def test_reduce_latency_unchanged(self, setup):
        # only overlap:/combine: records amortize; the binomial reduce
        # keeps its per-message alpha charge
        res = _run(setup, 0, WAVE_BLOCK)
        model = MachineModel(beta=0.0)
        reduce_lat = sum(
            model.alpha * max(rec.msgs)
            for rec in res.stats.collectives
            if rec.label.startswith("reduce["))
        waved = parallel_time(res.rank_steps, res.stats, model,
                              halo_wave=True)
        halo_records = [rec for rec in res.stats.collectives
                        if not rec.label.startswith("reduce[")
                        and max(rec.msgs) > 0]
        expected = reduce_lat + sum(
            model.alpha * (2 if rec.label.startswith("combine:")
                           and rec.window == "blocking" else 1)
            for rec in halo_records)
        assert waved.comm_latency == pytest.approx(expected)


@pytest.mark.soak
class TestProbabilisticSoak:
    """Scheduled-CI soak: low-rate seeded faults over the corpus.

    Deselected from the tier-1 run by the ``-m 'not soak'`` addopts;
    the scheduled workflow runs ``pytest -m soak``.
    """

    @pytest.mark.parametrize("wave", WAVES)
    def test_soak_slice_clean(self, setup, wave):
        placements, spec, partition, values = setup
        with reference_wire(wave=wave):
            failures = soak_check(placements, spec, partition, values,
                                  seeds=(11, 23), prob=0.05,
                                  indices=[0, 7, 15])
        assert not failures, "\n".join(failures)
