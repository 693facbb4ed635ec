"""Tests for the sender-side message log backing localized restart."""

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.runtime import CollectiveRecord, MessageLog, ReplayFilter, SimComm


class TestRecordRoundTrip:
    def test_float64_payload_bit_exact(self):
        log = MessageLog()
        arr = np.array([1.5, -0.0, np.pi])
        log.record(0, 1, 7, arr)
        out = log.payload(0)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.float64
        out[0] = 99.0  # fresh copy, not a slab view
        np.testing.assert_array_equal(log.payload(0), arr)

    def test_int64_payload_rides_the_slab_bit_exactly(self):
        log = MessageLog()
        arr = np.array([-(1 << 62), 0, 7], np.int64)
        log.record(2, 0, 3, arr)
        out = log.payload(0)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, arr)

    def test_scalar_and_odd_payloads_use_object_table(self):
        log = MessageLog()
        log.record(0, 1, 7, 2.5)
        log.record(0, 1, 7, np.zeros((2, 2)))
        assert log.payload(0) == 2.5
        np.testing.assert_array_equal(log.payload(1), np.zeros((2, 2)))
        assert log.entries() == [(0, 1, 7, 0, 1), (0, 1, 7, 1, 4)]

    def test_growth_past_initial_capacity(self):
        log = MessageLog(capacity=2, slab_words=4)
        for i in range(10):
            log.record(0, 1, i, np.full(3, float(i)))
        assert log.mark() == 10
        for i in range(10):
            np.testing.assert_array_equal(log.payload(i), np.full(3, float(i)))


class TestWaveRecording:
    def test_record_block_matches_per_message_records(self):
        rng = np.random.default_rng(3)
        payloads = [rng.standard_normal(n) for n in (2, 5, 1)]
        srcs, dsts = [0, 1, 2], [1, 2, 0]
        words = np.array([p.size for p in payloads])
        block = np.concatenate(payloads)

        a = MessageLog()
        a.record_block(srcs, dsts, 9, block, words)
        b = MessageLog()
        for s, d, p in zip(srcs, dsts, payloads):
            b.record(s, d, 9, p)
        assert a.entries() == b.entries()
        for seq in range(3):
            np.testing.assert_array_equal(a.payload(seq), b.payload(seq))

    def test_record_block_empty_is_a_no_op(self):
        log = MessageLog()
        log.record_block([], [], 5, np.zeros(0), np.zeros(0, np.int64))
        assert log.mark() == 0

    def test_record_batch_matches_per_message_records(self):
        payloads = [np.arange(2.0), np.arange(4.0)]
        a = MessageLog()
        a.record_batch(np.array([0, 1]), np.array([1, 0]), 4, payloads)
        b = MessageLog()
        b.record(0, 1, 4, payloads[0])
        b.record(1, 0, 4, payloads[1])
        assert a.entries() == b.entries()


class TestTruncation:
    def _filled(self):
        log = MessageLog()
        log.record(0, 1, 7, np.arange(3.0))
        log.record(1, 0, 7, np.array([5, 6], np.int64))
        log.record(0, 1, 9, 2.5)
        return log

    def test_seq_stamps_survive_truncation(self):
        log = self._filled()
        log.truncate_before(1)
        assert log.entries() == [(1, 0, 7, 1, 2), (0, 1, 9, 2, 1)]
        assert log.mark() == 3 and log.live_entries == 2
        np.testing.assert_array_equal(log.payload(1),
                                      np.array([5, 6], np.int64))
        assert log.payload(2) == 2.5

    def test_truncated_seq_unreachable(self):
        log = self._filled()
        log.truncate_before(2)
        with pytest.raises(RuntimeFault, match="outside the retained"):
            log.payload(0)

    def test_truncate_is_idempotent_and_monotone(self):
        log = self._filled()
        log.truncate_before(1)
        log.truncate_before(1)
        log.truncate_before(0)  # older marks are no-ops
        assert log.live_entries == 2
        log.record(2, 0, 1, np.ones(4))
        assert log.mark() == 4
        assert log.live_words == 2 + 1 + 4


class TestReplayOnto:
    def test_replays_only_the_target_ranks_window(self):
        comm = SimComm(3)
        log = MessageLog()
        log.record(0, 1, 7, np.arange(2.0))   # pre-window (seq 0)
        log.record(0, 1, 7, np.arange(3.0))
        log.record(2, 1, 7, np.arange(4.0))
        log.record(0, 2, 7, np.arange(5.0))   # other destination
        n, words = log.replay_onto(comm, 1, start_mark=1)
        assert (n, words) == (2, 7)
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.arange(3.0))
        np.testing.assert_array_equal(comm._recv(2, 1, 7), np.arange(4.0))
        assert comm.pending_messages() == 0

    def test_wire_residue_skipped_per_channel(self):
        # seq 1's original is still sitting unconsumed on the wire (an
        # open split window): replay must push seq 0 only.
        comm = SimComm(2)
        comm._transport.push(0, 1, 7, np.full(3, 9.0))
        log = MessageLog()
        log.record(0, 1, 7, np.arange(3.0))
        log.record(0, 1, 7, np.full(3, 9.0))
        n, words = log.replay_onto(comm, 1, start_mark=0)
        assert (n, words) == (1, 3)
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.full(3, 9.0))
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.arange(3.0))


class TestReplayFilter:
    def _log(self):
        log = MessageLog()
        log.record(1, 0, 7, np.arange(3.0))
        log.record(1, 2, 7, np.arange(2.0))
        log.record(0, 1, 7, np.arange(4.0))  # not rank 1's send
        return log

    def test_consumes_channel_fifo_entries(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        assert filt.suppress(1, 0, 7, 3)
        assert filt.suppress(1, 2, 7, 2)
        assert filt.suppressed == 2 and filt.suppressed_words == 5

    def test_other_ranks_sends_pass_through(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        assert not filt.suppress(0, 1, 7, 4)
        assert filt.suppressed == 0

    def test_word_mismatch_is_a_divergence(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        with pytest.raises(RuntimeFault, match="diverged"):
            filt.suppress(1, 0, 7, 99)

    def test_unlogged_resend_suppressed_leniently(self):
        # the original is parked in a fault-fabric ledger: no logged
        # counterpart, but the re-send must still be discarded
        filt = ReplayFilter(self._log(), rank=1, start_mark=3)
        assert filt.suppress(1, 0, 7, 3)
        assert filt.suppressed == 1

    def test_start_mark_restricts_the_window(self):
        log = self._log()
        log.record(1, 0, 7, np.arange(5.0))
        filt = ReplayFilter(log, rank=1, start_mark=2)
        assert filt.suppress(1, 0, 7, 5)  # only seq 3 is in the window
        with pytest.raises(RuntimeFault, match="diverged"):
            ReplayFilter(log, rank=1, start_mark=0).suppress(1, 0, 7, 5)


class TestReplayWindow:
    def test_end_replay_restores_the_live_fabric_state(self):
        # begin_replay hands the replayed rank the checkpoint's tags;
        # end_replay puts back the live counter and pending requests and
        # drops whatever the replay logged as collectives
        comm = SimComm(2)
        tag = comm.fresh_tag()
        live = comm.view(1).irecv(source=0, tag=tag)
        newest = max(comm.fresh_tag(), comm.fresh_tag())
        comm.begin_replay(ReplayFilter(MessageLog(), rank=0, start_mark=0),
                          next_tag=tag)
        assert comm.fresh_tag() == tag  # the original window's tag again
        comm.view(0).isend(np.zeros(2), dest=1, tag=tag)  # suppressed
        comm.view(0).irecv(source=1, tag=tag)
        comm.stats.collectives.append(
            CollectiveRecord(label="overlap:u", msgs=[0, 0], words=[0, 0]))
        comm.end_replay()
        assert comm.fresh_tag() == newest + 1
        assert comm.pending_requests() == [live]
        assert comm.stats.collectives == []
        assert comm.pending_messages() == 0
        assert comm.stats.total_messages() == 0
