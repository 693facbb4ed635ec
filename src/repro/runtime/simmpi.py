"""SimMPI — a deterministic in-process message-passing fabric.

The PVM/MPI substitute (paper references [3]/[8]): the generated SPMD
program only needs tagged point-to-point messages plus the collectives
built on them (:mod:`repro.runtime.halos`).  Running everything in one
process makes cross-rank executions bit-reproducible — which is what lets
the test suite compare SPMD against sequential runs exactly.

Besides blocking ``send``/``recv``, each rank has nonblocking
``isend``/``irecv`` returning a :class:`Request` handle; payloads are
captured by value at post time, so a split-phase exchange transfers
exactly the bytes a blocking call at the post point would have.  The
communicator tracks every outstanding request —
:meth:`SimComm.assert_no_pending_requests` is the leak detector that
catches a POST whose WAIT never ran.

The wire itself is pluggable (``SimComm(size, transport=...)``): the
default ``"ring"`` transport keeps message headers in a preallocated
numpy structured array and payloads in a float64 slab so whole-fabric
scans are vectorized, while ``"deque"`` retains the original
deque-per-channel implementation as a reference oracle — see
:mod:`repro.runtime.ringbuf`.  Collectives move whole waves at once
through :meth:`SimComm.isend_batch` / :meth:`SimComm.recv_block`, which
the ring transport serves without touching Python per message.

Every send is accounted (message count, payload words) per (source,
destination) pair; :mod:`repro.runtime.perfmodel` turns the ledger into
simulated wall-clock time.

>>> comm = SimComm(2)
>>> comm.view(0).send([1, 2, 3], dest=1, tag=7)
>>> comm.view(1).recv(source=0, tag=7)
[1, 2, 3]
>>> comm.stats.total_messages(), comm.stats.total_words()
(1, 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..errors import CommTimeout, RuntimeFault
from .ringbuf import MISSING, make_transport


@dataclass
class CollectiveRecord:
    """One logged collective: traffic plus its window kind.

    ``window`` is ``"blocking"`` for a classic collective, ``"posted"`` for
    the initiating half of a split-phase exchange and ``"waited"`` for the
    completing half; ``overlap_steps`` (set on waited records) is the
    smallest number of interpreter steps any rank computed between post and
    wait — the budget available for hiding latency.  Iterating yields the
    legacy ``(label, msgs, words)`` triple as *copies*, so unpacking a
    record can never mutate the ledger.

    >>> rec = CollectiveRecord(label="overlap:u", msgs=[1, 1], words=[4, 4])
    >>> label, msgs, words = rec
    >>> msgs[0] = 99; rec.msgs
    [1, 1]
    """

    label: str
    msgs: list[int]
    words: list[int]
    window: str = "blocking"
    overlap_steps: int = 0

    def __iter__(self):
        return iter((self.label, list(self.msgs), list(self.words)))

    def clone(self) -> "CollectiveRecord":
        return CollectiveRecord(label=self.label, msgs=list(self.msgs),
                                words=list(self.words), window=self.window,
                                overlap_steps=self.overlap_steps)


#: singles are flushed into an immutable array chunk at this length
_FLUSH_AT = 1 << 15


class CommStats:
    """Ledger of all traffic through one communicator.

    Sends are recorded as an append-only event log (numpy chunks for
    batched waves, Python lists for stragglers) plus eagerly maintained
    per-rank counters, so the executor's per-collective bookkeeping is
    O(ranks) array arithmetic instead of a Python sweep over every
    (src, dst) pair.  The classic per-pair dictionaries are still
    available as :attr:`messages` / :attr:`words`, materialized lazily
    from the log.

    >>> st = CommStats()
    >>> st.note(0, 1, 10); st.note(1, 0, 4)
    >>> st.messages[(0, 1)], st.words[(1, 0)]
    (1, 4)
    >>> st.rank_messages(1)
    2
    """

    def __init__(self):
        #: per-collective log (label, per-rank message count, per-rank words
        #: triples, plus the window kind) — see :class:`CollectiveRecord`
        self.collectives: list[CollectiveRecord] = []
        #: fault-tolerance accounting (all zero on a perfect fabric): receive
        #: retry polls, retransmitted messages and their words — charged by
        #: :func:`repro.runtime.perfmodel.parallel_time`
        self.retries = 0
        self.retransmits = 0
        self.retransmit_words = 0
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._s: list[int] = []
        self._d: list[int] = []
        self._w: list[int] = []
        self._rank_msgs = np.zeros(0, np.int64)
        self._rank_wrds = np.zeros(0, np.int64)
        #: batched chunks not yet folded into the per-rank counters
        self._unfolded: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._nmsgs = 0
        self._nwords = 0
        self._pair_cache: Optional[tuple[dict, dict]] = None

    # -- recording -----------------------------------------------------------

    def _ensure_ranks(self, hi: int) -> None:
        if hi >= len(self._rank_msgs):
            grow = max(hi + 1, 2 * len(self._rank_msgs))
            m = np.zeros(grow, np.int64)
            m[:len(self._rank_msgs)] = self._rank_msgs
            w = np.zeros(grow, np.int64)
            w[:len(self._rank_wrds)] = self._rank_wrds
            self._rank_msgs, self._rank_wrds = m, w

    def note(self, src: int, dst: int, nwords: int) -> None:
        """Record one message of ``nwords`` payload words."""
        self._s.append(src)
        self._d.append(dst)
        self._w.append(nwords)
        if len(self._s) >= _FLUSH_AT:
            self._flush()
        self._ensure_ranks(src if src > dst else dst)
        self._rank_msgs[src] += 1
        self._rank_wrds[src] += nwords
        if dst != src:
            self._rank_msgs[dst] += 1
            self._rank_wrds[dst] += nwords
        self._nmsgs += 1
        self._nwords += nwords
        self._pair_cache = None

    def note_batch(self, srcs: np.ndarray, dsts: np.ndarray,
                   words: np.ndarray) -> None:
        """Record one wave of messages with three array columns.

        The wave is logged immediately; folding it into the per-rank
        counters is deferred until a counter is read, so a send-side hot
        loop pays one list append per wave, not four bincounts.  The
        columns are copied on ingest: chunks are immutable once in the
        ledger (clones share them), so the ledger must own them even if
        the caller reuses or mutates its buffers afterwards.
        """
        n = len(srcs)
        if n == 0:
            return
        self._flush()
        chunk = (np.array(srcs, np.int64), np.array(dsts, np.int64),
                 np.array(words, np.int64))
        self._chunks.append(chunk)
        self._unfolded.append(chunk)
        self._nmsgs += n
        self._nwords += int(words.sum())
        self._pair_cache = None

    def _fold(self) -> None:
        """Apply deferred batch chunks to the per-rank counters."""
        for srcs, dsts, words in self._unfolded:
            hi = max(int(srcs.max()), int(dsts.max()))
            self._ensure_ranks(hi)
            size = hi + 1
            self._rank_msgs[:size] += np.bincount(srcs, minlength=size)
            self._rank_wrds[:size] += np.bincount(
                srcs, weights=words, minlength=size).astype(np.int64)
            off = dsts != srcs
            if off.any():
                self._rank_msgs[:size] += np.bincount(dsts[off],
                                                      minlength=size)
                self._rank_wrds[:size] += np.bincount(
                    dsts[off], weights=words[off],
                    minlength=size).astype(np.int64)
        self._unfolded = []

    def _flush(self) -> None:
        if self._s:
            self._chunks.append((np.asarray(self._s, np.int64),
                                 np.asarray(self._d, np.int64),
                                 np.asarray(self._w, np.int64)))
            self._s, self._d, self._w = [], [], []

    # -- totals and per-rank counters ----------------------------------------

    def total_messages(self) -> int:
        return self._nmsgs

    def total_words(self) -> int:
        return self._nwords

    def rank_messages(self, rank: int) -> int:
        """Messages rank sent or received (self-sends counted once)."""
        self._fold()
        return int(self._rank_msgs[rank]) if rank < len(self._rank_msgs) \
            else 0

    def rank_words(self, rank: int) -> int:
        self._fold()
        return int(self._rank_wrds[rank]) if rank < len(self._rank_wrds) \
            else 0

    def rank_counters(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(messages, words) per rank as two length-``size`` arrays.

        The vectorized bulk form of :meth:`rank_messages` /
        :meth:`rank_words`; the halo collectives diff two of these to log a
        :class:`CollectiveRecord` in O(ranks).
        """
        self._fold()
        msgs = np.zeros(size, np.int64)
        wrds = np.zeros(size, np.int64)
        n = min(size, len(self._rank_msgs))
        msgs[:n] = self._rank_msgs[:n]
        wrds[:n] = self._rank_wrds[:n]
        return msgs, wrds

    # -- per-pair dictionaries (lazy) ----------------------------------------

    def _pairs(self) -> tuple[dict, dict]:
        if self._pair_cache is None:
            self._flush()
            msgs: dict[tuple[int, int], int] = {}
            wrds: dict[tuple[int, int], int] = {}
            for s_arr, d_arr, w_arr in self._chunks:
                for s, d, w in zip(s_arr.tolist(), d_arr.tolist(),
                                   w_arr.tolist()):
                    key = (s, d)
                    msgs[key] = msgs.get(key, 0) + 1
                    wrds[key] = wrds.get(key, 0) + w
            self._pair_cache = (msgs, wrds)
        return self._pair_cache

    @property
    def messages(self) -> dict[tuple[int, int], int]:
        """Message count per (src, dst) pair, built on demand."""
        return self._pairs()[0]

    @property
    def words(self) -> dict[tuple[int, int], int]:
        """Payload words per (src, dst) pair, built on demand."""
        return self._pairs()[1]

    # -- snapshots -----------------------------------------------------------

    def clone(self) -> "CommStats":
        """Deep copy, for checkpoint snapshots.

        Event-log chunks are immutable once flushed, so the clone shares
        them; counters and collective records are copied.
        """
        self._flush()
        self._fold()
        cp = CommStats()
        cp.collectives = [rec.clone() for rec in self.collectives]
        cp.retries = self.retries
        cp.retransmits = self.retransmits
        cp.retransmit_words = self.retransmit_words
        cp._chunks = list(self._chunks)
        cp._rank_msgs = self._rank_msgs.copy()
        cp._rank_wrds = self._rank_wrds.copy()
        cp._nmsgs = self._nmsgs
        cp._nwords = self._nwords
        return cp


def _payload_words(obj: Any) -> int:
    """Accounting size of a payload in fabric words.

    >>> _payload_words(np.zeros(5))
    5
    >>> _payload_words([1, 2, (3, 4)])
    4
    """
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (int, float, bool, np.number)):
        return 1
    if isinstance(obj, (list, tuple)):
        return sum(_payload_words(o) for o in obj)
    return 1


class SimComm:
    """A communicator over ``size`` simulated ranks.

    The mpi4py-style per-rank handle is :class:`RankComm`
    (``comm.view(rank)``); this object owns the wire and the ledger.
    ``transport`` selects the wire implementation — ``"ring"`` (default,
    vectorized) or ``"deque"`` (reference oracle); see
    :mod:`repro.runtime.ringbuf`.

    >>> comm = SimComm(3, transport="deque")
    >>> comm.transport_name
    'deque'
    >>> reqs = comm.isend_batch([0, 0], [1, 2], [np.arange(2.0)] * 2, tag=5)
    >>> comm.pending_channels()
    [(0, 1, 5, 1), (0, 2, 5, 1)]
    >>> comm.view(2).recv(source=0, tag=5)
    array([0., 1.])
    """

    #: first tag handed out by :meth:`fresh_tag` — above every static tag
    #: used by the halo collectives
    FRESH_TAG_BASE = 1000

    def __init__(self, size: int, transport: Optional[str] = None):
        if size < 1:
            raise RuntimeFault("communicator needs at least one rank")
        self.size = size
        self._transport = make_transport(transport)
        self._next_tag = self.FRESH_TAG_BASE
        self._pending_requests: set["Request"] = set()
        self.stats = CommStats()
        #: receive retry budget in fabric steps; 0 keeps the historical
        #: fail-fast behaviour (an empty queue is an immediate deadlock)
        self.comm_timeout = 0
        #: sender-side message log for localized restart — installed by
        #: the executor only when ``recovery="local"`` is armed; the
        #: default fault-free path pays one ``is not None`` check per wave
        self.msglog = None
        #: duplicate-suppression filter, non-None only while a killed
        #: rank is being re-driven against the log
        self._replay = None

    @property
    def transport_name(self) -> str:
        """Name of the active wire implementation (``ring`` or ``deque``)."""
        return self._transport.name

    def fresh_tag(self) -> int:
        """A tag no other exchange uses — isolates one split-phase window."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def view(self, rank: int) -> "RankComm":
        if not 0 <= rank < self.size:
            raise RuntimeFault(f"rank {rank} out of range 0..{self.size - 1}")
        return RankComm(self, rank)

    def views(self) -> list["RankComm"]:
        return [self.view(r) for r in range(self.size)]

    # -- transport ----------------------------------------------------------

    def _send(self, src: int, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.size:
            raise RuntimeFault(f"send to invalid rank {dest}")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()  # messages are by value
        if self._replay is not None and self._replay.suppress(
                src, dest, tag, _payload_words(payload)):
            return  # replay duplicate: peers consumed the original long ago
        self.stats.note(src, dest, _payload_words(payload))
        self._deliver(src, dest, tag, payload)

    def _deliver(self, src: int, dest: int, tag: int, payload: Any) -> None:
        """Place an already-accounted, already-captured message on the wire.

        The fault-injection fabric (:mod:`repro.runtime.faults`) overrides
        exactly this hook to drop/delay/reorder/duplicate/corrupt.
        """
        self._transport.push(src, dest, tag, payload)
        if self.msglog is not None:
            self.msglog.record(src, dest, tag, payload)

    def _send_batch(self, srcs, dsts, tag: int, payloads: list) -> None:
        """Account and deliver one wave of messages.

        Equivalent to ``for …: _send(…)`` in delivery order per channel and
        in accounting, but the stats update is one ``note_batch`` and the
        clean-fabric delivery is one transport ``push_batch`` (for the ring
        transport: one header write plus one slab copy).
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        if len(dsts) == 0:
            return
        if int(dsts.min()) < 0 or int(dsts.max()) >= self.size:
            bad = [d for d in dsts.tolist() if not 0 <= d < self.size]
            raise RuntimeFault(f"send to invalid rank {bad[0]}")
        if self._replay is not None:
            # replay is rare and single-rank: route per message so every
            # re-emitted send meets the suppression filter individually
            for s, d, p in zip(srcs.tolist(), dsts.tolist(), payloads):
                self._send(int(s), int(d), tag, p)
            return
        if all(isinstance(p, np.ndarray) for p in payloads):
            words = np.fromiter((p.size for p in payloads), np.int64,
                                len(payloads))
        else:
            words = np.asarray([_payload_words(p) for p in payloads],
                               np.int64)
        self.stats.note_batch(srcs, dsts, words)
        self._deliver_batch(srcs, dsts, tag, payloads)

    def _deliver_batch(self, srcs: np.ndarray, dsts: np.ndarray, tag: int,
                       payloads: list) -> None:
        """Wave-delivery hook; payloads are captured by the transport.

        The fault fabric overrides this to peel off the rule-matched
        messages with one boolean mask and route only those through the
        per-message rule engine.
        """
        self._transport.push_batch(srcs, dsts, tag, payloads)
        if self.msglog is not None:
            self.msglog.record_batch(srcs, dsts, tag, payloads)

    def _recv(self, src: int, dest: int, tag: int) -> Any:
        key = (src, dest, tag)
        payload = self._transport.pop(src, dest, tag)
        if payload is not MISSING:
            return payload
        for _ in range(self.comm_timeout):
            self.stats.retries += 1
            self._progress(key)
            payload = self._transport.pop(src, dest, tag)
            if payload is not MISSING:
                return payload
        if self.comm_timeout:
            reason = (f"timed out after {self.comm_timeout} retry step(s) "
                      f"with no message")
        else:
            reason = ("no message pending — deadlock in the communication "
                      "schedule")
        raise CommTimeout(
            f"rank {dest} receive from {src} (tag {tag}): {reason}"
            f"{self._ledger_text()}",
            src=src, dst=dest, tag=tag, waited=self.comm_timeout,
            ledger=self.ledger())

    def recv_batch(self, srcs, dsts, tag: int = 0) -> list:
        """Receive one wave of messages, one per (srcs[i], dsts[i]) channel.

        Matching order is exactly sequential ``recv`` order (the i-th
        request on a channel takes its i-th oldest message); the ring
        transport resolves the whole wave with one sorted scan when every
        message has already arrived, and any miss falls back to the
        retrying per-message path so timeout/fault semantics are identical.
        """
        out = self._transport.pop_batch(srcs, dsts, tag)
        if out is not MISSING:
            return out
        return [self._recv(int(s), int(d), tag)
                for s, d in zip(srcs, dsts)]

    def recv_block(self, srcs, dsts, tag: int = 0):
        """Receive one wave as a single float64 block.

        Returns ``(block, words)`` where ``block`` is every payload
        back-to-back in request order and ``words[i]`` is the i-th payload
        length.  This is the fully vectorized receive path: on the ring
        transport no per-message Python object is created.  Falls back to
        per-message receives (same semantics) when the transport declines.
        """
        out = self._transport.pop_block(srcs, dsts, tag)
        if out is not MISSING:
            return out
        payloads = [self._recv(int(s), int(d), tag)
                    for s, d in zip(srcs, dsts)]
        words = np.asarray([p.size for p in payloads], np.int64)
        block = np.concatenate(payloads) if payloads else \
            np.zeros(0, np.float64)
        return block, words

    def _progress(self, key: tuple[int, int, int]) -> bool:
        """Advance fabric time by one step while a receive is retrying.

        The perfect fabric has nothing to progress; the fault fabric
        releases due delayed messages and retransmits dropped ones here.
        Returns True if anything moved.
        """
        return False

    def pending_messages(self) -> int:
        return self._transport.pending_total()

    def pending_channels(self) -> list[tuple[int, int, int, int]]:
        """Non-empty channels as sorted (src, dst, tag, count) tuples."""
        return self._transport.channels()

    def ledger(self) -> dict:
        """Outstanding fabric state, attached to every :class:`CommTimeout`."""
        return {
            "messages": self.pending_channels(),
            "requests": [repr(r) for r in self.pending_requests()],
        }

    def _ledger_text(self) -> str:
        parts = []
        channels = self.pending_channels()
        if channels:
            parts.append("in flight: " + ", ".join(
                f"{s}->{d} tag={t} x{n}" for s, d, t, n in channels[:8]))
            if len(channels) > 8:
                parts.append(f"… ({len(channels)} channels)")
        reqs = self.pending_requests()
        if reqs:
            parts.append(f"{len(reqs)} pending request(s)")
        return ("; " + "; ".join(parts)) if parts else ""

    def assert_drained(self) -> None:
        """Fail if any message was sent but never received.

        The exception names every leftover (src, dst, tag) channel in
        sorted order — deterministic, CI-diffable, and a fault-injection
        run that duplicates or mis-routes a message must be debuggable
        from the error text alone.
        """
        channels = self.pending_channels()
        if channels:
            total = sum(n for *_c, n in channels)
            detail = ", ".join(f"{s}->{d} tag={t} x{n}"
                               for s, d, t, n in channels[:8])
            more = (f", … ({len(channels)} channels)"
                    if len(channels) > 8 else "")
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC101",
                message=f"{total} message(s) sent but never received: "
                        f"{detail}{more}",
                data={"channels": [list(c) for c in channels]})
            err = RuntimeFault(f"CC101: {diag.message}")
            err.diagnostic = diag
            raise err

    def send_batch(self, srcs, dsts, payloads: list, tag: int = 0) -> None:
        """Blocking-send one wave: account + deliver, no handles.

        Equivalent to ``view(srcs[i]).send(payloads[i], dsts[i], tag)``
        for every i, with the accounting and clean-fabric delivery
        vectorized.
        """
        self._send_batch(srcs, dsts, tag, payloads)

    def send_block(self, srcs, dsts, block, words, tag: int = 0) -> None:
        """Blocking-send one wave as a single concatenated float64 block.

        ``block`` holds every payload back-to-back; message i is the
        ``words[i]``-word slice starting at ``words[:i].sum()``.  The
        natural inverse of :meth:`recv_block` and the fastest send path:
        the ring transport delivers the whole wave with one slab copy and
        one vectorized header write, no per-message Python.  Semantics
        (accounting, channel FIFO order, fault rules) are identical to
        the equivalent :meth:`send_batch` of float64 slices.
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        words = np.ascontiguousarray(words, np.int64)
        if len(words) == 0:
            return
        if int(dsts.min()) < 0 or int(dsts.max()) >= self.size:
            bad = [d for d in dsts.tolist() if not 0 <= d < self.size]
            raise RuntimeFault(f"send to invalid rank {bad[0]}")
        block = np.ascontiguousarray(block, np.float64)
        if block.size != int(words.sum()):
            raise RuntimeFault(
                f"send_block: block holds {block.size} word(s) but the "
                f"words column sums to {int(words.sum())}")
        if self._replay is not None:
            offsets = np.concatenate(([0], np.cumsum(words)))
            for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
                self._send(int(s), int(d), tag,
                           block[offsets[i]:offsets[i + 1]])
            return
        self.stats.note_batch(srcs, dsts, words)
        self._deliver_block(srcs, dsts, tag, block, words)

    def _deliver_block(self, srcs: np.ndarray, dsts: np.ndarray, tag: int,
                       block: np.ndarray, words: np.ndarray) -> None:
        """Block-delivery hook, overridden by the fault fabric.

        The clean fabric hands the wave straight to the transport; the
        fault fabric first applies one boolean rule mask and only splits
        the block if some message actually matched a rule.
        """
        self._transport.push_block(srcs, dsts, tag, block, words)
        if self.msglog is not None:
            self.msglog.record_block(srcs, dsts, tag, block, words)

    # -- nonblocking requests ------------------------------------------------

    def isend_batch(self, srcs, dsts, payloads: list,
                    tag: int = 0) -> list["Request"]:
        """Post one wave of nonblocking sends; payloads captured now.

        Returns the :class:`Request` handles in wave order, with the same
        serial numbering a loop of ``view(s).isend(…)`` calls would
        produce.
        """
        self._send_batch(srcs, dsts, tag, payloads)
        return [Request(self, "send", int(s), int(d), tag)
                for s, d in zip(srcs, dsts)]

    def waitall_recv(self, requests: list["Request"]) -> list:
        """Complete a wave of irecv handles; payloads in request order.

        Semantically ``[r.wait() for r in requests]``, but when every
        message has already arrived the whole wave resolves with one
        vectorized transport match.  Any miss (or mixed tags) falls back
        to sequential waits, so retry/timeout behaviour under faults is
        exactly the sequential one.
        """
        if not requests:
            return []
        tag = requests[0].tag
        out = MISSING
        if all(r.kind == "recv" and not r.done and r.tag == tag
               for r in requests):
            out = self._transport.pop_batch([r.src for r in requests],
                                            [r.dest for r in requests], tag)
        if out is MISSING:
            return [r.wait() for r in requests]
        for r in requests:
            r.done = True
            self._pending_requests.discard(r)
        return out

    def pending_requests(self) -> list["Request"]:
        """Outstanding isend/irecv handles nobody has waited on yet,
        sorted by (src, dst, tag, serial) for deterministic diagnostics."""
        return sorted(self._pending_requests,
                      key=lambda r: (r.src, r.dest, r.tag, r.serial))

    def assert_no_pending_requests(self) -> None:
        """Leak detector: fail if any request was posted but never waited.

        Every leaked request is named with its kind and (src, dst, tag)
        channel, in sorted channel order so the failure text is
        deterministic across runs and diffable in CI logs.
        """
        left = self.pending_requests()
        if left:
            detail = ", ".join(str(r) for r in left[:8])
            more = f", … ({len(left)} total)" if len(left) > 8 else ""
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC102",
                message=f"{len(left)} request(s) posted but never waited: "
                        f"{detail}{more}",
                data={"requests": [[r.kind, r.src, r.dest, r.tag]
                                   for r in left]})
            err = RuntimeFault(f"CC102: {diag.message}")
            err.diagnostic = diag
            raise err

    # -- localized restart ---------------------------------------------------

    def begin_replay(self, filt, next_tag: int) -> None:
        """Install a :class:`~repro.runtime.msglog.ReplayFilter`.

        While installed, every send is checked against the filter first:
        replay duplicates (sends the recovering rank re-emits while being
        re-driven against the message log) are discarded before any
        accounting, so the ledger stays exactly the fault-free one.
        Replayed windows draw their original tags from ``next_tag``.
        """
        self._replay = filt
        self._live_state = (self._next_tag, set(self._pending_requests),
                      len(self.stats.collectives))
        self._next_tag = next_tag

    def end_replay(self):
        """Remove the replay filter; returns it for its counters.

        Restores the live tag counter and pending requests (the survivors
        close a still-open window through its original requests) and
        drops the replay's collective records.
        """
        filt, self._replay = self._replay, None
        self._next_tag, self._pending_requests, ncoll = self._live_state
        del self.stats.collectives[ncoll:]
        return filt

    # -- checkpoint support --------------------------------------------------

    def transport_snapshot(self) -> dict:
        """Freeze the accounting state and the wire for a checkpoint.

        The wire is serialized by the transport itself — for the ring
        transport that is a direct copy of the live header rows plus
        materialized payloads (empty at the quiescent points where
        checkpoints are taken).  Fabric subclasses extend the dict with
        their own clocks/ledgers.
        """
        return {"next_tag": self._next_tag, "stats": self.stats.clone(),
                "wire": self._transport.snapshot()}

    def transport_restore(self, snap: dict) -> None:
        """Rewind to a :meth:`transport_snapshot` (checkpoint recovery)."""
        self._transport.restore(snap["wire"])
        self._pending_requests.clear()
        self._next_tag = snap["next_tag"]
        self.stats = snap["stats"].clone()


class Request:
    """Handle for one nonblocking operation; :meth:`wait` completes it.

    An isend captures its payload by value immediately (so later writes to
    the source array cannot alter the message) and its wait is pure
    bookkeeping; an irecv's wait performs the matching dequeue and returns
    the payload.  Waiting twice is an error — the executor's post/wait
    pairing is meant to be exactly one-to-one.
    """

    _serial = 0

    def __init__(self, comm: SimComm, kind: str, src: int, dest: int,
                 tag: int):
        self.comm = comm
        self.kind = kind  # "send" | "recv"
        self.src = src
        self.dest = dest
        self.tag = tag
        self.done = False
        Request._serial += 1
        self.serial = Request._serial
        comm._pending_requests.add(self)

    def __repr__(self) -> str:
        return (f"Request({self.kind} {self.src}->{self.dest} "
                f"tag={self.tag})")

    def wait(self) -> Any:
        if self.done:
            raise RuntimeFault(f"{self!r} waited twice")
        self.done = True
        self.comm._pending_requests.discard(self)
        if self.kind == "recv":
            return self.comm._recv(self.src, self.dest, self.tag)
        return None


@dataclass
class RankComm:
    """One rank's handle on the communicator (mpi4py-flavoured API).

    >>> comm = SimComm(2)
    >>> comm.view(0).isend(np.arange(3), dest=1, tag=2)
    Request(send 0->1 tag=2)
    """

    comm: SimComm
    rank: int

    @property
    def size(self) -> int:
        return self.comm.size

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.comm._send(self.rank, dest, tag, payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self.comm._recv(source, self.rank, tag)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send: the payload is captured by value now."""
        self.comm._send(self.rank, dest, tag, payload)
        return Request(self.comm, "send", self.rank, dest, tag)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive: ``wait()`` dequeues and returns the payload."""
        return Request(self.comm, "recv", source, self.rank, tag)
