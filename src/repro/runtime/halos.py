"""Collective communications over SimMPI: halo updates, combines, reductions.

These are the runtime bodies of the tool's ``C$SYNCHRONIZE`` directives
(paper section 2.3: "All these communications can be gathered into a
single procedure called in the source program"):

``overlap_update``
    figure-1 semantics — owners push authoritative values onto overlap
    copies (idempotent);
``combine_update``
    figure-2 semantics — owners assemble every copy's partial contribution
    with an associative/commutative operator and send totals back;
``allreduce_scalar``
    scalar reduction — every rank ends up with op-combine of all local
    partials, evaluated in rank order so results are deterministic.

The two array collectives additionally come as split-phase halves for the
``C$SYNCHRONIZE POST``/``WAIT`` windows: ``overlap_post``/``overlap_complete``
and ``combine_post``/``combine_complete``.  The post half captures payloads
by value at the post point (nonblocking isend/irecv on a fresh tag) and the
complete half applies them in exactly the order the blocking collective
would — since the placement guarantees no definition between post and wait,
a split run is bit-identical to the blocking one.  The blocking entry
points are now thin wrappers over post+complete, so both paths exercise the
same transport code.  ``allreduce_scalar`` never splits: its binomial tree
has sequential rounds with no separable one-ended post.

All of these run in the single-process lockstep world of the SPMD executor:
every rank is suspended at the same program point, so a collective is a
plain loop over ranks pushing and then draining SimMPI queues.

Each array collective picks its wire from the data, not from an option.
A variable held in the executor's flat store (``store=``, see
:mod:`repro.runtime.flatstore`) moves as one concatenated float64 block
per wave: one fancy index over the flat all-ranks buffer gathers it and
``send_block``/``recv_block`` carry it, with no per-message Python on the
ring transport.  Anything else — integer or multi-dimensional payloads,
or a caller with no store — goes per-message, one payload per neighbour
through ``isend_batch``/``waitall_recv``; that path is also the block
wave's reference oracle.  The two are bit-identical — same values, same
``CommStats`` columns, same tag sequence, same fault/retry behaviour —
which ``tests/runtime/test_halo_waves.py`` asserts differentially over
the whole TESTIV corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import RuntimeFault
from ..mesh.schedule import CombineSchedule, OverlapSchedule, WaveSide
from .flatstore import FlatField
from .simmpi import CollectiveRecord, Request, SimComm

#: reduction operators by canonical name
REDUCE_OPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
}

#: unbuffered scatter-accumulate ufuncs for the block combine path; the
#: ``.at`` form applies repeated indices in array order, which is exactly
#: the (owner, source) order of the per-message accumulation loop
_ACCUM_UFUNC = {"+": np.add, "*": np.multiply,
                "max": np.maximum, "min": np.minimum}

_TAG_OVERLAP = 101
_TAG_GATHER = 102
_TAG_RETURN = 103
_TAG_REDUCE = 104


@dataclass
class PendingOverlap:
    """In-flight split-phase overlap update, between its post and wait."""

    comm: SimComm
    envs: list[dict]
    var: str
    label: str
    #: (rank, src, index array, request) in blocking-recv order
    recvs: list[tuple[int, int, np.ndarray, Request]] = field(
        default_factory=list)
    sends: list[Request] = field(default_factory=list)
    tag: int = 0
    #: receive side of the block wave (block path only)
    recv_side: Optional[WaveSide] = None
    #: flat-store field backing ``var``; set exactly on the block path
    field: Optional[FlatField] = None


@dataclass
class PendingCombine:
    """In-flight split-phase combine, between its post and wait."""

    comm: SimComm
    envs: list[dict]
    var: str
    op: str
    label: str
    schedule: CombineSchedule
    #: (owner, src, index array, request) in blocking gather-recv order
    recvs: list[tuple[int, int, np.ndarray, Request]] = field(
        default_factory=list)
    sends: list[Request] = field(default_factory=list)
    tag: int = 0
    #: flat-store field backing ``var``; set exactly on the block path
    field: Optional[FlatField] = None


def overlap_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: OverlapSchedule, label: str = "",
                 _log: bool = True,
                 store: Optional[dict[str, FlatField]] = None
                 ) -> PendingOverlap:
    """Start an overlap update: owners' values leave now, on a fresh tag.

    With a flat ``store`` entry for ``var`` (executor runs), the whole
    rank-batch of values gathers through one fancy index over the flat
    buffer and leaves as one block wave; anything else goes per-message.
    """
    before = _rank_words(comm)
    tag = comm.fresh_tag()
    pending = PendingOverlap(comm=comm, envs=envs, var=var,
                             label=label or var, tag=tag)
    field = store.get(var) if store is not None else None
    if field is not None:
        w = schedule.wave()
        block = w.send.flat_gather(field.flat, field.offsets)
        comm.send_block(w.send.srcs, w.send.dsts, block, w.send.words,
                        tag=tag)
        pending.recv_side = w.recv
        pending.field = field
    else:
        srcs: list[int] = []
        dsts: list[int] = []
        payloads: list[np.ndarray] = []
        for r, plan in enumerate(schedule.sends):
            arr = envs[r][var]
            for dest, idx in plan.items():
                srcs.append(r)
                dsts.append(dest)
                payloads.append(arr[idx])
        pending.sends = comm.isend_batch(srcs, dsts, payloads, tag=tag)
        for r, plan in enumerate(schedule.recvs):
            view = comm.view(r)
            for src, idx in plan.items():
                pending.recvs.append((r, src, idx, view.irecv(src, tag=tag)))
    if _log:
        _log_collective(comm, f"overlap:{pending.label}", before,
                        window="posted")
    return pending


def overlap_complete(pending: PendingOverlap, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted overlap update: write received values in place."""
    comm = pending.comm
    before = _rank_words(comm)
    if pending.field is not None:
        side = pending.recv_side
        block, _words = comm.recv_block(side.srcs, side.dsts,
                                        tag=pending.tag)
        side.flat_scatter(pending.field.flat, pending.field.offsets, block)
    else:
        incoming = comm.waitall_recv([req for *_hdr, req in pending.recvs])
        for (r, _src, idx, _req), payload in zip(pending.recvs, incoming):
            pending.envs[r][pending.var][idx] = payload
        for req in pending.sends:
            req.wait()
    if _log:
        _log_collective(comm, f"overlap:{pending.label}", before,
                        window="waited", overlap_steps=overlap_steps)


def overlap_update(comm: SimComm, envs: list[dict], var: str,
                   schedule: OverlapSchedule, label: str = "",
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Refresh overlap copies of ``var`` from their kernel owners."""
    before = _rank_words(comm)
    pending = overlap_post(comm, envs, var, schedule, label, _log=False,
                           store=store)
    overlap_complete(pending, _log=False)
    _log_collective(comm, f"overlap:{label or var}", before)


def combine_post(comm: SimComm, envs: list[dict], var: str,
                 schedule: CombineSchedule, op: str = "+",
                 label: str = "", _log: bool = True,
                 store: Optional[dict[str, FlatField]] = None
                 ) -> PendingCombine:
    """Start a combine: the gather round (holders → owners) leaves now.

    The return round (owners → holders) cannot be posted yet — its payloads
    are the assembled totals, which exist only after the gather completes —
    so it runs inside :func:`combine_complete`.  The wire is chosen as in
    :func:`overlap_post`.
    """
    if REDUCE_OPS.get(op) is None:
        raise RuntimeFault(f"unknown combine operator {op!r}")
    before = _rank_words(comm)
    tag = comm.fresh_tag()
    pending = PendingCombine(comm=comm, envs=envs, var=var, op=op,
                             label=label or var, schedule=schedule, tag=tag)
    field = store.get(var) if store is not None else None
    if field is not None:
        w = schedule.wave()
        block = w.gather_send.flat_gather(field.flat, field.offsets)
        comm.send_block(w.gather_send.srcs, w.gather_send.dsts, block,
                        w.gather_send.words, tag=tag)
        pending.field = field
    else:
        srcs: list[int] = []
        dsts: list[int] = []
        payloads: list[np.ndarray] = []
        for r, plan in enumerate(schedule.gather_sends):
            arr = envs[r][var]
            for owner, idx in plan.items():
                srcs.append(r)
                dsts.append(owner)
                payloads.append(arr[idx])
        pending.sends = comm.isend_batch(srcs, dsts, payloads, tag=tag)
        for o, plan in enumerate(schedule.gather_recvs):
            view = comm.view(o)
            for src, idx in plan.items():
                pending.recvs.append((o, src, idx, view.irecv(src, tag=tag)))
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
                        window="posted")
    return pending


def combine_complete(pending: PendingCombine, overlap_steps: int = 0,
                     _log: bool = True) -> None:
    """Finish a posted combine: assemble partials, run the return round.

    Accumulation happens in exactly the (owner, source) order of the
    blocking collective, so split and blocking runs round identically.
    On the block path, ``ufunc.at`` over the concatenated gather indices
    applies repeated entries sequentially in array order — the same
    (owner, source) sequence — so the two wires round identically too.
    """
    comm = pending.comm
    envs, var, op = pending.envs, pending.var, pending.op
    schedule = pending.schedule
    before = _rank_words(comm)
    field = pending.field
    if field is not None:
        w = schedule.wave()
        block, _words = comm.recv_block(w.gather_recv.srcs,
                                        w.gather_recv.dsts, tag=pending.tag)
        w.gather_recv.flat_scatter(field.flat, field.offsets, block,
                                   op=_ACCUM_UFUNC[op])
        # return round: owners -> holders (totals exist only now)
        rblock = w.return_send.flat_gather(field.flat, field.offsets)
        comm.send_block(w.return_send.srcs, w.return_send.dsts, rblock,
                        w.return_send.words, tag=_TAG_RETURN)
        tblock, _words = comm.recv_block(w.return_recv.srcs,
                                         w.return_recv.dsts, tag=_TAG_RETURN)
        w.return_recv.flat_scatter(field.flat, field.offsets, tblock)
        if _log:
            _log_collective(comm, f"combine:{pending.label}", before,
                            window="waited", overlap_steps=overlap_steps)
        return
    gathered = comm.waitall_recv([req for *_hdr, req in pending.recvs])
    for (o, _src, idx, _req), incoming in zip(pending.recvs, gathered):
        arr = envs[o][var]
        if op == "+":
            arr[idx] += incoming
        elif op == "*":
            arr[idx] *= incoming
        else:
            arr[idx] = np.maximum(arr[idx], incoming) if op == "max" \
                else np.minimum(arr[idx], incoming)
    for req in pending.sends:
        req.wait()
    # return round: owners -> holders, blocking (totals exist only now)
    srcs: list[int] = []
    dsts: list[int] = []
    payloads: list[np.ndarray] = []
    for o, plan in enumerate(schedule.return_sends):
        arr = envs[o][var]
        for dest, idx in plan.items():
            srcs.append(o)
            dsts.append(dest)
            payloads.append(arr[idx])
    comm.send_batch(srcs, dsts, payloads, tag=_TAG_RETURN)
    rsrcs: list[int] = []
    rdsts: list[int] = []
    targets: list[tuple[np.ndarray, np.ndarray]] = []
    for r, plan in enumerate(schedule.return_recvs):
        arr = envs[r][var]
        for owner, idx in plan.items():
            rsrcs.append(owner)
            rdsts.append(r)
            targets.append((arr, idx))
    totals = comm.recv_batch(rsrcs, rdsts, tag=_TAG_RETURN)
    for (arr, idx), payload in zip(targets, totals):
        arr[idx] = payload
    if _log:
        _log_collective(comm, f"combine:{pending.label}", before,
                        window="waited", overlap_steps=overlap_steps)


def combine_update(comm: SimComm, envs: list[dict], var: str,
                   schedule: CombineSchedule, op: str = "+",
                   label: str = "",
                   store: Optional[dict[str, FlatField]] = None) -> None:
    """Assemble partial contributions of ``var`` and redistribute totals."""
    before = _rank_words(comm)
    pending = combine_post(comm, envs, var, schedule, op, label, _log=False,
                           store=store)
    combine_complete(pending, _log=False)
    _log_collective(comm, f"combine:{label or var}", before)


def allreduce_scalar(comm: SimComm, envs: list[dict], var: str,
                     op: str = "+", label: str = "",
                     ranks: Optional[Sequence[int]] = None) -> None:
    """Combine per-rank scalar partials; every rank gets the total.

    Binomial-tree reduce followed by a binomial broadcast: every rank
    sends/receives O(log₂ P) messages, which is what makes the reduction's
    latency term scale in the speedup experiment.  The combine order is a
    fixed tree, so results are deterministic run-to-run (though, like any
    parallel sum, rounded differently from the sequential left-to-right
    order).  Each tree level goes to the fabric as one batched send and
    one batched receive over all its rank pairs; the pairing (and with it
    every combine) is identical to the historical per-pair loop.

    ``ranks`` restricts the tree to those participants' sends, receives
    and results: localized restart re-walks one restored rank's slice this
    way, its peers' partial totals coming back from the message log.
    """
    reducer = REDUCE_OPS.get(op)
    if reducer is None:
        raise RuntimeFault(f"unknown reduction operator {op!r}")
    before = _rank_words(comm)
    size = comm.size
    members = range(size) if ranks is None else ranks
    values = [envs[r][var] if r in members else None for r in range(size)]

    def level(srcs: list[int], dsts: list[int], absorb: bool) -> None:
        sends = [(s, d) for s, d in zip(srcs, dsts) if s in members]
        comm.send_batch([s for s, _d in sends], [d for _s, d in sends],
                        [values[s] for s, _d in sends], tag=_TAG_REDUCE)
        recvs = [(s, d) for s, d in zip(srcs, dsts) if d in members]
        got = comm.recv_batch([s for s, _d in recvs],
                              [d for _s, d in recvs], tag=_TAG_REDUCE)
        for (_s, d), value in zip(recvs, got):
            values[d] = reducer(values[d], value) if absorb else value

    # reduce up the tree: at step 2^k, rank r (multiple of 2^(k+1)) absorbs
    # its partner r + 2^k
    step = 1
    while step < size:
        roots = list(range(0, size - step, 2 * step))
        level([r + step for r in roots], roots, absorb=True)
        step *= 2
    # broadcast down the same tree
    step //= 2
    while step >= 1:
        roots = list(range(0, size - step, 2 * step))
        level(roots, [r + step for r in roots], absorb=False)
        step //= 2
    for r in members:
        envs[r][var] = values[r]
    _log_collective(comm, f"reduce[{op}]:{label or var}", before)


def _rank_words(comm: SimComm) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank (message, word) counter arrays, for collective deltas."""
    return comm.stats.rank_counters(comm.size)


def _log_collective(comm: SimComm, label: str,
                    before: tuple[np.ndarray, np.ndarray],
                    window: str = "blocking",
                    overlap_steps: int = 0) -> None:
    msgs_now, words_now = comm.stats.rank_counters(comm.size)
    comm.stats.collectives.append(CollectiveRecord(
        label=label, msgs=(msgs_now - before[0]).tolist(),
        words=(words_now - before[1]).tolist(),
        window=window, overlap_steps=overlap_steps))
