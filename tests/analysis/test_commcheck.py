"""Static communication verifier (commcheck) — golden diagnostics.

The contract under test: every placement the tool itself produces for the
paper corpus lints clean (the checker proves the clean path), while each
seeded mutation of a clean placement triggers exactly its expected CCnnn
code with a concrete path witness.  The CC005 static deadlock verdict is
cross-checked against the runtime watchdog executing the same per-rank
collective orders.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.analysis.commcheck import (
    check_placement,
    check_schedules,
    compute_facts,
    deadlock_cycle,
    lint_source,
    lint_main,
    replay_events,
    replay_orders,
    side_verdicts,
)
from repro.analysis.modelcheck import crosscheck
from repro.analysis.mpnet import compile_orders
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticSink,
    parse_suppressions,
)
from repro.corpus import FIG5_SKETCH_SOURCE, TESTIV_SOURCE
from repro.errors import CommCheckError, CommTimeout, ReproError, RuntimeFault
from repro.lang.cfg import EXIT
from repro.mesh import structured_tri_mesh
from repro.mesh.overlap import build_partition
from repro.mesh.schedule import build_overlap_schedule
from repro.placement.comms import (
    CommOp,
    K_OVERLAP,
    Placement,
    widen_placement,
)
from repro.placement.engine import enumerate_placements
from repro.spec import PartitionSpec, spec_for_testiv

FIG5_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-2d\nextent node nsom\n"
    "extent triangle ntri\nindexmap som triangle node\n"
    "array old node\narray new node\narray out triangle\n")

# a legal program whose branch condition is a reduced scalar and whose two
# sides read different overlap arrays — the CC004/CC005 vehicle
DIVRG_SOURCE = """
      subroutine divrg(x, y, ta, tb, som, eps, nsom, ntri)
      integer nsom, ntri
      real x(1000), y(1000), ta(2000), tb(2000), eps
      integer som(2000,3)
      real u(1000), v(1000), s
      integer i
      s = 0.0
      do i = 1, nsom
         u(i) = x(i) * 2.0
         v(i) = y(i) * 3.0
         s = s + x(i)
      end do
      if (s .lt. eps) then
         do i = 1, ntri
            ta(i) = u(som(i,1)) + u(som(i,2)) + u(som(i,3))
         end do
         do i = 1, ntri
            tb(i) = v(som(i,1)) + v(som(i,2)) + v(som(i,3))
         end do
      else
         do i = 1, ntri
            tb(i) = v(som(i,1)) - v(som(i,2))
         end do
         do i = 1, ntri
            ta(i) = u(som(i,1)) - u(som(i,2))
         end do
      end if
      end
"""
DIVRG_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-2d\nextent node nsom\n"
    "extent triangle ntri\nindexmap som triangle node\n"
    "array x node\narray y node\narray u node\narray v node\n"
    "array ta triangle\narray tb triangle\n")


@pytest.fixture(scope="module")
def testiv():
    return enumerate_placements(TESTIV_SOURCE, spec_for_testiv())


@pytest.fixture(scope="module")
def divrg():
    return enumerate_placements(DIVRG_SOURCE, DIVRG_SPEC)


# DIVRG with a comm-free first then-loop: room to post a split window
# early on one side while the other side posts late — the two sides
# reorder at the identity level but the tag-level schedule is clean
REORDER_SOURCE = """
      subroutine reord(x, y, ta, tb, som, eps, nsom, ntri)
      integer nsom, ntri
      real x(1000), y(1000), ta(2000), tb(2000), eps
      integer som(2000,3)
      real u(1000), v(1000), s
      integer i
      s = 0.0
      do i = 1, nsom
         u(i) = x(i) * 2.0
         v(i) = y(i) * 3.0
         s = s + x(i)
      end do
      if (s .lt. eps) then
         do i = 1, ntri
            ta(i) = ta(i) * 2.0
         end do
         do i = 1, ntri
            tb(i) = v(som(i,1)) + v(som(i,2))
         end do
         do i = 1, ntri
            ta(i) = u(som(i,1)) + u(som(i,2))
         end do
      else
         do i = 1, ntri
            tb(i) = v(som(i,1)) - v(som(i,2))
         end do
         do i = 1, ntri
            ta(i) = u(som(i,1)) - u(som(i,2))
         end do
      end if
      end
"""


@pytest.fixture(scope="module")
def reorder():
    return enumerate_placements(REORDER_SOURCE, DIVRG_SPEC)


def mutate(base: Placement, comms) -> Placement:
    return Placement(solution=base.solution, comms=list(comms))


def sid_at(sub, line: int) -> int:
    """Statement id at a 1-based source line (sids are process-global)."""
    (sid,) = {st.sid for st in sub.walk() if st.line == line}
    return sid


class TestCleanCorpus:
    def test_all_16_blocking_placements_lint_clean(self, testiv):
        assert len(testiv) == 16
        for i, rp in enumerate(testiv.ranked):
            sink = check_placement(testiv.vfg, rp.placement,
                                   testiv.automaton)
            assert sink.clean, f"placement #{i}: {sink.render()}"

    def test_all_16_widened_placements_lint_clean(self, testiv):
        for i, rp in enumerate(testiv.ranked):
            wide = widen_placement(testiv.vfg, rp.placement)
            sink = check_placement(testiv.vfg, wide, testiv.automaton)
            assert sink.clean, f"widened #{i}: {sink.render()}"

    def test_fig5_and_divrg_lint_clean(self, divrg):
        fig5 = enumerate_placements(FIG5_SKETCH_SOURCE, FIG5_SPEC)
        for res in (fig5, divrg):
            for rp in res.ranked:
                sink = check_placement(res.vfg, rp.placement, res.automaton)
                assert sink.clean, sink.render()

    def test_halo_schedules_lint_clean(self, testiv):
        mesh = structured_tri_mesh(6, 6)
        part = build_partition(mesh, 4, "overlap-elements-2d")
        sink = check_schedules(part, testiv.ranked[0].placement,
                               sub=testiv.sub)
        assert sink.clean, sink.render()

    @pytest.mark.parametrize("transport", ["ring", "deque"])
    def test_pipeline_hook_clean_on_both_transports(self, transport):
        from repro.driver import run_pipeline

        mesh = structured_tri_mesh(5, 5)
        run = run_pipeline(
            TESTIV_SOURCE, spec_for_testiv(), mesh, 3,
            fields={"init": np.linspace(0.0, 1.0, mesh.entity_count("node")),
                    "airetri": mesh.triangle_areas,
                    "airesom": mesh.node_areas},
            scalars={"epsilon": 1e-12, "maxloop": 3},
            transport=transport, check="strict")
        assert run.diagnostics is not None and run.diagnostics.clean
        run.verify()


class TestMutations:
    """Each seeded mutation yields exactly its expected code + witness."""

    def only_code(self, sink: DiagnosticSink) -> str:
        codes = sink.codes()
        assert len(codes) == 1, sink.render()
        diag = sink.diagnostics[0]
        assert diag.witness, "diagnostic must carry a path witness"
        return codes.pop()

    def test_cc001_dropped_overlap_update(self, testiv):
        # placement #1 updates NEW at the convergence test; dropping the
        # CommOp leaves every NEW read after the defs stale on all paths
        base = testiv.ranked[1].placement
        comms = [c for c in base.comms
                 if not (c.var == "new" and c.kind == K_OVERLAP)]
        assert len(comms) == len(base.comms) - 1
        sink = check_placement(testiv.vfg, mutate(base, comms),
                               testiv.automaton)
        assert self.only_code(sink) == "CC001"
        assert all(d.var == "new" for d in sink.diagnostics)

    def test_cc002_write_inside_open_window(self, testiv):
        # widen NEW's update into a window posted before the copy loop
        # that (re)writes NEW — the posted payload goes stale
        base = testiv.ranked[1].placement
        new_op = next(c for c in base.comms if c.var == "new")
        widened = dataclasses.replace(new_op,
                                      post_anchor=sid_at(testiv.sub, 16))
        sink = check_placement(
            testiv.vfg,
            mutate(base, [widened if c is new_op else c
                          for c in base.comms]),
            testiv.automaton)
        assert self.only_code(sink) == "CC002"

    def test_cc003_swapped_post_wait(self, testiv):
        wide = widen_placement(testiv.vfg, testiv.ranked[0].placement)
        old_op = next(c for c in wide.comms if c.var == "old")
        assert old_op.is_split
        swapped = dataclasses.replace(old_op,
                                      post_anchor=old_op.wait_anchor,
                                      wait_anchor=old_op.post_anchor)
        sink = check_placement(
            testiv.vfg,
            mutate(wide, [swapped if c is old_op else c
                          for c in wide.comms]),
            testiv.automaton)
        assert self.only_code(sink) == "CC003"
        assert sink.diagnostics[0].data["fault"] == "wait-before-post"

    def test_cc003_leaked_window(self, testiv):
        # a window whose wait sits on the loop-back side leaks when the
        # convergence branch exits the loop
        wide = widen_placement(testiv.vfg, testiv.ranked[0].placement)
        old_op = next(c for c in wide.comms if c.var == "old")
        leaky = dataclasses.replace(old_op,
                                    post_anchor=sid_at(testiv.sub, 29),
                                    wait_anchor=sid_at(testiv.sub, 36))
        sink = check_placement(
            testiv.vfg,
            mutate(wide, [leaky if c is old_op else c for c in wide.comms]),
            testiv.automaton)
        assert "CC003" in sink.codes()
        faults = {d.data.get("fault") for d in sink.diagnostics
                  if d.code == "CC003"}
        assert "leaked-window" in faults

    def test_cc004_divergent_collective(self, testiv):
        # dropping the sqrdiff allreduce leaves the convergence branch
        # rank-divergent with OLD's update only on the loop-back side
        base = testiv.ranked[0].placement
        comms = [c for c in base.comms if c.var != "sqrdiff"]
        sink = check_placement(testiv.vfg, mutate(base, comms),
                               testiv.automaton)
        assert self.only_code(sink) == "CC004"
        assert "old/overlap-som" in sink.diagnostics[0].message

    def test_cc005_conflicting_collective_orders(self, divrg):
        # per-side updates in opposite order under a rank-divergent branch
        base = divrg.ranked[0].placement
        uop = next(c for c in base.comms if c.var == "u")
        vop = next(c for c in base.comms if c.var == "v")
        loops = [sid_at(divrg.sub, ln) for ln in (15, 18, 22, 25)]
        comms = [  # then-side: u then v; else-side: v then u
            dataclasses.replace(uop, post_anchor=loops[0],
                                wait_anchor=loops[0]),
            dataclasses.replace(vop, post_anchor=loops[1],
                                wait_anchor=loops[1]),
            dataclasses.replace(vop, post_anchor=loops[2],
                                wait_anchor=loops[2]),
            dataclasses.replace(uop, post_anchor=loops[3],
                                wait_anchor=loops[3]),
        ]
        sink = check_placement(divrg.vfg, mutate(base, comms),
                               divrg.automaton)
        assert self.only_code(sink) == "CC005"
        assert sink.diagnostics[0].data["cycle"]

    def test_cc005_verdict_agrees_with_runtime_watchdog(self, divrg):
        # replay the diagnostic's own per-rank orders over a real SimComm:
        # the runtime deadlock watchdog must reach the same verdict
        base = divrg.ranked[0].placement
        uop = next(c for c in base.comms if c.var == "u")
        vop = next(c for c in base.comms if c.var == "v")
        loops = [sid_at(divrg.sub, ln) for ln in (15, 18, 22, 25)]
        comms = [
            dataclasses.replace(uop, post_anchor=loops[0],
                                wait_anchor=loops[0]),
            dataclasses.replace(vop, post_anchor=loops[1],
                                wait_anchor=loops[1]),
            dataclasses.replace(vop, post_anchor=loops[2],
                                wait_anchor=loops[2]),
            dataclasses.replace(uop, post_anchor=loops[3],
                                wait_anchor=loops[3]),
        ]
        sink = check_placement(divrg.vfg, mutate(base, comms),
                               divrg.automaton)
        orders = sink.diagnostics[0].data["orders"]
        assert deadlock_cycle([list(o) for o in orders]) is not None
        exc = replay_orders(orders)
        assert isinstance(exc, CommTimeout)
        # ...and the unmutated order (both sides identical) completes
        assert deadlock_cycle([list(orders[0]), list(orders[0])]) is None
        assert replay_orders([list(orders[0]), list(orders[0])]) is None

    def test_cc006_no_quiescent_boundary(self, testiv):
        # a whole-program window over INIT covers every interior
        # collective boundary: checkpointing silently never happens
        base = testiv.ranked[0].placement
        blanket = CommOp(post_anchor=sid_at(testiv.sub, 11),
                         wait_anchor=EXIT, kind="overlap",
                         var="init", method="overlap-som", entity="node")
        sink = check_placement(testiv.vfg,
                               mutate(base, list(base.comms) + [blanket]),
                               testiv.automaton)
        assert self.only_code(sink) == "CC006"
        assert sink.ok  # CC006 is a warning: strict-only failure

    def test_cc007_dropped_reduction_combine(self):
        # fig-5's sqrdiff feeds a *value* use — dropping the allreduce is
        # a missing combine, not control divergence
        res = enumerate_placements(FIG5_SKETCH_SOURCE, FIG5_SPEC)
        base = res.ranked[0].placement
        comms = [c for c in base.comms if c.var != "sqrdiff"]
        sink = check_placement(res.vfg, mutate(base, comms), res.automaton)
        assert self.only_code(sink) == "CC007"

    def test_cc008_truncated_halo_schedule(self, testiv):
        mesh = structured_tri_mesh(6, 6)
        part = build_partition(mesh, 4, "overlap-elements-2d")
        sched = build_overlap_schedule(part, "node")
        rank = next(r for r in range(part.nparts) if sched.recvs[r])
        peer = next(iter(sched.recvs[rank]))
        sched.recvs[rank][peer] = sched.recvs[rank][peer][:-1]
        sink = check_schedules(part, testiv.ranked[0].placement,
                               overlap={"node": sched}, sub=testiv.sub)
        assert sink.codes() == {"CC008"}
        assert any("unfilled" in d.message for d in sink.diagnostics)


class TestDiagnosticFramework:
    def test_every_code_has_name_and_severity(self):
        for code, (name, sev) in CODES.items():
            assert code.startswith("CC") and name and sev

    def test_json_shape(self, testiv):
        base = testiv.ranked[1].placement
        comms = [c for c in base.comms if c.var != "new"]
        sink = check_placement(testiv.vfg, mutate(base, comms),
                               testiv.automaton)
        payload = json.loads(sink.dumps())
        assert payload, "expected at least one finding"
        d = payload[0]
        assert set(d) == {"code", "name", "severity", "message", "var",
                          "anchors", "witness", "data"}
        assert d["code"] == "CC001"
        assert d["witness"][0].keys() == {"sid", "line", "text"}

    def test_suppression_comment(self):
        assert parse_suppressions(
            "C commcheck: disable=CC001, CC007\n x = 1\n") == \
            {"CC001", "CC007"}
        sink = DiagnosticSink(suppress={"CC001"})
        assert not sink.emit(Diagnostic(code="CC001", message="m"))
        assert sink.clean and sink.suppressed

    def test_suppressed_source_lints_clean(self, testiv):
        base = testiv.ranked[1].placement
        comms = [c for c in base.comms if c.var != "new"]
        src = "C commcheck: disable=CC001\n" + TESTIV_SOURCE
        sink = check_placement(testiv.vfg, mutate(base, comms),
                               testiv.automaton, source=src)
        assert sink.clean and sink.suppressed

    def test_render_mentions_witness(self, testiv):
        base = testiv.ranked[1].placement
        comms = [c for c in base.comms if c.var != "new"]
        sink = check_placement(testiv.vfg, mutate(base, comms),
                               testiv.automaton)
        text = sink.render()
        assert "witness path:" in text and "CC001" in text

    def test_legality_violations_as_cc009(self):
        from repro.analysis import check_legality
        from repro.lang import parse_subroutine

        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\narray a node\n")
        sub = parse_subroutine(
            "      subroutine t(a, nsom)\n"
            "      real a(100)\n      integer i\n"
            "      do i = 1,nsom\n"
            "         a(i) = a(1)\n"
            "      end do\n"
            "      end\n")
        report = check_legality(sub, spec)
        assert not report.ok
        diags = report.diagnostics()
        assert diags and all(d.code == "CC009" for d in diags)
        assert all(d.data["case"] for d in diags)


class TestFactsEngine:
    def test_facts_cover_every_statement(self, testiv):
        placement = testiv.ranked[0].placement
        facts = compute_facts(testiv.vfg, placement, testiv.automaton)
        sids = {st.sid for st in testiv.sub.walk()}
        assert sids <= set(facts.reads)

    def test_window_open_between_post_and_wait(self, testiv):
        wide = widen_placement(testiv.vfg, testiv.ranked[0].placement)
        old_op = next(c for c in wide.comms if c.var == "old")
        assert old_op.is_split
        facts = compute_facts(testiv.vfg, wide, testiv.automaton)
        idx = wide.comms.index(old_op)
        may_post, _ = facts.windows[old_op.post_anchor]
        may_wait, _ = facts.windows[old_op.wait_anchor]
        assert idx in may_post       # open right after the post
        assert idx not in may_wait   # closed by the wait's pre-action


class TestRuntimeDiagnostics:
    def test_cc101_undrained_channel(self):
        from repro.runtime.simmpi import SimComm

        comm = SimComm(2)
        comm.view(0).send(np.zeros(2), dest=1, tag=3)
        with pytest.raises(RuntimeFault, match="CC101") as exc:
            comm.assert_drained()
        diag = exc.value.diagnostic
        assert diag.code == "CC101" and diag.data["channels"]

    def test_cc102_leaked_request(self):
        from repro.runtime.simmpi import SimComm

        comm = SimComm(2)
        comm.view(0).isend(np.zeros(2), dest=1, tag=3)
        with pytest.raises(RuntimeFault, match="CC102") as exc:
            comm.assert_no_pending_requests()
        assert exc.value.diagnostic.code == "CC102"

    def test_pipeline_strict_mode_raises_on_findings(self, testiv):
        from repro.driver import check

        base = testiv.ranked[1].placement
        bad = mutate(base, [c for c in base.comms if c.var != "new"])
        with pytest.raises(CommCheckError) as exc:
            check(testiv, bad, mode="strict")
        assert any(d.code == "CC001" for d in exc.value.diagnostics)

    def test_pipeline_warn_mode_reports_and_continues(self, testiv):
        from repro.driver import check

        base = testiv.ranked[1].placement
        bad = mutate(base, [c for c in base.comms if c.var != "new"])
        stream = io.StringIO()
        sink = check(testiv, bad, mode="warn", stream=stream)
        assert "CC001" in stream.getvalue()
        assert not sink.ok


class TestCostModelLossRate:
    def test_default_total_unchanged(self, testiv):
        from repro.placement.cost import CostModel, estimate_cost

        p = testiv.ranked[0].placement
        base = estimate_cost(testiv.vfg, p, CostModel())
        assert base.comm_fault == 0.0

    def test_loss_rate_charges_expected_retransmits(self, testiv):
        from repro.placement.cost import CostModel, estimate_cost

        p = testiv.ranked[0].placement
        clean = estimate_cost(testiv.vfg, p, CostModel())
        lossy = estimate_cost(testiv.vfg, p, CostModel(loss_rate=0.05))
        assert lossy.comm_fault > 0.0
        assert lossy.total == pytest.approx(clean.total + lossy.comm_fault)
        # E[retransmits] scales linearly in the loss probability
        lossier = estimate_cost(testiv.vfg, p, CostModel(loss_rate=0.10))
        assert lossier.comm_fault == pytest.approx(2 * lossy.comm_fault)

    def test_loss_rate_threads_through_pipeline(self):
        from repro.driver import run_pipeline

        mesh = structured_tri_mesh(4, 4)
        run = run_pipeline(
            TESTIV_SOURCE, spec_for_testiv(), mesh, 2,
            fields={"init": np.linspace(0.0, 1.0, mesh.entity_count("node")),
                    "airetri": mesh.triangle_areas,
                    "airesom": mesh.node_areas},
            scalars={"epsilon": 1e-12, "maxloop": 2},
            loss_rate=0.05)
        assert run.chosen.cost.comm_fault > 0.0
        run.verify()


class TestDotWindows:
    def test_split_windows_render_dashed(self, testiv):
        from repro.placement.dot import vfg_to_dot

        wide = widen_placement(testiv.vfg, testiv.ranked[0].placement)
        assert any(c.is_split for c in wide.comms)
        dot = vfg_to_dot(testiv.vfg, placement=wide)
        assert "style=dashed" in dot
        assert "POST@L" in dot and "WAIT@L" in dot and "window" in dot

    def test_blocking_sites_render_sync(self, testiv):
        from repro.placement.dot import vfg_to_dot

        dot = vfg_to_dot(testiv.vfg,
                         placement=testiv.ranked[0].placement)
        assert "SYNC@" in dot and "style=dashed" not in dot


class TestLintSurfaces:
    def test_lint_source_clean(self):
        result, findings = lint_source(TESTIV_SOURCE, spec_for_testiv())
        assert result is not None and len(findings) == 16
        assert all(sink.clean for _i, sink in findings)

    def test_lint_source_illegal_program_yields_cc009(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\narray a node\n")
        result, findings = lint_source(
            "      subroutine t(a, nsom)\n"
            "      real a(100)\n      integer i\n"
            "      do i = 1,nsom\n"
            "         a(i) = a(1)\n"
            "      end do\n"
            "      end\n", spec)
        assert result is None
        (_idx, sink), = findings
        assert sink.codes() == {"CC009"}

    def test_cli_lint_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "testiv.f"
        prog.write_text(TESTIV_SOURCE)
        specf = tmp_path / "testiv.spec"
        specf.write_text(spec_for_testiv().serialize())
        assert main(["lint", str(prog), str(specf), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "commcheck: clean" in out and "0 diagnostic(s)" in out
        assert main(["lint", str(prog), str(specf),
                     "--split-phase", "--strict", "--index", "0"]) == 0

    def test_cli_lint_strict_fails_on_illegal_program(self, tmp_path):
        from repro.cli import main

        prog = tmp_path / "bad.f"
        prog.write_text(
            "      subroutine t(a, nsom)\n"
            "      real a(100)\n      integer i\n"
            "      do i = 1,nsom\n"
            "         a(i) = a(1)\n"
            "      end do\n"
            "      end\n")
        specf = tmp_path / "bad.spec"
        specf.write_text(
            "pattern overlap-elements-2d\nextent node nsom\narray a node\n")
        assert main(["lint", str(prog), str(specf), "--strict"]) == 2
        assert main(["lint", str(prog), str(specf)]) == 0

    def test_module_corpus_mode_clean(self, capsys):
        assert lint_main(["--corpus", "--strict"]) == 0
        assert "corpus lint: clean" in capsys.readouterr().out

    def test_module_corpus_model_check_clean(self, capsys):
        assert lint_main(["--corpus", "--strict", "--model-check"]) == 0
        assert "corpus lint: clean" in capsys.readouterr().out

    def test_cli_lint_model_check_flag(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "testiv.f"
        prog.write_text(TESTIV_SOURCE)
        specf = tmp_path / "testiv.spec"
        specf.write_text(spec_for_testiv().serialize())
        assert main(["lint", str(prog), str(specf), "--strict",
                     "--model-check", "--net-bound", "5000"]) == 0
        assert "commcheck: clean" in capsys.readouterr().out


class TestTagAwareOrders:
    """CC005 keyed by (src, dst, tag), not by identity order alone."""

    def reorder_comms(self, reorder):
        # then side: u posted over the comm-free first loop (wait at the
        # u-reading third loop), v blocking at the v-reading second loop
        # → events [u/post, v, u/wait]; else side: v blocking, u posted
        # at the v-reading loop, wait at the u-reading loop → events
        # [v, u/post, u/wait].  Identity orders cross; tags do not.
        base = reorder.ranked[0].placement
        uop = next(c for c in base.comms if c.var == "u")
        vop = next(c for c in base.comms if c.var == "v")
        sid = {ln: sid_at(reorder.sub, ln) for ln in (15, 18, 21, 25, 28)}
        return mutate(base, [
            dataclasses.replace(uop, post_anchor=sid[15],
                                wait_anchor=sid[21]),
            dataclasses.replace(vop, post_anchor=sid[18],
                                wait_anchor=sid[18]),
            dataclasses.replace(vop, post_anchor=sid[25],
                                wait_anchor=sid[25]),
            dataclasses.replace(uop, post_anchor=sid[25],
                                wait_anchor=sid[28]),
        ])

    def test_split_reorder_is_not_flagged_as_deadlock(self, reorder):
        # regression: the order-level wait-for graph calls this crossed
        # and deadlocked; the tag-level analysis (and the runtime) know
        # the early post means nobody ever blocks
        sink = check_placement(reorder.vfg, self.reorder_comms(reorder),
                               reorder.automaton)
        assert "CC005" not in sink.codes(), sink.render()
        assert sink.ok, sink.render()

    def test_reorder_skew_hazard_downgraded_to_cc010(self, reorder):
        # the same schedule under a per-rank tag allocator is a real
        # hazard — but a warning, because the aligned run completes
        sink = check_placement(reorder.vfg, self.reorder_comms(reorder),
                               reorder.automaton)
        diag = next(d for d in sink.diagnostics if d.code == "CC010")
        assert diag.severity == "warning"
        assert diag.witness and diag.data["races"]
        orders = [list(o) for o in diag.data["orders"]]
        # the retired order-level verdict on these same orders: deadlock
        assert deadlock_cycle(orders) is not None
        # ...refuted by the runtime watchdog under aligned tags
        assert replay_events(compile_orders(orders)) is None

    def test_side_verdicts_aligned_vs_skewed(self):
        orders = [
            [("u", "m", "post"), ("v", "m"), ("u", "m")],
            [("v", "m"), ("u", "m", "post"), ("u", "m")],
        ]
        aligned, skewed = side_verdicts(orders)
        assert aligned.clean
        assert skewed.deadlock is None and not skewed.clean

    def test_cc005_records_order_level_agreement(self, divrg):
        # the crossed blocking orders deadlock at both granularities;
        # the diagnostic says so, so CC011-style drift is auditable
        base = divrg.ranked[0].placement
        uop = next(c for c in base.comms if c.var == "u")
        vop = next(c for c in base.comms if c.var == "v")
        loops = [sid_at(divrg.sub, ln) for ln in (15, 18, 22, 25)]
        comms = [
            dataclasses.replace(uop, post_anchor=loops[0],
                                wait_anchor=loops[0]),
            dataclasses.replace(vop, post_anchor=loops[1],
                                wait_anchor=loops[1]),
            dataclasses.replace(vop, post_anchor=loops[2],
                                wait_anchor=loops[2]),
            dataclasses.replace(uop, post_anchor=loops[3],
                                wait_anchor=loops[3]),
        ]
        sink = check_placement(divrg.vfg, mutate(base, comms),
                               divrg.automaton)
        (diag,) = sink.diagnostics
        assert diag.code == "CC005"
        assert diag.data["order_level_cycle"] is True
        assert diag.data["blocked"]
        # every cycle entry names the message color and the side index
        assert all(len(entry) == 2 for entry in diag.data["cycle"])


class TestModelCheckFlag:
    """check_placement(model_check=True) compiles and checks the net."""

    def test_clean_placement_stays_clean(self, testiv):
        sink = check_placement(testiv.vfg, testiv.ranked[0].placement,
                               testiv.automaton, model_check=True)
        assert sink.clean, sink.render()

    def test_widened_placement_stays_clean(self, testiv):
        wide = widen_placement(testiv.vfg, testiv.ranked[0].placement)
        sink = check_placement(testiv.vfg, wide, testiv.automaton,
                               model_check=True)
        assert sink.clean, sink.render()

    def test_lint_source_threads_the_flag(self):
        result, findings = lint_source(TESTIV_SOURCE, spec_for_testiv(),
                                       model_check=True, net_bound=5000)
        assert result is not None
        assert all(sink.clean for _i, sink in findings)


IDENTS = [("a", "m"), ("b", "m"), ("c", "m")]


def _tokens_to_order(tokens):
    return [IDENTS[i] + ("post",) if post else IDENTS[i]
            for i, post in tokens]


class TestModelMatchesRuntimeProperty:
    """Property: model verdicts == SimComm replay on random schedules.

    Receive matching is by (src, dst, tag) channel only, so whichever
    color a schedule picks, token counts — and hence blocking — evolve
    identically: deadlock is schedule-independent and one replay is a
    sound ground truth for the whole reachable state space.
    """

    try:
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st
    except ImportError:  # pragma: no cover - toolchain ships hypothesis
        pytestmark = pytest.mark.skip(reason="hypothesis unavailable")
    else:
        _orders = st.lists(
            st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                               st.booleans()),
                     min_size=0, max_size=4),
            min_size=2, max_size=3)

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(token_lists=_orders,
               mode=st.sampled_from(["static", "counter"]))
        def test_verdicts_agree_with_replay(self, token_lists, mode):
            orders = [_tokens_to_order(t) for t in token_lists]
            net = compile_orders(orders, tag_mode=mode)
            cc = crosscheck(net)
            assert not cc.diverged
            exc = replay_events(net)
            if cc.model.truncated:  # pragma: no cover - nets are tiny
                return
            assert cc.model.deadlocked == isinstance(exc, CommTimeout)
            if not cc.model.deadlocked:
                assert bool(cc.model.unmatched) == \
                    isinstance(exc, ReproError)
