"""Unit tests for the experiment harnesses (sweeps, pattern comparison)."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.driver import compare_patterns, sweep_nparts
from repro.mesh import structured_tri_mesh
from repro.runtime import MachineModel
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def problem():
    mesh = structured_tri_mesh(8, 8)
    rng = np.random.default_rng(11)
    values = {"init": rng.standard_normal(mesh.n_nodes),
              "airetri": mesh.triangle_areas,
              "airesom": mesh.node_areas,
              "epsilon": 1e-12, "maxloop": 4}
    return mesh, values


@pytest.fixture
def nan_values(problem):
    """TESTIV inputs without the area fields: every output is 0/0."""
    _mesh, values = problem
    with np.errstate(divide="ignore", invalid="ignore"):
        yield {k: v for k, v in values.items()
               if k not in ("airetri", "airesom")}


class TestSweep:
    def test_sweep_runs_and_verifies(self, problem):
        mesh, values = problem
        sweep = sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, values,
                             part_counts=(1, 2, 4))
        assert [p.nparts for p in sweep.points] == [1, 2, 4]
        assert all(p.max_error < 1e-10 for p in sweep.points)

    def test_speedup_monotone_under_compute_bound_model(self, problem):
        mesh, values = problem
        model = MachineModel(t_step=1e-5, alpha=1e-7, beta=1e-9)
        sweep = sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, values,
                             part_counts=(1, 2, 4), model=model)
        s = [p.speedup for p in sweep.points]
        assert s[0] == pytest.approx(1.0, rel=1e-6)
        assert s[0] < s[1] < s[2]

    def test_table_renders(self, problem):
        mesh, values = problem
        sweep = sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, values,
                             part_counts=(2,))
        assert "speedup" in sweep.table()

    def test_placements_can_be_shared(self, problem):
        from repro.placement import enumerate_placements

        mesh, values = problem
        placements = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        sweep = sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, values,
                             part_counts=(2,), placements=placements,
                             placement_index=3)
        assert sweep.placements is placements

    def test_vector_backend_sweep(self, problem):
        mesh, values = problem
        sweep = sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, values,
                             part_counts=(3,), backend="vector", rtol=1e-8)
        assert sweep.points[0].max_error < 1e-9


    def test_nan_outputs_fail_the_sweep(self, problem, nan_values):
        mesh, _values = problem
        with pytest.raises(AssertionError, match="not finite"):
            sweep_nparts(TESTIV_SOURCE, spec_for_testiv(), mesh, nan_values,
                         part_counts=(2, 4))


class TestComparePatterns:
    def test_both_patterns_profiled(self, problem):
        mesh, values = problem
        rows = compare_patterns(
            TESTIV_SOURCE,
            {"fig1": spec_for_testiv(),
             "fig2": spec_for_testiv("shared-nodes-2d")},
            mesh, values, nparts=4)
        by = {r.pattern: r for r in rows}
        assert by["fig1"].duplicated_elements > 0
        assert by["fig2"].duplicated_elements == 0
        assert by["fig1"].busiest_rank_steps > by["fig2"].busiest_rank_steps

    def test_disagreement_detected(self, problem):
        """compare_patterns cross-checks outputs across patterns."""
        mesh, values = problem
        # sanity: agreeing patterns pass (exercised above); a wrong epsilon
        # in one spec's values cannot be injected here, so just confirm the
        # reference plumbing returns rows in input order
        rows = compare_patterns(
            TESTIV_SOURCE,
            {"a": spec_for_testiv(), "b": spec_for_testiv()},
            mesh, values, nparts=2)
        assert [r.pattern for r in rows] == ["a", "b"]

    def test_nan_outputs_fail_the_comparison(self, problem, nan_values):
        mesh, _values = problem
        with pytest.raises(AssertionError, match="not finite"):
            compare_patterns(
                TESTIV_SOURCE,
                {"fig1": spec_for_testiv(),
                 "fig2": spec_for_testiv("shared-nodes-2d")},
                mesh, nan_values, nparts=2)
