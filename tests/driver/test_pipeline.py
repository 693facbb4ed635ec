"""Unit tests for the figure-3 pipeline driver."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.driver import (
    PipelineRun,
    build_global_env,
    pipeline_report,
    run_pipeline,
    run_sequential,
)
from repro.lang import parse_subroutine
from repro.mesh import structured_tri_mesh
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def mesh():
    return structured_tri_mesh(6, 6)


@pytest.fixture(scope="module")
def fields(mesh):
    rng = np.random.default_rng(42)
    return {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
    }


SCALARS = {"epsilon": 1e-9, "maxloop": 6}


class TestGlobalEnv:
    def test_extents_set(self, mesh, fields):
        sub = parse_subroutine(TESTIV_SOURCE)
        env = build_global_env(sub, spec_for_testiv(), mesh, fields, SCALARS)
        assert env["nsom"] == mesh.n_nodes
        assert env["ntri"] == mesh.n_triangles

    def test_index_map_filled_one_based(self, mesh, fields):
        sub = parse_subroutine(TESTIV_SOURCE)
        env = build_global_env(sub, spec_for_testiv(), mesh, fields, SCALARS)
        np.testing.assert_array_equal(env["som"][:mesh.n_triangles],
                                      mesh.triangles + 1)

    def test_arrays_sized_at_least_declared(self, mesh, fields):
        sub = parse_subroutine(TESTIV_SOURCE)
        env = build_global_env(sub, spec_for_testiv(), mesh, fields, SCALARS)
        assert env["old"].shape[0] >= 1000

    def test_grows_beyond_declared_size(self, fields):
        big = structured_tri_mesh(40, 40)  # 1681 nodes > declared 1000
        sub = parse_subroutine(TESTIV_SOURCE)
        env = build_global_env(sub, spec_for_testiv(), big,
                               {"init": np.ones(big.n_nodes),
                                "airetri": big.triangle_areas,
                                "airesom": big.node_areas}, SCALARS)
        assert env["old"].shape[0] == big.n_nodes
        run_sequential(sub, env)  # must not hit bounds checks


class TestPipelineRun:
    def test_outputs_match(self, mesh, fields):
        run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 4,
                           fields=fields, scalars=SCALARS)
        run.verify()
        assert set(run.outputs) == {"result"}

    def test_placement_selection(self, mesh, fields):
        run0 = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 2,
                            fields=fields, scalars=SCALARS)
        run_last = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 2,
                                fields=fields, scalars=SCALARS,
                                placement_index=len(run0.placements) - 1,
                                placements=run0.placements)
        run_last.verify()
        assert run_last.chosen is not run0.chosen

    def test_report_readable(self, mesh, fields):
        run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 3,
                           fields=fields, scalars=SCALARS)
        text = pipeline_report(run)
        assert "TESTIV" in text and "traffic" in text
        assert "max |seq - spmd|" in text

    def test_max_abs_error_small(self, mesh, fields):
        run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 4,
                           fields=fields, scalars=SCALARS)
        assert run.max_abs_error() < 1e-12

    @pytest.mark.parametrize("par", [
        pytest.param(np.full(4, np.nan), id="all-nan"),
        pytest.param(np.arange(3.0), id="one-short"),
    ])
    def test_verify_rejects_vacuous_agreement(self, par):
        seq = np.full(4, np.nan) if np.isnan(par).all() else np.arange(4.0)
        run = PipelineRun(placements=None, chosen=None, partition=None,
                          sequential=None, spmd=None,
                          outputs={"result": (seq, par)})
        with pytest.raises(AssertionError):
            run.verify()
        assert run.max_abs_error() == float("inf")

    def test_verify_accepts_real_agreement(self):
        out = np.linspace(0.0, 1.0, 5)
        run = PipelineRun(placements=None, chosen=None, partition=None,
                          sequential=None, spmd=None,
                          outputs={"result": (out, out.copy())})
        run.verify()
        assert run.max_abs_error() == 0.0

    def test_partitioner_choice(self, mesh, fields):
        run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 3,
                           fields=fields, scalars=SCALARS, method="greedy")
        run.verify()

    def test_model_check_preflight(self, mesh, fields):
        # the MP-net model checker runs as part of the pre-flight and
        # the clean corpus sails through in strict mode
        run = run_pipeline(TESTIV_SOURCE, spec_for_testiv(), mesh, 2,
                           fields=fields, scalars=SCALARS,
                           check="strict", model_check=True,
                           net_bound=5000)
        run.verify()
        assert run.diagnostics is None or run.diagnostics.clean
