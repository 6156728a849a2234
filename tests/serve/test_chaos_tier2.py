"""Tier-2: the service-layer chaos matrix must stay green.

Each scenario boots a real service (workers, HTTP front, isolated cache
root), injects one failure — a worker kill, a 30 s stall against a sub-
second deadline, a queue flood, a truncated sweep cache record, garbage specs —
and asserts the documented recovery: typed rejections, retries on fresh
workers, degraded-but-meaningful answers, a clean ``/readyz`` afterwards,
and zero unhandled exceptions.  This is the acceptance gate for the
serving layer's invariant: every admitted job terminates in exactly one
of completed / degraded / dead-lettered.
"""

import pytest

from repro.serve.chaos import run_serve_fault_matrix, serve_scenarios

pytestmark = pytest.mark.tier2


@pytest.fixture(scope="module")
def report():
    return run_serve_fault_matrix()


def test_serve_chaos_matrix_all_green(report):
    assert report.passed, report.format()
    assert len(report.outcomes) == len(serve_scenarios())
    by_id = {o.scenario: o for o in report.outcomes}
    # The kill scenario must recover via a retry, not by luck.
    assert by_id["serve-worker-kill"].ok
    assert "worker-crash" in by_id["serve-worker-kill"].fault_kinds
    # The stall must degrade to the coarse Adler estimate, not hang.
    assert by_id["serve-slow-solve-stall"].ok
    # Every outcome is tagged with the service layer for the v2 report.
    assert all(o.layer == "service" for o in report.outcomes)


def test_serve_report_doc_is_v2(report, tmp_path):
    from repro.robust.injection import FAULTS_SCHEMA_VERSION

    doc = report.to_dict()
    assert doc["schema"] == FAULTS_SCHEMA_VERSION
    assert doc["mode"] == "serve"
    assert doc["layers"]["service"]["total"] == len(report.outcomes)
    path = report.write(tmp_path / "FAULTS_SERVE.json")
    assert path.exists()
