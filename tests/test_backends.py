"""Tests for the two execution paths: inline (serial) and the process pool.

The load-bearing invariant: a campaign's results are a pure function of
its spec — identical payloads no matter which path ran the cells, at any
job count.
"""

import pytest

from repro.experiments.backends import demo
from repro.experiments.campaign import (
    CampaignCache,
    CampaignSpec,
    execute_campaign,
)


def demo_spec(n: int = 4, **base) -> CampaignSpec:
    """A campaign over the built-in demo runner (cheap, deterministic)."""
    return CampaignSpec.create(
        name="demo",
        runner="demo-cell",
        axes={"cell_id": tuple(range(n))},
        base=base,
    )


class TestLocalBackendEquivalence:
    def test_payloads_identical_across_local_backends(self):
        spec = demo_spec(6)
        serial = execute_campaign(spec).payloads()
        assert execute_campaign(spec, jobs=3).payloads() == serial

    def test_event_stream_covers_every_cell(self):
        spec = demo_spec(3)
        for jobs in (1, 2):
            events = []
            execute_campaign(spec, jobs=jobs, on_event=events.append)
            kinds = [event.kind for event in events]
            assert kinds.count("cell_started") == 3, jobs
            assert kinds.count("cell_finished") == 3, jobs

    def test_jobs_one_defaults_to_serial_and_many_to_process(self):
        spec = demo_spec(2)
        assert execute_campaign(spec).backend == "serial"
        assert execute_campaign(spec, jobs=2).backend == "process"

    def test_single_pending_cell_resumes_inline_even_with_jobs(self, tmp_path):
        """A warm resume with one missing cell must not pay for a pool."""
        spec = demo_spec(3)
        first = execute_campaign(spec, cache_dir=tmp_path)
        CampaignCache(tmp_path).path_for(first.cells[1].key).unlink()
        resumed = execute_campaign(spec, jobs=4, cache_dir=tmp_path)
        assert resumed.backend == "serial"
        assert resumed.misses == 1
        assert resumed.payloads() == first.payloads()


class TestFailureSemantics:
    @pytest.mark.parametrize(
        "jobs", [pytest.param(1, id="serial"), pytest.param(2, id="process")]
    )
    def test_failure_drains_and_caches_survivors(self, jobs, tmp_path):
        spec = demo_spec(4, fail_ids=[2])
        with pytest.raises(RuntimeError, match="demo cell 2"):
            execute_campaign(spec, jobs=jobs, cache_dir=tmp_path)
        # The three healthy cells still reached the cache.
        assert len(CampaignCache(tmp_path)) == 3

    def test_failed_event_carries_exception_for_in_process_backends(self):
        spec = demo_spec(2, fail_ids=[1])
        events = []
        with pytest.raises(RuntimeError):
            execute_campaign(spec, on_event=events.append)
        [failure] = [event for event in events if event.kind == "cell_failed"]
        assert isinstance(failure.exception, RuntimeError)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_stops_a_serial_campaign_at_once(
        self, interrupt, monkeypatch, tmp_path
    ):
        """Ctrl-C in a cell is not a cell failure: no later cell runs."""
        calls = []

        def interrupted_cell(cell_id):
            calls.append(cell_id)
            if cell_id == 0:
                raise interrupt
            return {"cell_id": cell_id}

        monkeypatch.setattr(demo, "demo_cell", interrupted_cell)
        events = []
        with pytest.raises(interrupt):
            execute_campaign(demo_spec(4), cache_dir=tmp_path, on_event=events.append)
        assert calls == [0]
        assert [event.kind for event in events] == ["cell_started"]
        assert len(CampaignCache(tmp_path)) == 0
