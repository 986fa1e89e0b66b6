"""DirectoryService: file intake, status publishing, cancel files, recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io import load_reconstruction, save_scan
from repro.service import (
    DirectoryService,
    read_status,
    request_cancel,
    write_job_spec,
)

PARAMS = {"max_equits": 1.0, "seed": 3, "track_cost": False}


@pytest.fixture()
def queue_dir(tmp_path, scan16):
    save_scan(tmp_path / "scan.npz", scan16)
    return tmp_path


class TestIntake:
    def test_spec_file_becomes_a_done_job_with_result(self, queue_dir):
        write_job_spec(queue_dir, "j1", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)

        # accepted: moved out of incoming/, spec archived under jobs/
        assert not (queue_dir / "incoming" / "j1.json").exists()
        assert (queue_dir / "jobs" / "j1" / "spec.json").exists()

        status = read_status(queue_dir, "j1")
        assert status["state"] == "DONE"
        assert status["updated_at"] > 0

        image, history, meta = load_reconstruction(
            queue_dir / "jobs" / "j1" / "result.npz"
        )
        assert image.shape == (16, 16)
        assert history is not None and len(history.records) >= 1
        assert meta["job_id"] == "j1"
        assert meta["driver"] == "icd"

    def test_relative_and_absolute_scan_paths(self, queue_dir):
        write_job_spec(queue_dir, "rel", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        write_job_spec(queue_dir, "abs", driver="icd",
                       scan_path=queue_dir / "scan.npz", params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
        assert read_status(queue_dir, "rel")["state"] == "DONE"
        assert read_status(queue_dir, "abs")["state"] == "DONE"

    def test_unknown_spec_keys_quarantined(self, queue_dir):
        path = write_job_spec(queue_dir, "bad", driver="icd",
                              scan_path="scan.npz", params=PARAMS)
        doc = json.loads(path.read_text())
        doc["threads"] = 64
        path.write_text(json.dumps(doc))
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.poll_incoming() == []  # never raises
        status = read_status(queue_dir, "bad")
        assert status["state"] == "FAILED"
        assert status["quarantined"] is True
        assert "threads" in status["error"]

    def test_priorities_pass_through(self, queue_dir):
        write_job_spec(queue_dir, "lo", driver="icd", scan_path="scan.npz",
                       params=PARAMS, priority=1)
        write_job_spec(queue_dir, "hi", driver="icd", scan_path="scan.npz",
                       params=dict(PARAMS, seed=4), priority=9)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
            jobs = {j.job_id: j for j in service.service.jobs}
        assert jobs["hi"].started_at <= jobs["lo"].started_at
        assert read_status(queue_dir, "hi")["priority"] == 9


class TestCancelFile:
    def test_cancel_sentinel_cancels_the_job(self, queue_dir):
        write_job_spec(queue_dir, "victim", driver="icd", scan_path="scan.npz",
                       params=dict(PARAMS, max_equits=500.0))
        with DirectoryService(queue_dir, n_workers=1) as service:
            # wait until it actually starts, then drop the cancel file
            deadline_hit = service.run(drain=True, max_seconds=0.5)
            assert not deadline_hit
            request_cancel(queue_dir, "victim")
            assert service.run(drain=True, max_seconds=120)
        assert read_status(queue_dir, "victim")["state"] == "CANCELLED"


class TestRecovery:
    def test_nonterminal_jobs_resubmitted_on_startup(self, queue_dir):
        write_job_spec(queue_dir, "j1", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        # First life accepts the spec but never runs it (workers get no time):
        # simulate by accepting with a service whose run loop never steps.
        service = DirectoryService(queue_dir, n_workers=1)
        service.poll_incoming()
        snapshot = read_status(queue_dir, "j1")
        service.service.scheduler.stop(wait=True)  # die before finishing
        assert snapshot["state"] in {"PENDING", "RUNNING"}

        # Second life: recovery picks the job up and completes it.
        with DirectoryService(queue_dir, n_workers=1) as second:
            assert second.run(drain=True, max_seconds=120)
        assert read_status(queue_dir, "j1")["state"] == "DONE"

    def test_terminal_jobs_not_resubmitted(self, queue_dir):
        write_job_spec(queue_dir, "j1", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
        first = read_status(queue_dir, "j1")

        with DirectoryService(queue_dir, n_workers=1) as second:
            assert second.run(drain=True, max_seconds=120)
            assert second.service.jobs == []  # nothing was requeued
        assert read_status(queue_dir, "j1") == first


class TestPersistentDedup:
    def test_duplicate_submission_served_from_disk_cache(self, queue_dir):
        write_job_spec(queue_dir, "orig", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)

        # A *new* server life gets the duplicate: the persistent cache
        # under <queue_dir>/cache must serve it without recomputation.
        write_job_spec(queue_dir, "dup", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as second:
            assert second.run(drain=True, max_seconds=120)
            counters = second.service.report()["counters"]
        assert counters["service.jobs_deduped"] == 1

        dup_status = read_status(queue_dir, "dup")
        assert dup_status["state"] == "DONE"
        assert dup_status["from_cache"] is True
        img_orig, _, _ = load_reconstruction(queue_dir / "jobs" / "orig" / "result.npz")
        img_dup, _, _ = load_reconstruction(queue_dir / "jobs" / "dup" / "result.npz")
        np.testing.assert_array_equal(img_orig, img_dup)


class TestQuarantine:
    """PR-7 bugfix: a bad spec must not crash (or permanently wedge) serving.

    Pre-fix, a malformed spec raised out of ``poll_incoming`` — and since
    the spec had already been accepted into ``jobs/<id>/spec.json``,
    ``_recover`` re-raised on every restart, wedging the queue directory
    for good.
    """

    def _drop_raw_spec(self, queue_dir, job_id, text):
        incoming = queue_dir / "incoming"
        incoming.mkdir(parents=True, exist_ok=True)
        (incoming / f"{job_id}.json").write_text(text)

    def test_unparseable_json_is_quarantined_and_good_jobs_still_run(self, queue_dir):
        self._drop_raw_spec(queue_dir, "garbled", "{not json at all")
        write_job_spec(queue_dir, "good", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
        bad = read_status(queue_dir, "garbled")
        assert bad["state"] == "FAILED" and bad["quarantined"] is True
        assert read_status(queue_dir, "good")["state"] == "DONE"

    def test_unreadable_scan_is_quarantined(self, queue_dir):
        write_job_spec(queue_dir, "noscan", driver="icd",
                       scan_path="missing.npz", params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.poll_incoming() == []
        status = read_status(queue_dir, "noscan")
        assert status["state"] == "FAILED"
        assert status["quarantined"] is True

    def test_unknown_driver_is_quarantined(self, queue_dir):
        self._drop_raw_spec(
            queue_dir, "warp",
            json.dumps({"driver": "warp_drive", "scan": "scan.npz"}),
        )
        with DirectoryService(queue_dir, n_workers=1) as service:
            service.poll_incoming()
        status = read_status(queue_dir, "warp")
        assert status["state"] == "FAILED" and "warp_drive" in status["error"]

    def test_restart_after_quarantine_is_not_wedged(self, queue_dir):
        """The pre-fix failure mode: every restart re-raised on the bad spec."""
        write_job_spec(queue_dir, "noscan", driver="icd",
                       scan_path="missing.npz", params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            service.poll_incoming()
        assert read_status(queue_dir, "noscan")["state"] == "FAILED"

        # Second life: constructing the service runs _recover — pre-fix this
        # raised; post-fix the quarantined job is terminal and skipped, and
        # new work still flows.
        write_job_spec(queue_dir, "good", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as second:
            assert second.service.jobs == []  # quarantined job not resubmitted
            assert second.run(drain=True, max_seconds=120)
        assert read_status(queue_dir, "good")["state"] == "DONE"
        assert read_status(queue_dir, "noscan")["state"] == "FAILED"


class TestAdmissionDeferral:
    """PR-7 bugfix: a full queue defers an accepted spec, it is never lost."""

    def test_admission_rejected_specs_requeue_on_later_polls(self, queue_dir):
        service = DirectoryService(queue_dir, n_workers=1, max_queue_depth=1)
        try:
            # Park the worker so the depth-1 queue stays full deterministically.
            service.service.scheduler.stop(wait=True)
            for i in range(3):
                write_job_spec(queue_dir, f"j{i}", driver="icd",
                               scan_path="scan.npz",
                               params=dict(PARAMS, seed=i))
            accepted = service.poll_incoming()
            assert len(accepted) == 1  # depth-1 queue: exactly one admitted
            assert len(service._deferred) == 2
            # Re-polling with the queue still full keeps deferring, not raising
            # and not dropping.
            assert service.poll_incoming() == []
            assert len(service._deferred) == 2

            # Once the workers drain the queue, deferred specs get admitted.
            service.service.scheduler.start()
            assert service.run(drain=True, max_seconds=120)
            assert service._deferred == {}
        finally:
            service.close()
        for i in range(3):
            assert read_status(queue_dir, f"j{i}")["state"] == "DONE", f"j{i}"


class TestCancelSentinelConsumed:
    """PR-7 satellite: terminal jobs stop being re-cancelled on every poll."""

    def test_request_cancel_on_terminal_job_is_noop_false(self, queue_dir):
        write_job_spec(queue_dir, "j1", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
            job = service.service.job("j1")
            assert job.state.value == "DONE"
            # Not a JobStateError (which would kill the serve loop): a no-op.
            assert job.request_cancel() is False
            assert job.state.value == "DONE"

    def test_sentinel_consumed_once_job_terminal(self, queue_dir):
        write_job_spec(queue_dir, "j1", driver="icd", scan_path="scan.npz",
                       params=PARAMS)
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
            sentinel = request_cancel(queue_dir, "j1")
            assert sentinel.exists()
            service.poll_cancels()
            # Consumed: marked done so the next poll has nothing to re-cancel.
            assert not sentinel.exists()
            assert sentinel.with_name("cancel.done").exists()
            service.poll_cancels()  # idempotent, nothing to do
        assert read_status(queue_dir, "j1")["state"] == "DONE"

    def test_unknown_job_sentinel_left_as_record(self, queue_dir):
        sentinel = request_cancel(queue_dir, "ghost")
        with DirectoryService(queue_dir, n_workers=1) as service:
            service.poll_cancels()
            assert sentinel.exists()  # kept: nothing to cancel, file is a record


class TestClosedQueueDeferral:
    """PR-8: a closed queue defers accepted specs instead of quarantining.

    A spec that arrives while the service is shutting down is valid work —
    a restarted server against the same queue directory must run it, so the
    intake files it as deferred (like admission rejection), never as a
    terminal FAILED quarantine.
    """

    def test_spec_against_closed_queue_is_deferred_not_quarantined(self, queue_dir):
        with DirectoryService(queue_dir, n_workers=1) as service:
            service.service.scheduler.stop(wait=True, close=True)
            write_job_spec(queue_dir, "late", driver="icd", scan_path="scan.npz",
                           params=PARAMS)
            assert service.poll_incoming() == []
            assert "late" in service._deferred
            # Not quarantined: no terminal FAILED status was published.
            status = read_status(queue_dir, "late")
            assert status is None or status["state"] != "FAILED"

        # A second life against the same queue directory runs the spec.
        with DirectoryService(queue_dir, n_workers=1) as service:
            assert service.run(drain=True, max_seconds=120)
        assert read_status(queue_dir, "late")["state"] == "DONE"

    def test_ttl_passes_through(self, queue_dir):
        with DirectoryService(queue_dir, n_workers=1, job_ttl_s=3600.0) as service:
            assert service.service.reaper.enabled
            write_job_spec(queue_dir, "p1", driver="icd", scan_path="scan.npz",
                           params=PARAMS)
            assert service.run(drain=True, max_seconds=240)
        assert read_status(queue_dir, "p1")["state"] == "DONE"
