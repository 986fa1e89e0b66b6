"""Multi-job reconstruction service: queue, scheduler, workers, result cache.

The paper's pipeline reconstructs one scan per process; this package turns
the three drivers into a *service* (DESIGN.md §12): jobs are submitted with
priorities, admitted against a bounded queue, executed concurrently on a
worker pool with per-job checkpoint/resume, deduplicated through a
content-addressed result cache, and observable through status snapshots,
progress streams, and ``service.*`` counters.

Entry points: :class:`ReconstructionService` (in-process),
:class:`DirectoryService` / ``python -m repro serve`` (file-based intake),
:class:`HttpGateway` / ``python -m repro serve-http`` (REST over
``ThreadingHTTPServer``, exercised by :func:`repro.service.loadgen.run_load`
/ ``python -m repro loadtest``).
"""

from repro.service.cache import CachedResult, ResultCache, cache_key
from repro.service.chaos import (
    ChaosPlan,
    CampaignResult,
    run_campaign,
    run_campaigns,
    summarize,
)
from repro.service.faults import (
    DegradableWriter,
    DegradingCheckpointManager,
    RetryPolicy,
    arm_disk_fault,
    check_disk_fault,
    disarm_disk_fault,
    next_backoff,
)
from repro.service.http import HttpGateway
from repro.service.intake import (
    DirectoryService,
    read_status,
    request_cancel,
    write_job_spec,
)
from repro.service.jobs import (
    DRIVERS,
    TERMINAL_STATES,
    EvictedJobError,
    Job,
    JobCancelledError,
    JobDeadlineError,
    JobEvent,
    JobFailedError,
    JobSpec,
    JobState,
    JobStateError,
    ResultPersistError,
    ServiceError,
    UnknownJobError,
)
from repro.service.loadgen import JobRecord, LoadReport, run_load
from repro.service.progress import JobMetrics, ProgressEvent
from repro.service.queue import AdmissionError, JobQueue, QueueClosedError
from repro.service.reaper import JobReaper
from repro.service.runner import clear_system_cache, run_job, system_for
from repro.service.scheduler import Scheduler
from repro.service.service import ReconstructionService

__all__ = [
    "DRIVERS",
    "TERMINAL_STATES",
    "ServiceError",
    "JobStateError",
    "JobFailedError",
    "JobCancelledError",
    "JobDeadlineError",
    "ResultPersistError",
    "UnknownJobError",
    "EvictedJobError",
    "AdmissionError",
    "QueueClosedError",
    "JobState",
    "JobEvent",
    "JobSpec",
    "Job",
    "JobQueue",
    "cache_key",
    "CachedResult",
    "ResultCache",
    "ProgressEvent",
    "JobMetrics",
    "system_for",
    "clear_system_cache",
    "run_job",
    "Scheduler",
    "JobReaper",
    "ReconstructionService",
    "HttpGateway",
    "JobRecord",
    "LoadReport",
    "run_load",
    "DirectoryService",
    "write_job_spec",
    "read_status",
    "request_cancel",
    "next_backoff",
    "RetryPolicy",
    "DegradableWriter",
    "DegradingCheckpointManager",
    "check_disk_fault",
    "arm_disk_fault",
    "disarm_disk_fault",
    "ChaosPlan",
    "CampaignResult",
    "run_campaign",
    "run_campaigns",
    "summarize",
]
