"""Campaign-as-a-service front-end: submit → poll → merged artifact.

The ROADMAP's "heavy traffic from millions of users" framing, made
literal: a :class:`CampaignService` owns one shared
:class:`~repro.scheduler.cache.ResultStore`, accepts campaign
submissions, runs each through the deterministic pool runner on a
background thread, and serves job handles that clients poll.  Every
duplicate cell across all submitted campaigns — the common case when
many users sweep overlapping knob grids — costs one store lookup
instead of one simulation, and results are byte-identical either way
(the equivalence the diff-harness cache mode pins).

Progress and cache efficiency surface through the standard
observability plane: the service increments ``campaign_*`` counters on
the :class:`~repro.observability.Observability` handle it was built
with, and ``ops_report()`` gained a ``campaign`` section that reads
them back.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional, Sequence

from ..observability import Observability, null_observability
from .cache import MemoryResultStore, ResultStore
from .campaign import (
    CampaignConfig,
    Scenario,
    ScenarioResult,
    campaign_digest,
    run_campaign,
)

__all__ = ["CampaignJob", "CampaignService"]


class CampaignJob:
    """Handle for one submitted campaign.

    Snapshot the live state with :meth:`status` (thread-safe), block for
    completion with :meth:`wait`, and fetch the merged artifact with
    :meth:`result`.  States move ``pending → running → done`` (or
    ``failed``; the original exception is re-raised by :meth:`result`).
    """

    def __init__(self, job_id: str, total: int, label: str = "") -> None:
        self.job_id = job_id
        self.total = total
        self.label = label
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._state = "pending"
        self._completed = 0
        self._replayed = 0
        self._error: Optional[BaseException] = None
        self._results: Optional[list[ScenarioResult]] = None
        self._digest: Optional[str] = None

    # -- mutation (service thread only) -------------------------------------
    def _on_cell(self, replayed: bool) -> None:
        with self._lock:
            self._completed += 1
            if replayed:
                self._replayed += 1

    def _start(self) -> None:
        with self._lock:
            self._state = "running"

    def _finish(self, results: list[ScenarioResult]) -> None:
        with self._lock:
            self._results = results
            self._digest = campaign_digest(results)
            self._state = "done"
        self._finished.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            self._state = "failed"
        self._finished.set()

    # -- client surface ------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """One poll: state, progress, replay split, digest when done."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "label": self.label,
                "state": self._state,
                "total": self.total,
                "completed": self._completed,
                "simulated": self._completed - self._replayed,
                "replayed": self._replayed,
                "campaign_digest": self._digest,
                "error": None if self._error is None else repr(self._error),
            }

    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the campaign finishes; True if it did in time."""
        return self._finished.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> list[ScenarioResult]:
        """The merged artifact (submission order), blocking if needed."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"campaign {self.job_id} still running")
        if self._error is not None:
            raise RuntimeError(
                f"campaign {self.job_id} failed: {self._error!r}"
            ) from self._error
        assert self._results is not None
        return self._results


class CampaignService:
    """Submit/poll front-end over :func:`run_campaign` + a shared store.

    One service instance = one cache domain: every campaign submitted
    here reads and warms the same :class:`ResultStore` (in-memory by
    default; hand in a :class:`~repro.scheduler.cache.
    DirectoryResultStore` to persist across processes).  Submissions run
    on daemon threads — the runner itself still fans cells across the
    deterministic multiprocessing pool — so ``submit`` returns
    immediately with a :class:`CampaignJob` handle.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        observability: Optional[Observability] = None,
        processes: Optional[int] = None,
    ) -> None:
        self.store = store if store is not None else MemoryResultStore()
        self.obs = observability if observability is not None else null_observability()
        self.processes = processes
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def submit(
        self,
        config: CampaignConfig,
        scenarios: Sequence[Scenario],
        label: str = "",
    ) -> CampaignJob:
        """Queue one campaign; returns its handle immediately."""
        scenarios = list(scenarios)
        with self._lock:
            job_id = f"campaign-{next(self._ids):04d}"
        job = CampaignJob(job_id, total=len(scenarios), label=label)
        metrics = self.obs.metrics
        metrics.counter("campaign_jobs_submitted_total").inc()

        def on_result(cell: ScenarioResult, replayed: bool) -> None:
            job._on_cell(replayed)
            metrics.counter("campaign_cells_completed_total").inc()
            if replayed:
                metrics.counter("campaign_cells_replayed_total").inc()
            else:
                metrics.counter("campaign_cells_simulated_total").inc()

        def body() -> None:
            job._start()
            try:
                results = run_campaign(
                    config,
                    scenarios,
                    processes=self.processes,
                    cache=self.store,
                    on_result=on_result,
                )
            except BaseException as exc:  # surface through the handle
                metrics.counter("campaign_jobs_failed_total").inc()
                job._fail(exc)
            else:
                metrics.counter("campaign_jobs_completed_total").inc()
                job._finish(results)

        threading.Thread(
            target=body, name=f"campaign-service-{job_id}", daemon=True
        ).start()
        return job

    def result(
        self, job: CampaignJob, timeout: Optional[float] = None
    ) -> list[ScenarioResult]:
        """The merged artifact of a submitted job, blocking if needed."""
        return job.result(timeout)
