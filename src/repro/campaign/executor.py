"""Pluggable executors: how a batch of :class:`RunSpec` gets run.

The contract is a single method — ``map(specs, on_result=None) ->
[RunResult]`` — with
results in **spec order regardless of completion order**, so every
aggregation downstream (histograms, grids, sweeps) is independent of
scheduling.  :class:`SerialExecutor` is the reference implementation;
:class:`ParallelExecutor` fans the batch out over a process pool,
reconstructing policies from their specs inside the workers (nothing
unpicklable crosses the boundary).  Because a run is a pure function of
its spec, the two are interchangeable: serial and parallel campaigns
produce byte-identical results.

Both executors are **fault-tolerant**: a crashing spec becomes a
``RunResult`` carrying a :class:`~repro.campaign.spec.RunFailure`
(captured inside :func:`execute_spec_guarded`), never a batch abort.
On top of that the parallel executor survives the process pool itself
failing:

* per-spec futures (not ``pool.map``), so completed results are kept
  when a sibling dies;
* a per-run wall-clock timeout (``run_timeout``) as a safety net over
  the simulation's own cycle watchdog;
* retry with exponential backoff for transiently lost workers, pool
  rebuild after ``BrokenProcessPool``, and graceful degradation to
  in-process serial execution after repeated pool failures — partial
  results are always returned, with failures reported in place.

Both executors are also **preemptible**: ``map`` runs inside a
:func:`~repro.campaign.preempt.graceful_preemption` region, so a
SIGTERM/SIGINT stops dispatching, drains or cancels in-flight runs
within ``preempt_drain`` seconds, and reports every unexecuted spec as
a ``preempted`` failure instead of unwinding with a traceback (a second
signal escalates to ``KeyboardInterrupt``).  And whenever ``map`` *is*
unwound by an exception — including ``KeyboardInterrupt`` — the worker
pool is shut down and its children reaped before the exception
propagates, so an interrupted campaign never strands orphan processes.
A parent killed outright (SIGKILL) unwinds nothing; its workers notice
the lost parent and exit on their own (:func:`exit_with_parent`).

Completed results are additionally announced one-by-one through
``map``'s optional ``on_result`` argument (``on_result(index, result)``
in the order results become final), which is how the campaign layer
journals progress incrementally instead of only at batch end.  The
callback belongs to the call, not the executor, so one executor can
serve several campaigns without carrying per-call state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence

from repro.campaign.preempt import (
    PreemptionToken,
    current_token,
    graceful_preemption,
)
from repro.campaign.spec import (
    RunFailure,
    RunResult,
    RunSpec,
    execute_spec_guarded,
)
from repro.obs import METRICS


#: Called as ``on_result(index, result)`` when a spec's result is final.
OnResult = Callable[[int, RunResult], None]

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_S = 0.25


def exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once the parent process is gone.

    A parent killed by SIGKILL cannot shut its pool down, so its workers
    would live on as orphans.  ``parent`` is the pool owner's pid, taken
    in the owner before the worker starts: a worker whose owner died
    before this initializer ran has already been re-parented and exits
    at once.  Otherwise a daemon thread polls ``os.getppid()`` and ends
    the worker as soon as it differs from ``parent``.
    """
    if os.getppid() != parent:
        os._exit(1)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    watcher = threading.Thread(target=watch, name="exit-with-parent")
    watcher.daemon = True
    watcher.start()


def worker_pool(jobs: int):
    """The ``ProcessPoolExecutor`` of ``jobs`` workers that
    :class:`ParallelExecutor` runs on, the one process pool the library
    starts; its workers exit with this process (see
    :func:`exit_with_parent`)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=exit_with_parent, initargs=(os.getpid(),),
    )


def execute_spec_observed(spec: RunSpec):
    """Worker-side entry point: run a spec and ship its metrics home.

    Returns ``(result, delta)`` where ``delta`` is the registry diff
    produced by this run (or None when metrics are off in the worker).
    The before/after snapshot diff cancels whatever counter baseline a
    fork-inherited registry already held, so merging deltas in the
    parent counts every observation exactly once.  Results themselves
    never carry metrics — serial and parallel campaigns must stay
    byte-identical.
    """
    if not METRICS.enabled:
        return execute_spec_guarded(spec), None
    before = METRICS.snapshot()
    result = execute_spec_guarded(spec)
    return result, METRICS.snapshot().diff(before)


def _collect(value):
    """Unwrap a worker return value, merging any shipped metrics delta."""
    if type(value) is tuple:
        result, delta = value
        if delta is not None:
            METRICS.merge(delta)
        return result
    return value


def _failure(kind: str, message: str, attempts: int = 1) -> RunResult:
    return RunResult(
        observable=None,
        cycles=0,
        completed=False,
        failure=RunFailure(kind=kind, message=message, attempts=attempts),
    )


def preempted_result(token: Optional[PreemptionToken] = None) -> RunResult:
    """The failure result filled in for a spec preemption skipped."""
    signum = token.signum if token is not None else None
    via = f"signal {signum}" if signum is not None else "stop request"
    return _failure(
        "preempted",
        f"campaign preempted ({via}) before this run completed; "
        f"resume with the campaign journal to execute it",
    )


class Executor:
    """Execution strategy for a batch of independent runs."""

    #: Worker parallelism (1 for serial); informational for reports.
    jobs: int = 1
    #: Operational counters, reset by each ``map`` call and folded into
    #: :class:`~repro.campaign.metrics.CampaignMetrics`.
    retried_runs: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    #: Install SIGTERM/SIGINT graceful-stop handlers around ``map``.
    preemptible: bool = True
    #: Seconds to wait for in-flight runs after a preemption request.
    preempt_drain: float = 5.0

    def map(
        self, specs: Iterable[RunSpec], on_result: Optional[OnResult] = None
    ) -> List[RunResult]:
        """Execute every spec, returning results in spec order.

        ``on_result(index, result)`` is called the moment a spec's
        result becomes final (indices are positions in the batch).
        Exceptions propagate: the campaign journal uses it, and a
        journaling failure must not be swallowed.
        """
        batch = list(specs)
        self.retried_runs = self.pool_rebuilds = 0
        self.degraded = False
        results: List[Optional[RunResult]] = [None] * len(batch)
        if on_result is None:
            finish = results.__setitem__
        else:
            def finish(i: int, result: RunResult) -> None:
                results[i] = result
                on_result(i, result)
        preemption = (
            graceful_preemption() if self.preemptible
            else contextlib.nullcontext()
        )
        with preemption as token:
            self._execute(batch, token, finish)
        # Every slot is filled by ``_execute``; the fallback is pure
        # defence so a logic slip can never silently drop one.
        for i, result in enumerate(results):
            if result is None:
                finish(i, _failure("worker-lost", "run produced no result"))
        return results

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def _execute(
        self,
        batch: Sequence[RunSpec],
        token: Optional[PreemptionToken],
        finish: OnResult,
    ) -> None:
        """Run ``batch``, calling ``finish(index, result)`` per spec."""
        raise NotImplementedError

    def _run_in_process(
        self,
        batch: Sequence[RunSpec],
        indices: Iterable[int],
        token: Optional[PreemptionToken],
        finish: OnResult,
    ) -> None:
        """The one in-process loop: run ``batch[i]`` for each index in
        order, or report it ``preempted`` once a stop is requested."""
        for i in indices:
            if token is not None and token.requested():
                finish(i, preempted_result(token))
            else:
                finish(i, execute_spec_guarded(batch[i]))

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every spec in-process, one after another.

    Failures are still captured per spec (guarded execution); wall-clock
    timeouts need preemption and therefore only exist on the parallel
    executor — serial runs rely on the simulation's cycle watchdog.
    A preemption request between two specs stops the batch: remaining
    specs come back as ``preempted`` failures.
    """

    def _execute(self, batch, token, finish) -> None:
        self._run_in_process(batch, range(len(batch)), token, finish)


class ParallelExecutor(Executor):
    """Fan a batch out over a ``ProcessPoolExecutor``, fault-tolerantly.

    Every spec gets its own future; results are reassembled into spec
    order, so output never depends on completion order and surviving
    results are never discarded because a sibling failed.  A batch of
    one spec, or any batch when ``jobs`` is 1, runs in-process through
    the same preemptible loop as :class:`SerialExecutor`.

    ``run_timeout`` bounds the wall-clock wait per run (measured from
    the moment the batch starts waiting on that run; earlier runs in
    spec order are always waited on first, so a queued run is never
    charged for its predecessors).  A run that times out is retried up
    to ``retries`` times — with the pool rebuilt first if the stuck
    worker never came back — then reported as a ``wall-timeout``
    failure.

    A dead worker (``BrokenProcessPool``) fails every in-flight future;
    finished results are kept, the pool is rebuilt after a *full-jitter*
    exponential backoff (uniform over ``[0, backoff_base *
    2**(failures-1)]`` seconds) and unfinished specs are resubmitted
    (counted in ``retried_runs``).  The jitter desynchronises
    simultaneous rebuilds — several executors on one host (concurrent
    campaigns) would otherwise stampede the freshly rebuilt pools in
    lock-step — while ``backoff_seed`` pins the draw sequence for
    reproducible tests.  After
    ``max_pool_rebuilds`` pool failures the executor degrades to
    in-process serial execution for the remaining specs, so the batch
    always completes.  ``RunFailure.attempts`` on environment-caused
    failures reflects every launch the spec consumed, across both the
    timeout-retry and pool-rebuild paths.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        run_timeout: Optional[float] = None,
        retries: int = 2,
        backoff_base: float = 0.25,
        max_pool_rebuilds: int = 3,
        preemptible: bool = True,
        preempt_drain: float = 5.0,
        backoff_seed: Optional[int] = None,
    ) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.run_timeout = run_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.max_pool_rebuilds = max(0, max_pool_rebuilds)
        self.preemptible = preemptible
        self.preempt_drain = preempt_drain
        self._backoff_rng = random.Random(backoff_seed)
        self._pool = None
        self._pool_failures = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._pool = worker_pool(self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting on wedged workers."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def _backoff_delay(self, failures: int) -> float:
        """Seconds to wait before the ``failures``-th pool rebuild.

        Full jitter: a uniform draw over ``[0, backoff_base *
        2**(failures-1)]``.  The exponential ceiling still bounds load
        on the rebuilt pool, but concurrent executors spread out inside
        the window instead of retrying in lock-step.
        """
        cap = self.backoff_base * (2 ** (max(1, failures) - 1))
        if cap <= 0:
            return 0.0
        return self._backoff_rng.uniform(0.0, cap)

    def _rebuild_pool(self) -> None:
        self._discard_pool()
        self._pool_failures += 1
        self.pool_rebuilds += 1
        backoff = self._backoff_delay(self._pool_failures)
        if backoff > 0:
            time.sleep(backoff)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, batch, token, finish) -> None:
        self._pool_failures = 0
        if self.jobs <= 1 or len(batch) <= 1:
            self._run_in_process(batch, range(len(batch)), token, finish)
            return
        try:
            self._map_batch(batch, token, finish)
        except BaseException:
            # The interrupt path (KeyboardInterrupt, SystemExit, a
            # callback raising) must never strand orphan workers:
            # shut the pool down — reaping children — before the
            # exception unwinds.  Running tasks are cancelled where
            # possible; an in-flight run finishes, then its worker
            # exits and is collected.
            try:
                self.close()
            except Exception:
                self._discard_pool()
            raise

    def _map_batch(
        self,
        batch: Sequence[RunSpec],
        token: Optional[PreemptionToken],
        finish: OnResult,
    ) -> None:
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        #: Executions launched per spec (submits + in-process fallbacks);
        #: environment-caused failures report this as their attempts.
        launches = [0] * len(batch)
        timeout_attempts = [0] * len(batch)
        pending: List[int] = list(range(len(batch)))

        while pending:
            if token is not None and token.requested():
                self._preempt(pending, {}, token, finish)
                break
            if self._pool_failures > self.max_pool_rebuilds:
                # The pool keeps dying: finish the batch in-process so
                # partial results never strand.
                self.degraded = True

                def finish_here(i: int, result: RunResult) -> None:
                    # The in-process run is one more launch of the spec.
                    if result.failure is not None and (
                        result.failure.kind != "preempted"
                    ):
                        result = _stamp_attempts(result, launches[i] + 1)
                    finish(i, result)

                self._run_in_process(batch, pending, token, finish_here)
                pending = []
                break

            pool = self._ensure_pool()
            # When metrics are on, workers run the observed entry point
            # and ship per-run registry deltas back with their results.
            task = (
                execute_spec_observed if METRICS.enabled
                else execute_spec_guarded
            )
            try:
                futures = {}
                for i in pending:
                    futures[i] = pool.submit(task, batch[i])
                    launches[i] += 1
            except BrokenExecutor:
                self._rebuild_pool()
                continue

            retry: List[int] = []
            pool_broke = False
            stuck_worker = False
            preempted = False
            for pos, i in enumerate(pending):
                future = futures[i]
                if token is not None and token.requested():
                    # Stop dispatching: resolve this index and the rest
                    # of the wave by draining what already runs and
                    # cancelling the rest, then stop retrying anything.
                    self._preempt(
                        pending[pos:], futures, token, finish
                    )
                    retry = []
                    preempted = True
                    break
                if pool_broke:
                    # The pool died mid-batch; keep whatever already
                    # finished, queue the rest for the rebuilt pool.
                    if future.done():
                        try:
                            finish(i, _collect(future.result()))
                            continue
                        except Exception:
                            pass
                    retry.append(i)
                    self.retried_runs += 1
                    continue
                try:
                    finish(i, _collect(future.result(timeout=self.run_timeout)))
                except FutureTimeout:
                    cancelled = future.cancel()
                    if not cancelled:
                        stuck_worker = True
                    timeout_attempts[i] += 1
                    if timeout_attempts[i] > self.retries:
                        finish(i, _failure(
                            "wall-timeout",
                            f"run exceeded its {self.run_timeout:.3g}s "
                            f"wall-clock budget",
                            attempts=timeout_attempts[i],
                        ))
                    else:
                        self.retried_runs += 1
                        retry.append(i)
                except BrokenExecutor:
                    pool_broke = True
                    retry.append(i)
                    self.retried_runs += 1
                except Exception as exc:  # pragma: no cover - guarded
                    finish(i, _failure(
                        "worker-lost",
                        f"{type(exc).__name__}: {exc}",
                        attempts=launches[i],
                    ))

            if preempted:
                pending = []
                break
            if pool_broke:
                self._rebuild_pool()
            elif stuck_worker and retry:
                # A timed-out run is still occupying a worker; reclaim
                # the capacity before retrying.
                self._discard_pool()
                self.pool_rebuilds += 1
            pending = retry

    def _preempt(
        self,
        indices: Sequence[int],
        futures: dict,
        token: PreemptionToken,
        finish: OnResult,
    ) -> None:
        """Resolve every remaining index under a preemption request.

        Futures that never started are cancelled; futures already done
        keep their results; running futures get ``preempt_drain``
        seconds to finish, after which their specs are reported as
        preempted and the (possibly still busy) pool is discarded.
        """
        from concurrent.futures import wait as wait_futures

        in_flight = []
        for i in indices:
            future = futures.get(i)
            if future is None or future.cancel():
                finish(i, preempted_result(token))
            else:
                in_flight.append((i, future))
        if in_flight:
            wait_futures(
                [f for _, f in in_flight], timeout=self.preempt_drain
            )
        abandoned = False
        for i, future in in_flight:
            taken = False
            if future.done():
                try:
                    finish(i, _collect(future.result()))
                    taken = True
                except Exception:
                    pass
            if not taken:
                finish(i, preempted_result(token))
                abandoned = True
        if abandoned:
            # A worker is still grinding on an abandoned run; drop the
            # pool so close() cannot block on it.
            self._discard_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def _stamp_attempts(result: RunResult, attempts: int) -> RunResult:
    """Record how many launches an (environment-hit) spec consumed."""
    assert result.failure is not None
    if result.failure.attempts >= attempts:
        return result
    return dataclasses.replace(
        result,
        failure=dataclasses.replace(result.failure, attempts=attempts),
    )


def default_executor(
    jobs: Optional[int] = None,
    run_timeout: Optional[float] = None,
    retries: int = 2,
) -> Executor:
    """Serial for ``jobs in (None, 0, 1)``, parallel otherwise."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs, run_timeout=run_timeout, retries=retries)
