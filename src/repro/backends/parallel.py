"""Calibrated, bounded thread-pool execution for the batched solver stack.

The repo's hot paths are mutually independent at three granularities — the
shape buckets of one tree level, the gather/evaluate vs.
compress stages of neighbouring construction levels, and the steps of a
parameter sweep — and the BLAS kernels underneath them release the GIL.
This module provides the one shared substrate they all dispatch through:

:class:`ParallelPolicy`
    A frozen, hashable description of *how much* parallelism to use:
    worker count (``"auto"`` derives it from the calibrated
    :class:`~repro.backends.calibration.MachineProfile`), the minimum
    task count / per-task element floor below which launches stay inline,
    and the per-worker BLAS thread cap.

:func:`resolve_parallel`
    Maps every accepted spelling (``None`` → the ``REPRO_PARALLEL``
    environment variable, ``"off"``, ``"auto"``, an int, a mapping, or a
    policy) onto ``Optional[ParallelPolicy]`` — ``None`` meaning serial
    execution, which reproduces the pre-parallel behaviour exactly.

:func:`run_tasks`
    Execute independent thunks on the shared bounded pool.  Results come
    back in **task order**; each worker records kernel events into a
    detached per-task sub-trace which the coordinator absorbs into its
    active trace in stable task-index order (never completion order), so
    traces — and therefore the CI counter gate — stay bit-deterministic.

:func:`prefetch_iter`
    A bounded producer/consumer pipeline over a generator: the producer
    evaluates the next item(s) on a worker while the caller processes the
    current one (the two-deep construction pipeline of
    :func:`~repro.core.hodlr.build_hodlr`).

Oversubscription guard
----------------------
``workers × blas_threads`` must never exceed the machine.  While the pool
is alive the per-worker BLAS thread cap is enforced through
``threadpoolctl`` when importable and through the conventional environment
variables (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ...) otherwise;
:func:`shutdown_pool` restores the saved values exactly.

Nested parallelism is suppressed: a task already running on the pool runs
any inner :func:`run_tasks` inline, so bucket-level dispatch inside a
parallel sweep step cannot deadlock the bounded pool.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from .counters import get_recorder

#: environment variables the per-worker BLAS cap saves/sets/restores when
#: threadpoolctl is unavailable
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

try:  # optional dependency: precise in-process BLAS capping when available
    from threadpoolctl import threadpool_limits as _threadpool_limits
except Exception:  # pragma: no cover - container ships without threadpoolctl
    _threadpool_limits = None


class ParallelPolicyError(ValueError):
    """Raised when a parallel spec fails validation."""


@dataclass(frozen=True)
class ParallelPolicy:
    """How the shared thread pool is used.  Frozen and hashable, so configs
    carrying one remain valid :class:`~repro.api.cache.OperatorCache` keys.

    Parameters
    ----------
    workers:
        ``"auto"`` (default) derives the worker count from the calibrated
        :class:`~repro.backends.calibration.MachineProfile` — on a
        single-core host this resolves to 1 and the pool is never used —
        or an explicit ``int >= 2`` forcing that many workers.
    min_tasks:
        Smallest number of independent tasks worth a pool dispatch;
        launches with fewer stay inline.
    min_task_elements:
        Average per-task element floor: a logical launch whose
        ``total_elements / num_tasks`` falls below this stays inline (the
        pool's submission overhead would dominate the bucket kernels).
    blas_threads:
        BLAS threads each worker may use while the pool is alive
        (``workers x blas_threads`` never oversubscribes); ``None`` leaves
        the BLAS configuration untouched.
    """

    workers: Union[int, str] = "auto"
    min_tasks: int = 2
    min_task_elements: int = 65536
    blas_threads: Optional[int] = 1

    def __post_init__(self) -> None:
        w = self.workers
        if isinstance(w, str):
            if w != "auto":
                raise ParallelPolicyError(
                    f"workers must be 'auto' or a positive int, got {w!r}"
                )
        elif not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ParallelPolicyError(
                f"workers must be 'auto' or a positive int, got {w!r}"
            )
        if not isinstance(self.min_tasks, int) or self.min_tasks < 1:
            raise ParallelPolicyError(
                f"min_tasks must be a positive int, got {self.min_tasks!r}"
            )
        if not isinstance(self.min_task_elements, int) or self.min_task_elements < 0:
            raise ParallelPolicyError(
                "min_task_elements must be a non-negative int, got "
                f"{self.min_task_elements!r}"
            )
        if self.blas_threads is not None and (
            not isinstance(self.blas_threads, int)
            or isinstance(self.blas_threads, bool)
            or self.blas_threads < 1
        ):
            raise ParallelPolicyError(
                f"blas_threads must be None or a positive int, got {self.blas_threads!r}"
            )


def resolve_parallel(
    spec: Union[None, str, int, Mapping[str, Any], ParallelPolicy],
) -> Optional[ParallelPolicy]:
    """Resolve every accepted parallel spelling onto ``Optional[ParallelPolicy]``.

    ``None`` consults the ``REPRO_PARALLEL`` environment variable (unset →
    ``"off"``).  ``"off"``/``0``/``1`` resolve to ``None`` — serial
    execution, bit-identical to the pre-parallel code path.  ``"auto"``
    resolves worker count from the calibrated machine profile at first
    use; an int forces that many workers; a mapping or policy passes
    through (a policy that cannot enable more than one worker collapses
    to ``None``).
    """
    if isinstance(spec, ParallelPolicy):
        if spec.workers != "auto" and int(spec.workers) <= 1:
            return None
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_PARALLEL", "off")
    if isinstance(spec, bool):
        raise ParallelPolicyError(f"unrecognised parallel spec {spec!r}")
    if isinstance(spec, int):
        return None if spec <= 1 else ParallelPolicy(workers=spec)
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("", "off", "none", "serial"):
            return None
        if s == "auto":
            return ParallelPolicy(workers="auto")
        try:
            return resolve_parallel(int(s))
        except ValueError:
            raise ParallelPolicyError(
                f"unrecognised parallel spec {spec!r}; expected 'off', 'auto', "
                "a worker count, or a ParallelPolicy"
            ) from None
    if isinstance(spec, Mapping):
        try:
            return resolve_parallel(ParallelPolicy(**dict(spec)))
        except TypeError as exc:
            raise ParallelPolicyError(str(exc)) from exc
    raise ParallelPolicyError(
        f"unrecognised parallel spec {spec!r}; expected 'off', 'auto', "
        "a worker count, or a ParallelPolicy"
    )


def parallel_to_jsonable(
    spec: Union[None, str, int, ParallelPolicy],
) -> Union[None, str, int, Dict[str, Any]]:
    """JSON-compatible form of a config ``parallel`` field (lossless)."""
    if spec is None or isinstance(spec, (str, int)):
        return spec
    return {
        "workers": spec.workers,
        "min_tasks": spec.min_tasks,
        "min_task_elements": spec.min_task_elements,
        "blas_threads": spec.blas_threads,
    }


# ----------------------------------------------------------------------
# the shared bounded pool
# ----------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS: int = 0
_SUBMISSIONS: int = 0
_BLAS_SAVED: Optional[Dict[str, Optional[str]]] = None
_BLAS_LIMITER: Any = None
_TLS = threading.local()


@dataclass(frozen=True)
class PoolStats:
    """Observable pool state (the zero-submission guarantee of
    ``parallel="off"`` is asserted against ``submissions``)."""

    submissions: int
    workers: int
    active: bool


def effective_workers(policy: Optional[ParallelPolicy]) -> int:
    """The worker count a policy resolves to on this host.

    ``workers="auto"`` reads the calibrated machine profile's
    ``parallel_workers`` (clamped to the visible CPU count; single-core
    hosts short-circuit to 1 without triggering calibration).  Explicit
    integer worker counts are honoured as given — tests force parallel
    execution on any host that way.
    """
    if policy is None:
        return 1
    w = policy.workers
    if w == "auto":
        ncpu = os.cpu_count() or 1
        if ncpu <= 1:
            return 1
        # imported lazily: first "auto" use may trigger (cached) calibration
        from .calibration import get_active_profile

        return max(1, min(int(get_active_profile().parallel_workers), ncpu))
    return max(1, int(w))


def should_run_parallel(
    policy: Optional[ParallelPolicy],
    num_tasks: int,
    elements: Optional[float] = None,
) -> bool:
    """Does this logical launch go to the pool under ``policy``?

    ``elements`` is the total element count of the launch; the calibrated
    floor compares the per-task average against ``min_task_elements``.
    Tasks already running on the pool always answer ``False`` (nested
    dispatch runs inline, keeping the bounded pool deadlock-free).
    """
    if policy is None or num_tasks < 2 or num_tasks < policy.min_tasks:
        return False
    if getattr(_TLS, "in_worker", False):
        return False
    if elements is not None and elements / num_tasks < policy.min_task_elements:
        return False
    return effective_workers(policy) > 1


def _apply_blas_cap(blas_threads: Optional[int]) -> None:
    """Cap worker BLAS threads (called under ``_POOL_LOCK``).  Saves the
    prior environment exactly once; :func:`shutdown_pool` restores it."""
    global _BLAS_SAVED, _BLAS_LIMITER
    if blas_threads is None or _BLAS_SAVED is not None:
        return
    _BLAS_SAVED = {var: os.environ.get(var) for var in _BLAS_ENV_VARS}  # repro-lint: ignore[RL006] -- caller holds _POOL_LOCK
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(int(blas_threads))
    if _threadpool_limits is not None:  # pragma: no cover - optional dep
        try:
            _BLAS_LIMITER = _threadpool_limits(limits=int(blas_threads))  # repro-lint: ignore[RL006] -- caller holds _POOL_LOCK
        except Exception:
            _BLAS_LIMITER = None  # repro-lint: ignore[RL006] -- caller holds _POOL_LOCK


def _restore_blas_cap() -> None:
    """Undo :func:`_apply_blas_cap` (called under ``_POOL_LOCK``)."""
    global _BLAS_SAVED, _BLAS_LIMITER
    if _BLAS_LIMITER is not None:  # pragma: no cover - optional dep
        try:
            _BLAS_LIMITER.unregister()
        except Exception:
            pass
        _BLAS_LIMITER = None  # repro-lint: ignore[RL006] -- caller holds _POOL_LOCK
    if _BLAS_SAVED is not None:
        for var, old in _BLAS_SAVED.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old
        _BLAS_SAVED = None  # repro-lint: ignore[RL006] -- caller holds _POOL_LOCK


def _ensure_pool(workers: int, blas_threads: Optional[int]) -> ThreadPoolExecutor:
    """The shared pool, (re)created when a larger worker count is needed."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _apply_blas_cap(blas_threads)
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-parallel"
            )
            _POOL_WORKERS = workers
        return _POOL


def _count_submissions(n: int) -> None:
    global _SUBMISSIONS
    with _POOL_LOCK:
        _SUBMISSIONS += n


def pool_stats() -> PoolStats:
    """Current pool observables (cumulative submissions since last reset)."""
    with _POOL_LOCK:
        return PoolStats(
            submissions=_SUBMISSIONS, workers=_POOL_WORKERS, active=_POOL is not None
        )


def reset_pool_stats() -> None:
    """Zero the submission counter (test isolation)."""
    global _SUBMISSIONS
    with _POOL_LOCK:
        _SUBMISSIONS = 0


def shutdown_pool() -> None:
    """Shut the shared pool down and restore the saved BLAS thread caps."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None
            _POOL_WORKERS = 0
        _restore_blas_cap()


def _run_traced(task: Callable[[], Any], rec, ambient):
    """Worker-side wrapper: run ``task`` with the submitter's ambient trace
    context installed, recording into a detached sub-trace."""
    _TLS.in_worker = True
    try:
        with rec.subtrace(ambient) as trace:
            result = task()
        return result, trace
    finally:
        _TLS.in_worker = False


def run_tasks(
    tasks: Sequence[Callable[[], Any]],
    policy: Optional[ParallelPolicy],
    *,
    elements: Optional[float] = None,
) -> List[Any]:
    """Run independent thunks, on the pool when ``policy`` predicts a win.

    Results return in **task order**.  Worker sub-traces are absorbed into
    the coordinator's active trace in stable task-index order — never
    completion order — so repeated parallel runs produce byte-identical
    traces, equal to the serial event sequence.  The inline path is exactly
    ``[task() for task in tasks]`` (zero pool submissions).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if not should_run_parallel(policy, len(tasks), elements):
        return [task() for task in tasks]
    assert policy is not None
    pool = _ensure_pool(effective_workers(policy), policy.blas_threads)
    rec = get_recorder()
    ambient = rec.capture_ambient()
    futures = [pool.submit(_run_traced, task, rec, ambient) for task in tasks]
    _count_submissions(len(futures))
    results: List[Any] = []
    for fut in futures:  # task order, not completion order
        result, trace = fut.result()
        rec.absorb(trace)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# bounded pipeline over a generator
# ----------------------------------------------------------------------
_ITEM, _DONE, _ERROR = 0, 1, 2


def prefetch_iter(
    iterable: Iterable[Any],
    policy: Optional[ParallelPolicy],
    depth: int = 2,
) -> Iterator[Any]:
    """Yield from ``iterable`` with production moved to a pool worker.

    At most ``depth`` produced-but-unconsumed items exist at a time (the
    bounded two-deep construction pipeline: the worker gathers/evaluates
    level ``k+1`` while the caller compresses level ``k``).  Item order is
    preserved, and kernel events the producer records are absorbed into
    the caller's active trace in item order, immediately before the item
    is yielded — the exact position they occupy in the serial schedule.
    Serial fallback (``policy`` off, single worker, or already on the
    pool) iterates the input directly.
    """
    if policy is None or not should_run_parallel(policy, 2):
        yield from iterable
        return
    pool = _ensure_pool(effective_workers(policy), policy.blas_threads)
    rec = get_recorder()
    ambient = rec.capture_ambient()
    q: "queue.Queue" = queue.Queue(maxsize=max(1, int(depth)))
    stop = threading.Event()

    def _put(msg) -> bool:
        while not stop.is_set():
            try:
                q.put(msg, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def _produce() -> None:
        _TLS.in_worker = True
        try:
            it = iter(iterable)
            while True:
                done = False
                with rec.subtrace(ambient) as trace:
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                if done:
                    _put((_DONE, None))
                    return
                if not _put((_ITEM, (item, trace))):
                    return  # consumer abandoned the pipeline
        except BaseException as exc:  # propagate to the consumer
            _put((_ERROR, exc))
        finally:
            _TLS.in_worker = False

    future = pool.submit(_produce)
    _count_submissions(1)
    try:
        while True:
            kind, payload = q.get()
            if kind == _DONE:
                break
            if kind == _ERROR:
                raise payload
            item, trace = payload
            rec.absorb(trace)
            yield item
    finally:
        stop.set()
        with contextlib.suppress(queue.Empty):
            while True:
                q.get_nowait()
        future.result()
