"""Parallel breadth-first state enumeration with crash recovery.

The sequential enumerator (:func:`repro.enumeration.bfs.enumerate_states`)
dominates pipeline wall-clock: every reachable state is expanded by calling
``model.step`` once per choice combination, and the PP control model fires
tens of choice permutations per state.  The expansion work is embarrassingly
parallel -- each state's successor set depends only on that state -- while
the *bookkeeping* (interning states to dense ids, recording arcs, checking
invariants) is cheap and order-sensitive.  So the engine here splits the two:

- **Workers** receive spans of packed state keys, expand them with the
  inherited kernel, and return packed successor buffers.
- **The coordinator** keeps the canonical BFS order: it processes one
  frontier *wave* at a time (all states discovered during the previous
  wave, in discovery order), shards the wave across the pool, and replays
  the results in (source id, choice order) -- exactly the order the
  sequential enumerator would have observed them.

Dispatch strategy (the perf substrate)
--------------------------------------
Workers come from a persistent :class:`~repro.enumeration.pool.WorkerPool`
shared across waves and (when the pipeline passes one in) across phases,
so pool spin-up is paid once per model context rather than per call.  Per
wave the coordinator picks one of two ways to expand it:

- **Packed shared-memory spans**, when the pool is available, the wave
  has at least :data:`DISPATCH_MIN_STATES` states and the kernel can pack
  it (it has ``expand_masked`` and at most 64 guards): the wave's keys
  are bit-packed into one ``multiprocessing.shared_memory`` segment
  (:class:`~repro.enumeration.frontier.SharedFrontier`); each worker gets
  ``(segment, start, stop)`` -- a few dozen bytes -- decodes its span,
  and returns a packed ``uint64`` successor buffer plus one guard-mask
  word per state.  The coordinator recovers the condition tuples from
  its own kernel's choice tables (mask -> signature -> table), so **no
  condition tuple and no successor list is ever pickled**.  This is
  also where the chaos suite's :class:`~repro.resilience.FaultPlan`
  strikes, by ``(wave, span, attempt)``.
- **In-process** for every other wave: tiny waves (every model's first
  few waves, and small models entirely) -- the round-trip would cost
  more than the work, which is what makes small models *never* regress
  -- and every wave of a kernel that cannot pack (the
  :class:`~repro.enumeration.kernel.InterpretedKernel` oracle).

Determinism guarantee
---------------------
Sequential BFS pops states in strictly increasing id order (the frontier is
FIFO and ids are assigned at discovery).  Wave-synchronous processing
preserves that order, and span results are always replayed in
submission order, so state ids, edge order, recorded conditions, the
``max_states`` cap and the first :class:`InvariantViolation` are all
**identical** to the sequential path -- in both ``record_all_conditions``
modes, at every job count, under every dispatch strategy above, and
regardless of how many times a span had to be retried (expansion is a pure
function of the model).  The golden tests in
``tests/test_parallel_enumeration.py`` and the chaos suite in
``tests/test_resilience.py`` lock this down by comparing byte-identical
:meth:`StateGraph.to_json` serializations.

Worker-crash recovery
---------------------
Recovery lives in :class:`~repro.enumeration.pool.WorkerPool` (it predates
the pool and kept its exact semantics): a dead worker
(``BrokenProcessPool``), a wedged one (no completion within the retry
policy's shard timeout) or a torn result pipe retires the worker
generation, sleeps an exponential backoff, re-forks and resubmits the
wave's uncollected spans.  Past the retry budget the pool *degrades*:
everything runs in-process -- slower, but it cannot crash-loop, and
results are identical.  Shared-memory segments are owned and unlinked by
the coordinator at wave boundaries (including every failure path), so
killed workers cannot leak them.

Checkpoint / resume / budgets mirror the sequential engine: snapshots are
written at wave boundaries (:class:`~repro.resilience.CheckpointConfig`),
``resume=`` continues to a bit-identical graph (checkpoints are
interchangeable between the sequential and parallel engines), and a
:class:`~repro.resilience.Budget` truncates gracefully at a boundary.

Process model
-------------
Models hold closures (choice guards, ``next_state``) that do not pickle, so
workers get the model by *fork inheritance*: the coordinator publishes it
in a module global before the pool forks and children inherit the parent's
memory image -- including the ready-built compiled kernel, so choice-table
and codec construction happen once per run, not per worker.  On platforms
without the ``fork`` start method the engine transparently falls back to
the sequential enumerator -- correctness never depends on parallelism
being available.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.enumeration.bfs import (
    EnumerationError,
    InvariantViolation,
    _approx_memory,
    enumerate_states,
    rebuild_seen_arcs,
)
from repro.enumeration.frontier import FrontierCodec, SharedFrontier
from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import (
    Kernel,
    KernelSpec,
    flush_kernel_metrics,
    resolve_kernel,
)
from repro.enumeration.pool import WorkerPool, in_worker
from repro.enumeration.stats import EnumerationStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, resolve
from repro.resilience.budget import Budget, BudgetMeter
from repro.resilience.checkpoint import (
    CheckpointConfig,
    build_payload,
    model_digest,
    resolve_resume,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.smurphi.model import SyncModel

logger = logging.getLogger("repro.enumeration")

#: Frontier size below which the coordinator expands in-process instead of
#: dispatching to workers.  Calibrated so the packed round-trip is always
#: amortized by a few thousand expansions, while the golden test models'
#: larger waves still exercise the dispatch path.
DISPATCH_MIN_STATES = 192

#: Minimum frontier states per packed span: spans this size keep every
#: round-trip worth thousands of transitions while still oversplitting
#: large waves (up to jobs*4 spans) so a skewed span cannot stall a wave.
_MIN_SPAN_STATES = 64

#: Transition kernel published by the coordinator immediately before the
#: pool forks.  It is compiled ONCE, so every worker inherits the
#: ready-built choice tables / codec closures (and any warm successor
#: memo) instead of compiling per span or per process.
_WORKER_KERNEL: Optional[Kernel] = None
#: Whether workers should collect per-span metrics snapshots (set by the
#: coordinator before the fork; False keeps the no-sink path overhead-free).
_WORKER_COLLECT: bool = False
#: Fault plan inherited by workers (chaos testing only; None in production).
_WORKER_FAULTS: Optional[FaultPlan] = None


def _expand_batch(
    kern: Kernel, packed_keys: Sequence[int], collect: bool
) -> Tuple[List[List[Tuple[Tuple, int]]], Optional[Dict[str, Any]]]:
    """Expand a wave in the coordinator; one row of (condition, packed_dst)
    per state.

    Rows preserve the model's choice enumeration order, which the replay
    loop relies on.  When ``collect`` is on, the second element is a
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot with the same
    ``enum.shard.*`` shape a worker span reports, labeled by the
    coordinator's pid.  No kernel deltas: the coordinator's kernel
    advance is reported once by the final :func:`flush_kernel_metrics`.
    """
    started = time.perf_counter()
    expand = kern.expand
    rows: List[List[Tuple[Tuple, int]]] = [list(expand(key)) for key in packed_keys]
    if not collect:
        return rows, None
    registry = MetricsRegistry()
    worker = str(os.getpid())
    registry.inc("enum.shard.states", len(rows), worker=worker)
    registry.inc("enum.shard.transitions", sum(len(r) for r in rows), worker=worker)
    registry.observe(
        "enum.shard.seconds", time.perf_counter() - started, worker=worker
    )
    return rows, registry.snapshot()


def _expand_span_packed(
    payload: Tuple[str, int, int, int, int, int], attempt: int = 0
) -> Tuple[array, array, Optional[Dict[str, Any]]]:
    """Expand one span of a shared-memory packed frontier.

    ``payload`` is ``(segment_name, total_states, start, stop, wave,
    span)`` -- the whole coordinator->worker message is these few dozen
    bytes; ``(wave, span, attempt)`` is the target a chaos
    :class:`~repro.resilience.FaultPlan` strikes (its hooks stay inert
    outside real workers, so degraded in-process expansion can never
    kill the coordinator).  Returns ``(masks, successors, metrics)``
    where ``masks`` holds one guard-signature bitmask per source state
    (in span order) and ``successors`` is the flat packed key buffer of
    every transition in expansion order.  Mask plus successor count are
    fully redundant with the coordinator's own choice tables, which is
    what lets this path ship zero condition tuples.  Pure: safe to retry
    on a fresh worker generation.
    """
    name, total, start, stop, wave, span = payload
    if _WORKER_FAULTS is not None and in_worker():
        _WORKER_FAULTS.worker_hook(wave, span, attempt)
    started = time.perf_counter()
    kern = _WORKER_KERNEL
    assert kern is not None, "packed dispatch requires an inherited kernel"
    fcodec = FrontierCodec(kern.codec.total_bits)
    frontier = SharedFrontier.attach(name, fcodec, total)
    try:
        keys = frontier.keys(start, stop - start)
    finally:
        frontier.close()
    kernel_before = kern.counters()
    expand_masked = kern.expand_masked
    append_key = fcodec.append_key
    masks = array("Q")
    succs = array("Q")
    transitions = 0
    for key in keys:
        mask, row = expand_masked(key)
        masks.append(mask)
        transitions += len(row)
        for _, dst in row:
            append_key(succs, dst)
    if not _WORKER_COLLECT:
        return masks, succs, None
    registry = MetricsRegistry()
    worker = str(os.getpid())
    registry.inc("enum.shard.states", len(keys), worker=worker)
    registry.inc("enum.shard.transitions", transitions, worker=worker)
    registry.observe(
        "enum.shard.seconds", time.perf_counter() - started, worker=worker
    )
    # Kernel deltas only from real workers: degraded in-process execution
    # shares the coordinator's kernel, whose advance the final
    # flush_kernel_metrics already reports -- counting both would break
    # the expansions == num_states identity.
    if in_worker():
        for cname, value in kern.counters().items():
            delta = value - kernel_before.get(cname, 0)
            if delta:
                registry.inc(f"enum.kernel.{cname}", delta, worker=worker)
    return masks, succs, registry.snapshot()


def _span_bounds(count: int, jobs: int) -> List[Tuple[int, int]]:
    """Adaptive packed-span layout: contiguous ``(start, stop)`` pairs.

    Oversplits to ``jobs * 4`` spans for load balance, but never below
    :data:`_MIN_SPAN_STATES` states per span so dispatch stays amortized.
    """
    num_spans = max(1, min(jobs * 4, count // _MIN_SPAN_STATES))
    size = -(-count // num_spans)
    return [(start, min(count, start + size)) for start in range(0, count, size)]


def make_worker_pool(
    jobs: int,
    retry: Optional[RetryPolicy] = None,
    obs: Optional[Observer] = None,
) -> WorkerPool:
    """Build the pipeline-wide persistent :class:`WorkerPool`.

    The pool's executor factory resolves ``ProcessPoolExecutor`` through
    this module, preserving the long-standing test seam that intercepts
    pool creation by monkeypatching ``parallel.ProcessPoolExecutor``.
    """
    return WorkerPool(jobs, policy=retry, obs=obs)


def enumerate_states_parallel(
    model: SyncModel,
    jobs: Optional[int] = None,
    max_states: Optional[int] = None,
    record_all_conditions: bool = False,
    check_invariants: bool = True,
    obs: Optional[Observer] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume=None,
    budget: Optional[Budget] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    kernel: KernelSpec = None,
    pool: Optional[WorkerPool] = None,
) -> Tuple[StateGraph, EnumerationStats]:
    """Enumerate ``model`` with ``jobs`` worker processes.

    Produces a :class:`StateGraph` identical -- same state ids in canonical
    BFS order, same edge list, same conditions -- to
    :func:`~repro.enumeration.bfs.enumerate_states`.  ``jobs=None`` uses
    every CPU; ``jobs<=1`` (or platforms without ``fork``) runs the
    sequential enumerator directly.

    ``checkpoint`` / ``resume`` / ``budget`` / ``faults`` have the same
    semantics as on :func:`~repro.enumeration.bfs.enumerate_states`
    (checkpoints are interchangeable between the two engines); ``retry``
    is the :class:`~repro.resilience.RetryPolicy` governing worker-crash
    recovery (timeouts, backoff, respawn, degradation).

    ``pool`` accepts a shared persistent :class:`WorkerPool` (the pipeline
    passes its phase-spanning pool); without one, the call owns a private
    pool and shuts it down on return.  Either way workers are only ever
    forked when a wave is actually dispatched, so small models pay no
    spawn cost at all.

    ``obs`` receives the same coordinator-side counters as the sequential
    path (``enum.states`` / ``enum.transitions_explored`` / ``enum.edges``
    / ``enum.waves`` -- totals are identical for identical inputs,
    regardless of ``jobs``) plus merged worker-side shard metrics
    (``enum.shard.*``, labeled by worker pid -- the coordinator's own pid
    for in-process waves), recovery counters (``enum.shards_retried`` /
    ``enum.pool_respawns``) and pool lifecycle counters (``enum.pool.*``).

    ``kernel`` is the same test seam as on the sequential engine.  The
    coordinator resolves (compiles) the kernel once, before the pool is
    created, so forked workers inherit the ready-built kernel -- one
    compilation per run, not per worker or per span.  A kernel that
    cannot pack a wave (the interpreted oracle) expands every wave
    in-process, so no worker is ever forked for it.
    """
    obs = resolve(obs)
    if jobs is None:
        jobs = pool.jobs if pool is not None else (os.cpu_count() or 1)
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return enumerate_states(
            model,
            max_states=max_states,
            record_all_conditions=record_all_conditions,
            check_invariants=check_invariants,
            obs=obs,
            checkpoint=checkpoint,
            resume=resume,
            budget=budget,
            faults=faults,
            kernel=kernel,
        )

    global _WORKER_COLLECT, _WORKER_FAULTS, _WORKER_KERNEL
    kern = resolve_kernel(model, kernel)
    kernel_before = kern.counters()
    started = time.perf_counter()
    digest = model_digest(model, record_all_conditions)
    resume_payload = resolve_resume(resume, checkpoint, digest)
    meter = BudgetMeter(budget)
    checkpoints_written = 0
    truncated = False
    budget_outcome: Optional[str] = None

    seen_arcs: Set[Tuple]
    if resume_payload is not None:
        graph = StateGraph.from_json(resume_payload["graph_json"])
        seen_arcs = rebuild_seen_arcs(graph, record_all_conditions)
        transitions_explored = int(resume_payload["transitions_explored"])
        wave: List[int] = list(resume_payload["frontier"])
        waves = int(resume_payload["waves_completed"])
        resumed = True
        logger.info(
            "resuming %s from checkpoint: %d states, %d edges, "
            "%d frontier states, %d waves completed",
            model.name, graph.num_states, graph.num_edges, len(wave), waves,
        )
    else:
        graph = StateGraph(model.choice_names)
        reset = model.reset_state()
        model.validate_state(reset)
        reset_id, _ = graph.intern_state(kern.reset_key())
        assert reset_id == StateGraph.RESET
        if check_invariants:
            violated = model.check_invariants(reset)
            if violated:
                raise InvariantViolation(reset_id, dict(reset), tuple(violated))
        seen_arcs = set()
        transitions_explored = 0
        wave = [reset_id]
        waves = 0
        resumed = False

    # Publish the fork-inherited worker globals BEFORE declaring the pool
    # context: workers fork lazily at the first dispatch and must inherit
    # exactly this state.
    _WORKER_KERNEL = kern
    _WORKER_COLLECT = obs.enabled
    _WORKER_FAULTS = faults
    owned_pool = pool is None
    if owned_pool:
        pool = make_worker_pool(jobs, retry, obs)
    else:
        pool.obs = obs
        if retry is not None:
            pool.policy = retry
    # The context tag is content-based (model digest), so back-to-back runs
    # of equivalent models reuse the live worker generation -- warm kernel
    # tables and memos, zero spawn cost.
    pool.set_context(("enumerate", digest, obs.enabled))
    if faults is not None:
        # Fault plans are stateful and scripted per run: force a fresh
        # worker generation that inherits exactly this plan.
        pool.retire()
    retried_before, respawns_before = pool.recovery_snapshot()

    # Packed dispatch needs a compiled kernel (mask+table reconstruction)
    # whose guard signature fits one 64-bit mask word.
    packed_ok = (
        hasattr(kern, "expand_masked") and len(kern.tables.guards) <= 64
    )
    fcodec = FrontierCodec(kern.codec.total_bits) if packed_ok else None
    mask_conditions: Dict[int, Tuple[Tuple, ...]] = {}
    frontier_remaining = 0

    def conditions_for(mask: int) -> Tuple[Tuple, ...]:
        conds = mask_conditions.get(mask)
        if conds is None:
            sig = tuple(
                bool((mask >> i) & 1) for i in range(len(kern.tables.guards))
            )
            conds = tuple(cond for _, cond in kern.tables.table(sig))
            mask_conditions[mask] = conds
        return conds

    try:
        while wave:
            wave_started = time.perf_counter()
            keys = [graph.state_key(src) for src in wave]
            dispatch = (
                packed_ok
                and pool.available
                and len(keys) >= DISPATCH_MIN_STATES
            )
            rows: List[List[Tuple[Tuple, int]]] = []
            if not dispatch:
                # Small wave, unpackable kernel or degraded pool: expand
                # in-process as one coordinator-side shard.
                rows, shard_metrics = _expand_batch(kern, keys, obs.enabled)
                obs.merge(shard_metrics)
                num_shards = 1
            else:
                frontier = SharedFrontier.create(keys, fcodec)
                try:
                    spans = _span_bounds(len(keys), jobs)
                    payloads = [
                        (frontier.name, len(keys), start, stop, waves, span)
                        for span, (start, stop) in enumerate(spans)
                    ]
                    num_shards = len(spans)
                    pool.note_dispatch(frontier.nbytes)
                    span_results = pool.run_tasks(
                        _expand_span_packed,
                        payloads,
                        timeout=pool.policy.shard_timeout,
                    )
                finally:
                    # The coordinator owns the segment: unlink at the wave
                    # boundary on every path (success, retry exhaustion,
                    # genuine error), so killed workers cannot leak it.
                    frontier.unlink()
                for masks, succs, shard_metrics in span_results:
                    obs.merge(shard_metrics)
                    pos = 0
                    for mask in masks:
                        conds = conditions_for(mask)
                        dsts = fcodec.unpack_keys(succs, pos, len(conds))
                        rows.append(list(zip(conds, dsts)))
                        pos += len(conds)
            next_wave: List[int] = []
            for src_id, row in zip(wave, rows):
                for condition, packed_dst in row:
                    transitions_explored += 1
                    dst_id, is_new = graph.intern_state(packed_dst)
                    if is_new:
                        if max_states is not None and graph.num_states > max_states:
                            raise EnumerationError(
                                f"state count exceeded cap of {max_states} "
                                f"while enumerating {model.name!r}"
                            )
                        if check_invariants:
                            nxt = kern.unpack(packed_dst)
                            violated = model.check_invariants(nxt)
                            if violated:
                                raise InvariantViolation(
                                    dst_id, nxt, tuple(violated)
                                )
                        next_wave.append(dst_id)
                    if record_all_conditions:
                        arc_key: Tuple = (src_id, dst_id, condition)
                    else:
                        arc_key = (src_id, dst_id)
                    if arc_key not in seen_arcs:
                        seen_arcs.add(arc_key)
                        graph.add_edge(src_id, dst_id, condition)
            obs.observe("enum.wave.frontier_states", len(wave))
            obs.event("enum.wave", wave=waves, frontier=len(wave),
                      shards=num_shards, states=graph.num_states,
                      transitions=transitions_explored,
                      seconds=time.perf_counter() - wave_started)
            obs.heartbeat("enumerate", wave=waves, frontier=len(wave),
                          states=graph.num_states,
                          transitions=transitions_explored,
                          shards=num_shards)
            waves += 1
            wave = next_wave
            if not wave:
                break
            # Wave boundary: the coordinator state is consistent here, so
            # this is where budgets bite, checkpoints land and scripted
            # SIGINTs fire (after the checkpoint, like a real Ctrl-C).
            budget_outcome = meter.exhausted(graph.num_states)
            if budget_outcome is not None:
                truncated = True
                frontier_remaining = len(wave)
                if checkpoint is not None:
                    checkpoint.store.save(build_payload(
                        graph, wave, transitions_explored, waves,
                        digest, model.name,
                    ))
                    checkpoints_written += 1
                logger.warning(
                    "budget exhausted (%s) after %d waves: returning partial "
                    "graph with %d states (%d unexpanded)",
                    budget_outcome, waves, graph.num_states, len(wave),
                )
                break
            if checkpoint is not None and waves % checkpoint.every_waves == 0:
                checkpoint.store.save(build_payload(
                    graph, wave, transitions_explored, waves,
                    digest, model.name,
                ))
                checkpoints_written += 1
                obs.event("enum.checkpoint", wave=waves,
                          states=graph.num_states)
            if faults is not None:
                faults.boundary_hook(waves)
    finally:
        if owned_pool:
            pool.shutdown()
        elif faults is not None:
            # Never let a fault-laden worker generation outlive its run.
            pool.retire()
        _WORKER_COLLECT = False
        _WORKER_FAULTS = None
        _WORKER_KERNEL = None

    elapsed = time.perf_counter() - started
    retried_after, respawns_after = pool.recovery_snapshot()
    obs.inc("enum.states", graph.num_states)
    obs.inc("enum.transitions_explored", transitions_explored)
    obs.inc("enum.edges", graph.num_edges)
    obs.inc("enum.waves", waves)
    obs.gauge("enum.bits_per_state", model.state_bits())
    obs.observe("enum.seconds", elapsed, mode="parallel")
    # Coordinator-side kernel deltas (in-process/degraded expansions land
    # here; worker-side expansions arrive via the merged shard registries).
    flush_kernel_metrics(obs, kern, kernel_before)
    logger.info(
        "enumerated %s with %d workers: %d states, %d edges, "
        "%d transitions, %d waves in %.3fs",
        model.name, jobs, graph.num_states, graph.num_edges,
        transitions_explored, waves, elapsed,
    )
    stats = EnumerationStats(
        model_name=model.name,
        num_states=graph.num_states,
        bits_per_state=model.state_bits(),
        num_edges=graph.num_edges,
        transitions_explored=transitions_explored,
        elapsed_seconds=elapsed,
        approx_memory_bytes=_approx_memory(graph, model.state_bits()),
        truncated=truncated,
        budget_outcome=budget_outcome,
        frontier_remaining=frontier_remaining,
        resumed=resumed,
        checkpoints_written=checkpoints_written,
        shards_retried=retried_after - retried_before,
        pool_respawns=respawns_after - respawns_before,
        degraded=pool.degraded,
    )
    return graph, stats
