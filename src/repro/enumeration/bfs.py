"""Breadth-first state enumeration (paper section 3.2).

Starting from the reset state, every combination of abstract-model choices
is tried at every state.  As a new state is found, the choice of actions
that caused the transition becomes an edge of the state graph.  Following
the paper, when more than one permutation of actions causes the same
transition between two states, only the *first* is recorded ("first
condition leading to a new state") -- this keeps the graph small but can
mask implementations with *fewer* behaviours (Fig. 4.2).  The fix the
paper proposes, recording every unique transition condition, is available
via ``record_all_conditions=True`` and is benchmarked as an ablation.

Transition kernels
------------------
The hot loop -- expanding one state into its ordered successor list --
is delegated to a *transition kernel* (:mod:`repro.enumeration.kernel`).
The compiled kernel precompiles the model's choice tables and state
codec and skips per-transition re-validation; it produces a graph
**bit-identical** to the fully validated
:class:`~repro.enumeration.kernel.InterpretedKernel`, the reference
oracle that tests inject through ``kernel=``.

Resilience
----------
Long enumerations survive interruption: ``checkpoint=`` snapshots the
coordinator state (graph, frontier, counters) to an atomic on-disk
:class:`~repro.resilience.CheckpointStore` at wave boundaries, and
``resume=`` continues from such a snapshot to a **bit-identical** final
graph.  ``budget=`` bounds the run (wall clock / memory / states) at wave
boundaries; on exhaustion the partial graph is returned with
``stats.truncated=True`` instead of raising.  ``faults=`` injects
deterministic failures for the chaos suite.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import KernelSpec, flush_kernel_metrics, resolve_kernel
from repro.enumeration.stats import EnumerationStats
from repro.obs.observer import Observer, resolve
from repro.resilience.budget import Budget, BudgetMeter
from repro.resilience.checkpoint import (
    CheckpointConfig,
    build_payload,
    model_digest,
    resolve_resume,
)
from repro.resilience.faults import FaultPlan
from repro.smurphi.model import SyncModel

logger = logging.getLogger("repro.enumeration")


class EnumerationError(Exception):
    """Raised when enumeration cannot proceed (e.g. state-count cap hit)."""


class InvariantViolation(EnumerationError):
    """Raised when a model invariant fails on a reachable state."""

    def __init__(self, state_id: int, state: Dict, violated: Tuple[str, ...]):
        self.state_id = state_id
        self.state = state
        self.violated = violated
        super().__init__(
            f"invariants {list(violated)} violated in reachable state #{state_id}: {state}"
        )


def rebuild_seen_arcs(graph: StateGraph, record_all_conditions: bool) -> Set[Tuple]:
    """Reconstruct the arc-dedup set a checkpointed graph implies.

    The recorded edges *are* the dedup set (one edge per key, inserted in
    first-seen order), so resuming needs no separate serialization of it.
    """
    if record_all_conditions:
        return {(e.src, e.dst, e.condition) for e in graph.edges()}
    return {(e.src, e.dst) for e in graph.edges()}


def enumerate_states(
    model: SyncModel,
    max_states: Optional[int] = None,
    record_all_conditions: bool = False,
    check_invariants: bool = True,
    obs: Optional[Observer] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume=None,
    budget: Optional[Budget] = None,
    faults: Optional[FaultPlan] = None,
    kernel: KernelSpec = None,
) -> Tuple[StateGraph, EnumerationStats]:
    """Fully enumerate ``model`` from reset; return its state graph and stats.

    Parameters
    ----------
    model:
        The synchronous FSM model to enumerate.
    max_states:
        Safety cap; exceeding it raises :class:`EnumerationError` rather
        than silently truncating the graph (a truncated graph would make
        tour coverage claims meaningless).
    record_all_conditions:
        If true, record one edge per *unique transition condition* instead
        of one edge per (src, dst) pair -- the paper's proposed fix for the
        fewer-behaviours failure mode of Fig. 4.2.
    check_invariants:
        Evaluate the model's invariants on every reachable state.
    obs:
        Observability sink (:class:`repro.obs.Observer`); receives per-wave
        frontier sizes plus end-of-run counters (``enum.states``,
        ``enum.transitions_explored``, ``enum.edges``, ``enum.waves``).
        ``None`` is the no-op fast path.  Hot-loop accounting stays in
        local variables and flushes at wave boundaries, so instrumentation
        cost is independent of transition count.
    checkpoint:
        :class:`~repro.resilience.CheckpointConfig`: snapshot the
        coordinator state every ``every_waves`` wave boundaries.
    resume:
        ``True`` (load the newest checkpoint from ``checkpoint.store``) or
        a payload dict from :meth:`CheckpointStore.load`; the resumed run
        finishes with a graph byte-identical to an uninterrupted one.
    budget:
        :class:`~repro.resilience.Budget` checked at wave boundaries; on
        exhaustion the partial graph is returned with
        ``stats.truncated=True`` (and a final checkpoint is written when
        checkpointing is on, so the run is resumable with a larger budget).
    faults:
        Deterministic :class:`~repro.resilience.FaultPlan` for the chaos
        suite (the sequential engine honours the SIGINT-at-wave fault).
    kernel:
        Test seam: ``None`` (the model's cached compiled kernel) or a
        kernel object from :mod:`repro.enumeration.kernel`, such as the
        :class:`~repro.enumeration.kernel.InterpretedKernel` oracle.
        Every kernel produces a bit-identical graph and identical
        ``enum.*`` counter totals.
    """
    obs = resolve(obs)
    kern = resolve_kernel(model, kernel)
    kernel_before = kern.counters()
    started = time.perf_counter()
    digest = model_digest(model, record_all_conditions)
    resume_payload = resolve_resume(resume, checkpoint, digest)
    meter = BudgetMeter(budget)
    checkpoints_written = 0
    truncated = False
    budget_outcome: Optional[str] = None

    # For first-condition mode we must not record a second arc between the
    # same (src, dst) pair; for all-conditions mode dedup on the condition too.
    seen_arcs: Set[Tuple]
    # BFS wave accounting: ids are assigned in discovery order and the
    # frontier is FIFO, so the states of wave k+1 are exactly the ids
    # discovered while wave k was being expanded.  Peeking an id beyond
    # the current wave's last id therefore marks a wave boundary.
    if resume_payload is not None:
        graph = StateGraph.from_json(resume_payload["graph_json"])
        seen_arcs = rebuild_seen_arcs(graph, record_all_conditions)
        transitions_explored = int(resume_payload["transitions_explored"])
        frontier = deque(resume_payload["frontier"])
        waves = int(resume_payload["waves_completed"]) + 1
        wave_last = frontier[-1] if frontier else graph.num_states - 1
        wave_size = len(frontier)
        resumed = True
        logger.info(
            "resuming %s from checkpoint: %d states, %d edges, "
            "%d frontier states, %d waves completed",
            model.name, graph.num_states, graph.num_edges,
            len(frontier), waves - 1,
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
        frontier = deque([reset_id])
        waves = 1
        wave_last = reset_id
        wave_size = 1
        resumed = False

    while frontier:
        if frontier[0] > wave_last:
            obs.observe("enum.wave.frontier_states", wave_size)
            obs.event("enum.wave", wave=waves - 1, frontier=wave_size,
                      states=graph.num_states,
                      transitions=transitions_explored)
            obs.heartbeat("enumerate", wave=waves - 1, frontier=wave_size,
                          states=graph.num_states,
                          transitions=transitions_explored)
            waves += 1
            previous_last = wave_last
            wave_last = graph.num_states - 1
            wave_size = wave_last - previous_last
            # Resilience hooks run at the boundary, where the coordinator
            # state (graph + untouched frontier) is consistent.
            waves_completed = waves - 1
            budget_outcome = meter.exhausted(graph.num_states)
            if budget_outcome is not None:
                truncated = True
                if checkpoint is not None:
                    checkpoint.store.save(build_payload(
                        graph, list(frontier), transitions_explored,
                        waves_completed, digest, model.name,
                    ))
                    checkpoints_written += 1
                logger.warning(
                    "budget exhausted (%s) after %d waves: returning partial "
                    "graph with %d states (%d unexpanded)",
                    budget_outcome, waves_completed, graph.num_states,
                    len(frontier),
                )
                break
            if checkpoint is not None and waves_completed % checkpoint.every_waves == 0:
                checkpoint.store.save(build_payload(
                    graph, list(frontier), transitions_explored,
                    waves_completed, digest, model.name,
                ))
                checkpoints_written += 1
                obs.event("enum.checkpoint", wave=waves_completed,
                          states=graph.num_states)
            if faults is not None:
                faults.boundary_hook(waves_completed)
        src_id = frontier.popleft()
        for condition, packed_dst in kern.expand(graph.state_key(src_id)):
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
                        raise InvariantViolation(dst_id, nxt, tuple(violated))
                frontier.append(dst_id)
            arc_key: Tuple
            if record_all_conditions:
                arc_key = (src_id, dst_id, condition)
            else:
                arc_key = (src_id, dst_id)
            if arc_key not in seen_arcs:
                seen_arcs.add(arc_key)
                graph.add_edge(src_id, dst_id, condition)

    elapsed = time.perf_counter() - started
    if not truncated:
        obs.observe("enum.wave.frontier_states", wave_size)
        obs.event("enum.wave", wave=waves - 1, frontier=wave_size,
                  states=graph.num_states, transitions=transitions_explored)
    obs.heartbeat("enumerate", wave=waves - 1, frontier=0,
                  states=graph.num_states, transitions=transitions_explored)
    obs.inc("enum.states", graph.num_states)
    obs.inc("enum.transitions_explored", transitions_explored)
    obs.inc("enum.edges", graph.num_edges)
    obs.inc("enum.waves", waves)
    obs.gauge("enum.bits_per_state", model.state_bits())
    obs.observe("enum.seconds", elapsed, mode="sequential")
    flush_kernel_metrics(obs, kern, kernel_before)
    logger.info(
        "enumerated %s: %d states, %d edges, %d transitions, %d waves in %.3fs",
        model.name, graph.num_states, graph.num_edges,
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
        frontier_remaining=len(frontier) if truncated else 0,
        resumed=resumed,
        checkpoints_written=checkpoints_written,
    )
    return graph, stats


def _approx_memory(graph: StateGraph, bits_per_state: int) -> int:
    """Rough memory accounting comparable to the paper's Table 3.2 row.

    States are charged their packed width (rounded to bytes) plus hash-table
    overhead; edges are charged a fixed record size.
    """
    state_bytes = graph.num_states * (max(1, (bits_per_state + 7) // 8) + 16)
    edge_bytes = graph.num_edges * 24
    return state_bytes + edge_bytes
