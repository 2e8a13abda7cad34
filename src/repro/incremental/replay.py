"""Region re-enumeration: replay the cached graph, expand only the dirty.

:func:`incremental_enumerate` walks the exact BFS schedule of a cold
:func:`~repro.enumeration.bfs.enumerate_states` run -- same FIFO frontier,
same id assignment, same arc dedup -- but with one shortcut: when the
state being popped exists in the cached graph and the diff proved it
*clean* (no added rule's scope covers it), its cached out-edge list is
**replayed** instead of calling the transition kernel.

Why replaying is sound (the graft argument, DESIGN.md §14): the recorded
out-edges of a state are a function of that state's expansion alone --
they are the deduped ``(condition, dst)`` pairs in first-occurrence order.
For a clean state the edited model's expansion is identical to the cached
model's by the definition of the dirty region, so the cached edge list
*is* the expansion result.  Replaying it interns the same dst keys in the
same order, appends the same new states to the frontier, and records the
same arcs -- by induction over BFS steps the whole run is byte-identical
to cold.  Dirty states (and states absent from the cache) go through the
kernel exactly as a cold run would.

Invariants are only re-checked on states *absent* from the cached graph:
cached states were validated when first enumerated, and a localized diff
guarantees the invariants themselves are unchanged.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.enumeration.bfs import InvariantViolation, _approx_memory
from repro.enumeration.graph import StateGraph
from repro.enumeration.kernel import compile_model
from repro.enumeration.stats import EnumerationStats
from repro.obs.observer import Observer, resolve
from repro.smurphi.model import SyncModel


def incremental_enumerate(
    model: SyncModel,
    old_graph: StateGraph,
    dirty_old: List[bool],
    record_all_conditions: bool = False,
    obs: Optional[Observer] = None,
) -> Tuple[StateGraph, EnumerationStats, Dict[str, int]]:
    """Enumerate ``model`` reusing ``old_graph`` for clean states.

    ``dirty_old[i]`` marks old-graph state ``i`` as inside the dirty
    region (must be expanded through the kernel).  Returns the new graph,
    cold-compatible stats, and ``{"replayed", "expanded", "region_states"}``
    counters.  The result is byte-identical to a cold enumeration of
    ``model`` (see module docstring).
    """
    obs = resolve(obs)
    kern = compile_model(model)
    started = time.perf_counter()

    graph = StateGraph(model.choice_names)
    reset = model.reset_state()
    model.validate_state(reset)
    reset_id, _ = graph.intern_state(kern.reset_key())
    assert reset_id == StateGraph.RESET
    violated = model.check_invariants(reset)
    if violated:
        raise InvariantViolation(reset_id, dict(reset), tuple(violated))

    seen_arcs: Set[Tuple] = set()
    transitions_explored = 0
    frontier = deque([reset_id])
    waves = 1
    wave_last = reset_id
    replayed = 0
    expanded = 0

    while frontier:
        if frontier[0] > wave_last:
            waves += 1
            wave_last = graph.num_states - 1
            obs.heartbeat(
                "incremental", wave=waves - 1, states=graph.num_states,
                replayed=replayed, expanded=expanded,
            )
        src_id = frontier.popleft()
        key = graph.state_key(src_id)
        old_id = old_graph.state_id_of_key(key)
        if old_id is not None and not dirty_old[old_id]:
            # Replay: the cached out-edge list is this state's expansion.
            replayed += 1
            for edge in old_graph.out_edges(old_id):
                dst_key = old_graph.state_key(edge.dst)
                dst_id, is_new = graph.intern_state(dst_key)
                if is_new:
                    frontier.append(dst_id)
                arc_key: Tuple
                if record_all_conditions:
                    arc_key = (src_id, dst_id, edge.condition)
                else:
                    arc_key = (src_id, dst_id)
                if arc_key not in seen_arcs:
                    seen_arcs.add(arc_key)
                    graph.add_edge(src_id, dst_id, edge.condition)
            continue
        # Expand: dirty or previously unreachable -- exactly the cold path.
        expanded += 1
        for condition, packed_dst in kern.expand(key):
            transitions_explored += 1
            dst_id, is_new = graph.intern_state(packed_dst)
            if is_new:
                if old_graph.state_id_of_key(packed_dst) is None:
                    nxt = kern.unpack(packed_dst)
                    violated = model.check_invariants(nxt)
                    if violated:
                        raise InvariantViolation(dst_id, nxt, tuple(violated))
                frontier.append(dst_id)
            if record_all_conditions:
                arc_key = (src_id, dst_id, condition)
            else:
                arc_key = (src_id, dst_id)
            if arc_key not in seen_arcs:
                seen_arcs.add(arc_key)
                graph.add_edge(src_id, dst_id, condition)

    elapsed = time.perf_counter() - started
    counts = {
        "replayed": replayed,
        "expanded": expanded,
        "region_states": expanded,
    }
    obs.inc("incremental.region_states", expanded)
    obs.inc("incremental.replayed_states", replayed)
    obs.heartbeat(
        "incremental", wave=waves - 1, states=graph.num_states,
        replayed=replayed, expanded=expanded,
    )
    stats = EnumerationStats(
        model_name=model.name,
        num_states=graph.num_states,
        bits_per_state=model.state_bits(),
        num_edges=graph.num_edges,
        transitions_explored=transitions_explored,
        elapsed_seconds=elapsed,
        approx_memory_bytes=_approx_memory(graph, model.state_bits()),
    )
    return graph, stats, counts
