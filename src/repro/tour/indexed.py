"""Indexed tour generation: Fig. 3.3 on a CSR graph with an exact distance field.

:class:`IndexedTourGenerator` produces **bit-identical** output to the
reference :class:`~repro.tour.fig33.TourGenerator` (same tours, same edge
order, same splits -- golden- and property-tested) while replacing its
scaling bottleneck, the from-scratch explore BFS at every stuck point:

1. **Flat CSR adjacency.**  The graph is frozen into integer arrays
   (``indptr``/``out_edge``/``out_dst`` plus a reverse CSR) so the greedy
   DFS, the explore descent and the field repair walk plain ``list[int]``
   lookups instead of per-state tuple rows.

2. **An exact nearest-untraversed-arc field.**  ``dist[s]`` is the BFS
   distance from ``s`` to the nearest *target* (a state that still has an
   untraversed out-arc).  It is built once, by a reverse multi-source
   BFS, at the first explore, and then kept exact: targets only ever
   leave the set (Even--Shiloach's decremental setting), and when one
   does, :meth:`IndexedTourGenerator._retire` re-settles just the states
   whose every shortest path ran through it (the affected *cone*).

With an exact field the explore needs no search at all.  Every node at
depth ``k`` of a shortest path from ``s`` has ``dist == dist[s] - k``, and
none of them is discovered shallower by the reference BFS (that would be
a shorter path), so the first such node of level ``k`` in BFS order is
the first qualifying CSR child of the first such node of level ``k - 1``.
The reference path is therefore the greedy descent that takes, from each
node, the first out-arc whose head is one step closer.  ``dist == INF``
means no target is reachable: the tour closes without touching the graph.
"""

from __future__ import annotations

import logging
import time
from typing import List, Optional

from repro.enumeration.graph import StateGraph
from repro.obs.observer import Observer, resolve
from repro.tour.fig33 import InstructionCost, Tour, TourSet, _unit_cost

logger = logging.getLogger("repro.tour")


class IndexedTourGenerator:
    """Drop-in accelerated ``GenerateTours`` (Fig. 3.3).

    Accepts exactly the reference :class:`~repro.tour.fig33.TourGenerator`
    parameters and produces bit-identical :class:`TourSet` output at any
    scale; only the internal exploration machinery differs.
    """

    def __init__(
        self,
        graph: StateGraph,
        instruction_cost: InstructionCost = _unit_cost,
        max_instructions_per_trace: Optional[int] = None,
    ):
        if max_instructions_per_trace is not None and max_instructions_per_trace <= 0:
            raise ValueError("max_instructions_per_trace must be positive")
        self.graph = graph
        self.instruction_cost = instruction_cost
        self.max_instructions = max_instructions_per_trace
        self._build_csr()

    # -- CSR construction -------------------------------------------------------

    def _build_csr(self) -> None:
        """Freeze the graph into flat integer arrays (forward + reverse)."""
        graph = self.graph
        num_states = graph.num_states
        edges = graph.edges()
        self._edge_src = [e.src for e in edges]
        self._edge_dst = [e.dst for e in edges]

        indptr = [0] * (num_states + 1)
        out_edge: List[int] = []
        out_dst: List[int] = []
        for state in range(num_states):
            for index in graph.out_edge_indices(state):
                out_edge.append(index)
                out_dst.append(self._edge_dst[index])
            indptr[state + 1] = len(out_edge)
        self._indptr = indptr
        self._out_edge = out_edge
        self._out_dst = out_dst
        # Prezipped (dst, edge_index) rows: the explore descent slices
        # these directly, which beats per-position indexing in pure Python.
        self._out_pairs = list(zip(out_dst, out_edge))

        # Reverse CSR (in-edges by destination) for the distance field;
        # only source ids are needed -- the field never reconstructs paths.
        rcounts = [0] * num_states
        for dst in self._edge_dst:
            rcounts[dst] += 1
        rindptr = [0] * (num_states + 1)
        for state in range(num_states):
            rindptr[state + 1] = rindptr[state] + rcounts[state]
        rin_src = [0] * len(edges)
        cursor = list(rindptr[:num_states])
        for index, dst in enumerate(self._edge_dst):
            rin_src[cursor[dst]] = self._edge_src[index]
            cursor[dst] += 1
        self._rindptr = rindptr
        self._rin_src = rin_src

    # -- public API ------------------------------------------------------------

    def generate(self, obs: Optional[Observer] = None) -> TourSet:
        """Run the Fig. 3.3 loop; same events/counters as the reference,
        plus ``tour.explore_short_circuits`` (explores answered straight
        from the distance field), ``tour.index_rebuilds`` (from-scratch
        field builds: one per run that explores at all) and
        ``tour.field_repairs`` (states re-settled by cone repairs).

        Two child spans split the run: ``tour.costs`` (each arc's
        instruction cost, computed once -- where a memo-backed cost fills
        its memo) and ``tour.generate`` (the Fig. 3.3 loop itself).
        """
        obs = resolve(obs)
        started = time.perf_counter()
        graph = self.graph
        num_states = graph.num_states
        num_edges = graph.num_edges

        with obs.span("tour.costs"):
            cost = self.instruction_cost
            self._costs = [cost(edge) for edge in graph.edges()]

        self._traversed = bytearray(num_edges)
        self._cursors = list(self._indptr[:num_states])
        self._untraversed_out = [
            self._indptr[s + 1] - self._indptr[s] for s in range(num_states)
        ]
        self._remaining = num_edges
        # The distance field, built at the first explore.  INF exceeds
        # any possible BFS depth.
        self._inf = num_states + 1
        self._dist: Optional[List[int]] = None
        # Run counters (flushed once at the end, observability style).
        self._short_circuits = 0
        self._rebuilds = 0
        self._repairs = 0

        tours: List[Tour] = []
        limit_restarts = 0
        explore_splices = 0
        cumulative_instructions = 0
        with obs.span("tour.generate"):
            while self._remaining:
                tour = Tour()
                state = StateGraph.RESET
                limit_hit = False
                while True:
                    state = self._traverse_dfs(state, tour)
                    if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                        limit_hit = True
                        break
                    path = self._explore(state)
                    if path is None:
                        break  # nothing else reachable: close this tour
                    if path:
                        explore_splices += 1
                    for index in path:
                        self._take(index, tour)
                    state = self._edge_dst[path[-1]] if path else state
                if tour.edge_indices:
                    tours.append(tour)
                    limit_restarts += limit_hit
                    cumulative_instructions += tour.instructions
                    obs.observe("tour.trace_instructions", tour.instructions)
                    obs.observe("tour.trace_edges", len(tour))
                    obs.event(
                        "tour.trace",
                        index=len(tours) - 1,
                        edges=len(tour),
                        instructions=tour.instructions,
                        cumulative_instructions=cumulative_instructions,
                        covered_arcs=num_edges - self._remaining,
                        graph_arcs=num_edges,
                        limit_hit=limit_hit,
                    )
                    obs.heartbeat(
                        "tours",
                        traces=len(tours),
                        instructions=cumulative_instructions,
                        covered_arcs=num_edges - self._remaining,
                        graph_arcs=num_edges,
                    )
                elif not limit_hit and self._remaining:
                    raise RuntimeError(
                        "unreachable untraversed arcs remain; graph is not "
                        "reset-reachable"
                    )
        elapsed = time.perf_counter() - started
        obs.inc("tour.traces", len(tours))
        obs.inc("tour.arc_traversals", sum(len(t) for t in tours))
        obs.inc("tour.instructions", cumulative_instructions)
        obs.inc("tour.limit_restarts", limit_restarts)
        obs.inc("tour.explore_splices", explore_splices)
        obs.inc("tour.explore_short_circuits", self._short_circuits)
        obs.inc("tour.index_rebuilds", self._rebuilds)
        obs.inc("tour.field_repairs", self._repairs)
        obs.observe("tour.seconds", elapsed)
        logger.info(
            "generated %d tours covering %d arcs (%d instructions, "
            "%d limit restarts, %d explore splices; %d short circuits, "
            "%d index rebuilds, %d field repairs) in %.3fs",
            len(tours), num_edges, cumulative_instructions,
            limit_restarts, explore_splices, self._short_circuits,
            self._rebuilds, self._repairs, elapsed,
        )
        return TourSet(self.graph, tours, elapsed)

    # -- phases of Fig. 3.3 ------------------------------------------------------

    def _traverse_dfs(self, state: int, tour: Tour) -> int:
        """Greedy depth-first phase over the CSR rows (reference order)."""
        indptr = self._indptr
        out_edge = self._out_edge
        out_dst = self._out_dst
        traversed = self._traversed
        cursors = self._cursors
        untraversed_out = self._untraversed_out
        while untraversed_out[state]:
            end = indptr[state + 1]
            cursor = cursors[state]
            while cursor < end and traversed[out_edge[cursor]]:
                cursor += 1
            cursors[state] = cursor
            if cursor >= end:
                break  # stale counter; nothing actually untraversed here
            index = out_edge[cursor]
            self._take(index, tour)
            state = out_dst[cursor]
            if self.max_instructions is not None and tour.instructions >= self.max_instructions:
                break
        return state

    def _take(self, index: int, tour: Tour) -> None:
        tour.edge_indices.append(index)
        tour.instructions += self._costs[index]
        if not self._traversed[index]:
            self._traversed[index] = 1
            src = self._edge_src[index]
            self._untraversed_out[src] -= 1
            self._remaining -= 1
            if not self._untraversed_out[src] and self._dist is not None:
                self._retire(src)

    def _explore(self, state: int) -> Optional[List[int]]:
        """Explore phase: identical result to the reference ``_explore_bfs``.

        With the field exact, the reference BFS path is the greedy descent
        through first-in-CSR-order arcs that step one closer to a target
        (see the module docstring), so no search is needed.
        """
        if self._untraversed_out[state]:
            return []
        if self._dist is None:
            self._build_field()
        dist = self._dist
        want = dist[state]
        if want >= self._inf:
            self._short_circuits += 1
            return None
        indptr = self._indptr
        out_pairs = self._out_pairs
        path: List[int] = []
        current = state
        while want:
            want -= 1
            for dst, edge_index in out_pairs[indptr[current]:indptr[current + 1]]:
                if dist[dst] == want:
                    break
            else:
                raise AssertionError(f"distance field inexact at state {current}")
            path.append(edge_index)
            current = dst
        return path

    # -- the distance field -----------------------------------------------------

    def _build_field(self) -> None:
        """Reverse multi-source BFS: distance to the nearest state that
        still has an untraversed out-arc, for every state at once."""
        self._rebuilds += 1
        inf = self._inf
        num_states = len(self._untraversed_out)
        untraversed_out = self._untraversed_out
        self._dist = dist = [inf] * num_states
        frontier = [s for s in range(num_states) if untraversed_out[s]]
        for state in frontier:
            dist[state] = 0
        rindptr = self._rindptr
        rin_src = self._rin_src
        next_depth = 0
        while frontier:
            next_depth += 1
            level: List[int] = []
            push = level.append
            for node in frontier:
                for src in rin_src[rindptr[node]:rindptr[node + 1]]:
                    if dist[src] > next_depth:
                        dist[src] = next_depth
                        push(src)
            frontier = level

    def _retire(self, root: int) -> None:
        """Keep the field exact after ``root`` stopped being a target.

        Only the *cone* of states whose every shortest path ran through
        ``root`` can change; every other state keeps a tight successor
        outside the cone, and so its distance.

        1. Find the cone, in FIFO order from ``root``: a predecessor at
           one level up joins when none of its successors outside the cone
           still sits at the level below.  Levels increase along the FIFO,
           so each level's membership is settled before the next is tested.
        2. Re-settle it: seed each cone state from its successors outside
           the cone (``1 + min dist``, or INF), then run a BFS over the
           reverse CSR restricted to the cone, merging the sorted seeds
           with the FIFO so states settle in distance order.  A state with
           no finite seed stays INF -- distances only come from outside
           the cone, so nothing counts to infinity.
        """
        dist = self._dist
        inf = self._inf
        indptr = self._indptr
        out_dst = self._out_dst
        rindptr = self._rindptr
        rin_src = self._rin_src

        cone = {root}
        order = [root]
        for node in order:  # grows while iterating: the FIFO
            level = dist[node]
            up = level + 1
            for pred in rin_src[rindptr[node]:rindptr[node + 1]]:
                if dist[pred] != up or pred in cone:
                    continue
                for succ in out_dst[indptr[pred]:indptr[pred + 1]]:
                    if dist[succ] == level and succ not in cone:
                        break  # still has a tight successor outside
                else:
                    cone.add(pred)
                    order.append(pred)
        self._repairs += len(order)

        seeds = []
        for node in order:
            best = inf
            for succ in out_dst[indptr[node]:indptr[node + 1]]:
                if dist[succ] < best and succ not in cone:
                    best = dist[succ]
            if best < inf:
                dist[node] = best + 1
                seeds.append((best + 1, node))
            else:
                dist[node] = inf
        seeds.sort()

        queue: List[tuple] = []
        head = seed = 0
        while True:
            if head < len(queue) and (
                seed == len(seeds) or queue[head][0] <= seeds[seed][0]
            ):
                depth, node = queue[head]
                head += 1
            elif seed < len(seeds):
                depth, node = seeds[seed]
                seed += 1
            else:
                break
            if depth != dist[node]:
                continue  # superseded by a shorter path through the cone
            depth += 1
            for pred in rin_src[rindptr[node]:rindptr[node + 1]]:
                if dist[pred] > depth and pred in cone:
                    dist[pred] = depth
                    queue.append((depth, pred))
