"""Golden identity test for the RTL simulator.

Every simulated event of :class:`~repro.pp.rtl.core.PPCore` is pinned
here: seeded vector traces are replayed on the clean core, on each of the
six Table 2.1 bugs, and (for the section 4 extension) on the squashing-
branch core, and each cell's per-trace outcome is folded into a SHA-256
digest.  The expected digests were captured before the simulator's hot
path was optimized, so any change to a comparison result, a cycle count,
a stall counter, the register write stream or (for traced runs) the
cycle-level event trace fails here.

Digest per trace: ``(diverged, differences, write_mismatch, cycles,
instructions, deadlocked)`` from :func:`run_vector_trace`, plus the
core's ``stall_cycles``, ``retired`` and ``regfile.write_log`` and, for
traced runs, its ``events``.
"""

import hashlib

import pytest

from repro.bugs import injected_config
from repro.enumeration import enumerate_states
from repro.harness.compare import DEFAULT_INBOX, run_vector_trace
from repro.pp.branches import BranchPPControlModel, BranchVectorGenerator
from repro.pp.fsm_model import PPControlModel, PPModelConfig
from repro.pp.rtl import CoreConfig, PPCore
from repro.tour import IndexedTourGenerator
from repro.vectors import TransitionEventMemo, VectorGenerator, pp_instruction_cost

SEED = 7
MAX_INSTRUCTIONS = 200
#: How many leading traces of each traced cell record the event trace.
TRACED_PREFIX = 6

#: Expected ``(digest, diverging traces)`` per cell, captured on the
#: unoptimized simulator.  The divergence counts show each cell pins
#: behaviour it reaches: every injected bug diverges, the clean cores do not.
GOLDEN = {
    "clean": ("2d3345a9bdb0c9790aeaf4b8b8879419cb87718694fbe02be692a4efe48bc200", 0),
    "bug1": ("b629d71db007fb1631698bc3d945fed5f96f5bdb88a27e185704d70a5a5f5b7f", 66),
    "bug2": ("702295889055a1192261d3e202d15d197bc740cc2adb928611be499b1417285c", 20),
    "bug3": ("5b99df1f87f9830d2fb476efd96dbe65ed9dbddfb17d2e7c5e2639197583e4f4", 14),
    "bug4": ("31f82cbad243c5e16acb223a7d818cb52cbfe45dcee8ed69150d8b0db178ef11", 15),
    "bug5": ("24790fc9b7445d1684158760bb9cc18010e4cec52d78fcd45ccd4477257b229b", 28),
    "bug6": ("d9ff048a9b86031e0bc7adf9c45283eeef43d6337bab1d863bf758a1ee12f6af", 8),
    "branches": ("ac6c0dc9e173fd864040387ad0d3f50c32bdeb2178f9b044ac91f78e128276ef", 0),
    "traced-clean": ("f612b6239b72a718d81de3bf3e423c12630ea7672e6e7f2f75a4a01cf9b97eb1", 0),
    "traced-bug1": ("0e3e1328db22d32285ff88535853929e6dc7d532cb9fe1925e282e2df22fa9b0", 6),
    "traced-bug5": ("e77701dcaf87a08a76a9ad19b6acad2c2f537fa23c14695da33668a7108013ca", 5),
    "traced-branches": ("688a318ab2974f2771ee848349feb439b650c25f963526a207d4fba54621c629", 0),
}


def _trace_set(control, generator_cls):
    graph, _ = enumerate_states(control.build())
    memo = TransitionEventMemo(control, graph)
    cost = pp_instruction_cost(control, graph, memo=memo)
    tours = IndexedTourGenerator(
        graph, instruction_cost=cost, max_instructions_per_trace=MAX_INSTRUCTIONS
    ).generate()
    return list(generator_cls(control, graph, seed=SEED, memo=memo).generate(tours))


@pytest.fixture(scope="module")
def traces():
    return _trace_set(PPControlModel(PPModelConfig(fill_words=1)), VectorGenerator)


@pytest.fixture(scope="module")
def branch_traces():
    return _trace_set(
        BranchPPControlModel(PPModelConfig(fill_words=1)), BranchVectorGenerator
    )


def _outcome(trace, config, traced):
    result = run_vector_trace(trace, config=config)
    core = PPCore(
        trace.program, config, trace.stimulus(),
        inbox_tasks=list(DEFAULT_INBOX), trace=traced,
    )
    try:
        core.run(max_cycles=500_000)
    except RuntimeError:
        pass
    outcome = (
        result.diverged, result.differences, result.write_mismatch,
        result.cycles, result.instructions, result.deadlocked,
        core.stall_cycles, core.retired, core.regfile.write_log,
    )
    if traced:
        outcome += ([(e.cycle, e.name, e.detail) for e in core.events],)
    return outcome


def _digest(traces, config, traced=False):
    """``(digest, diverging trace count)`` of one cell."""
    digest = hashlib.sha256()
    diverged = 0
    for trace in traces:
        outcome = _outcome(trace, config, traced)
        diverged += outcome[0]
        digest.update(repr(outcome).encode())
        digest.update(b"\0")
    return digest.hexdigest(), diverged


BUG_CELLS = ["clean"] + [f"bug{i}" for i in range(1, 7)]
SQUASH = CoreConfig(mem_latency=0, squashing_branches=True)


def _config(cell):
    return CoreConfig(mem_latency=0) if cell == "clean" else injected_config(int(cell[3:]))


@pytest.mark.parametrize("cell", BUG_CELLS)
def test_vector_replay_identical(traces, cell):
    assert _digest(traces, _config(cell)) == GOLDEN[cell]


def test_branch_replay_identical(branch_traces):
    assert _digest(branch_traces, SQUASH) == GOLDEN["branches"]


@pytest.mark.parametrize("cell", ["clean", "bug1", "bug5"])
def test_traced_events_identical(traces, cell):
    digest = _digest(traces[:TRACED_PREFIX], _config(cell), traced=True)
    assert digest == GOLDEN[f"traced-{cell}"]


def test_traced_branch_events_identical(branch_traces):
    digest = _digest(branch_traces[:TRACED_PREFIX], SQUASH, traced=True)
    assert digest == GOLDEN["traced-branches"]
