"""The benchmark's operations and set-ups, one group per workload.

Nothing here imports the ``repro`` package at module level: a
``cold-validate`` operation runs in a freshly spawned interpreter and
checks that no module of the program was loaded before it starts, so its
imports belong to the operation's set-up and no memo can carry over.

Every operation is a ``build()`` followed by a ``validate()``, the two
calls behind ``repro validate``; it returns its timings, the simulated
counts the benchmark checks, and (traced) its spans.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
from contextlib import nullcontext
from types import SimpleNamespace

#: Per-trace instruction limit of every workload (``--limit 400``).
LIMIT = 400
#: ``pp-default`` and ``pp-x1`` (``repro validate --extra-pipe-stages 1``).
PP_DEFAULT = {"fill_words": 2}
PP_X1 = {"fill_words": 2, "extra_pipe_stages": 1}
#: bug-hunt's core rotation: the clean core, then Table 2.1 bugs 1-6.
BUG_ROTATION = (0, 1, 2, 3, 4, 5, 6)
#: Worker processes of a bug-hunt replay (``--jobs 2``).
BUG_HUNT_JOBS = 2
#: The bug edit-revalidate's check must still expose after every rebuild.
SMOKE_BUG = 1
#: edit-revalidate's rotation.  ``model`` names the model whose cold
#: build is the variant's reference: the salt changes only cache keys and
#: ``noop-touch`` is the identity rewrite, so both match the unedited one.
EDIT_ROTATION = (
    {"name": "unchanged", "model": "unchanged"},
    {"name": "salted", "model": "unchanged",
     "overrides": {"model": "perfbench-salt"}},
    {"name": "noop-touch", "model": "unchanged", "edit": "noop-touch"},
    {"name": "inbox-flip-fill-tail", "model": "inbox-flip-fill-tail",
     "edit": "inbox-flip-fill-tail"},
    {"name": "inbox-flip-refill", "model": "inbox-flip-refill",
     "edit": "inbox-flip-refill"},
    {"name": "send-clears-stpend", "model": "send-clears-stpend",
     "edit": "send-clears-stpend"},
)
#: The distinct models of the rotation, each cold-built once in set-up.
EDIT_MODELS = tuple(dict.fromkeys(v["model"] for v in EDIT_ROTATION))


def _pipeline(scale, seed, **kwargs):
    from repro.core.pipeline import ValidationPipeline
    from repro.pp.fsm_model import PPModelConfig

    return ValidationPipeline(
        PPModelConfig(**scale), max_instructions_per_trace=LIMIT, seed=seed,
        **kwargs,
    )


def core_config(bug: int):
    """``CoreConfig`` as ``repro validate [--bug N]`` builds it."""
    from repro.pp.rtl.core import CoreConfig

    config = CoreConfig(mem_latency=0)
    return config.with_bugs(bug) if bug else config


def edits_for(model: str):
    """The ``edits=`` of a model: ``unchanged`` or an ``EDIT_CATALOG`` name."""
    from repro.incremental.edits import EDIT_CATALOG

    return (EDIT_CATALOG[model],) if model != "unchanged" else ()


def artifact_digest(artifacts) -> str:
    """SHA-256 of the artifacts' JSON, the repo's byte-identity bar."""
    digest = hashlib.sha256()
    for part in (artifacts.graph, artifacts.tours, artifacts.traces):
        digest.update(part.to_json().encode())
    return digest.hexdigest()


def result_rows(results):
    return [(r.diverged, r.deadlocked, r.cycles, r.instructions) for r in results]


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def suite_counts(rows) -> dict:
    return {
        "traces_run": len(rows),
        "divergences": sum(1 for row in rows if row[0]),
        "cycles": sum(row[2] for row in rows),
        "instructions_run": sum(row[3] for row in rows),
        "results": rows_digest(rows),
    }


def build_counts(artifacts) -> dict:
    return {
        "states": artifacts.graph.num_states,
        "edges": artifacts.graph.num_edges,
        "traces": artifacts.traces.num_traces,
        "traversals": artifacts.tours.stats.total_edge_traversals,
        "instructions": artifacts.traces.total_instructions,
    }


def split_compare(traces, config, stop_on_divergence, spans):
    """``run_trace`` for each trace with PPCore and SpecSimulator in spans.

    Returns the same rows ``run_vector_traces`` yields; callers assert
    that they match.  ``pp.rtl``/``pp.spec`` spans time the two models.
    """
    from repro.harness.compare import DEFAULT_INBOX, compare_states
    from repro.pp.rtl.core import BRANCH_OPCODES, PPCore
    from repro.pp.spec import SpecSimulator

    rows = []
    for trace in traces:
        program = trace.program
        inbox = list(DEFAULT_INBOX)
        with spans.span("pp.rtl"):
            core = PPCore(program, config, trace.stimulus(), inbox_tasks=inbox)
            try:
                core.run(max_cycles=500_000)
                deadlocked = False
            except RuntimeError:
                deadlocked = True
        if deadlocked:
            rows.append((True, True, core.cycle, len(program)))
        else:
            with spans.span("pp.spec"):
                spec = SpecSimulator(inbox=inbox)
                if any(ins.opcode in BRANCH_OPCODES for ins in program):
                    spec_state = spec.run_with_control_flow(program)
                else:
                    spec_state = spec.run(program)
            differences = compare_states(spec_state, core.architectural_state())
            diverged = bool(differences) or spec.write_log != core.regfile.write_log
            rows.append((diverged, False, core.cycle, len(program)))
        if rows[-1][0] and stop_on_divergence:
            break
    return rows


# -- cold-validate --------------------------------------------------------------


def cold_validate_op(spawned_at: float, seed: int, traced: bool) -> dict:
    """One cold, cache-less pp-x1 validate at jobs=1, in a fresh process.

    ``spawned_at`` is the parent's wall clock when it started this
    process: start-up and imports up to the operation are its set-up.
    """
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    if loaded:
        raise RuntimeError(f"cold operation started with {loaded} loaded")
    from repro.core.pipeline import ValidationPipeline  # noqa: F401 (set-up)
    from tracing import Spans, peak_rss_mb

    setup_s = time.time() - spawned_at
    spans = Spans() if traced else None
    if traced:
        out, artifacts = _cold_traced(seed, spans)
    else:
        out, artifacts = _cold_untraced(seed)
    # Peak RSS before the digest below serializes the artifacts.
    out.update(setup_s=setup_s, rss_mb=peak_rss_mb(), pid=os.getpid(),
               spans=spans.records if traced else [])
    out["counts"]["artifacts"] = artifact_digest(artifacts)
    return out


def _cold_untraced(seed: int) -> dict:
    started = time.perf_counter()
    pipeline = _pipeline(PP_X1, seed, jobs=1)
    artifacts = pipeline.build()
    built = time.perf_counter()
    report = pipeline.validate(core_config(0), jobs=1)
    validated = time.perf_counter()
    pipeline.shutdown()
    ended = time.perf_counter()
    counts = dict(build_counts(artifacts),
                  **suite_counts(result_rows(report.results)))
    return {"wall": ended - started, "build_s": built - started,
            "suite_s": validated - built, "counts": counts,
            "layers": {}}, artifacts


def _cold_traced(seed: int, spans) -> dict:
    """The same operation, one public call per layer, each in a span."""
    from repro.enumeration import enumerate_states
    from repro.obs.observer import Observer
    from repro.pp.fsm_model import PPModelConfig, pp_control_model
    from repro.tour import IndexedTourGenerator
    from repro.vectors import (
        TransitionEventMemo, VectorGenerator, pp_instruction_cost,
    )

    obs = Observer()
    config = core_config(0)
    spans.op = 0
    started = time.perf_counter()
    with spans.span("op"):
        with spans.span("smurphi.build"):
            control = pp_control_model(PPModelConfig(**PP_X1))
            model = control.build()
        with spans.span("enumeration"):
            graph, _ = enumerate_states(model, obs=obs)
        with spans.span("vectors.memo_fill"):
            memo = TransitionEventMemo(control, graph)
            for index in range(graph.num_edges):
                memo.lookup_edge(index)
        with spans.span("tour"):
            cost = pp_instruction_cost(control, graph, memo=memo)
            tours = IndexedTourGenerator(
                graph, instruction_cost=cost, max_instructions_per_trace=LIMIT,
            ).generate(obs=obs)
        with spans.span("vectors"):
            traces = VectorGenerator(control, graph, seed=seed, memo=memo).generate(
                list(tours), obs=obs, jobs=1)
        built = time.perf_counter()
        with spans.span("harness"):
            rows = split_compare(traces.traces, config, True, spans)
    ended = time.perf_counter()
    artifacts = SimpleNamespace(graph=graph, tours=tours, traces=traces)
    counts = dict(build_counts(artifacts), **suite_counts(rows))
    layers = {
        "enumeration": {"states": graph.num_states, "edges": graph.num_edges},
        "tour": {"traces": len(tours),
                 "traversals": tours.stats.total_edge_traversals,
                 "index_rebuilds": obs.metrics.total("tour.index_rebuilds")},
        "vectors": {"instructions": traces.total_instructions},
        "harness": {"traces_run": len(rows),
                    "divergences": counts["divergences"]},
    }
    return {"wall": ended - started, "build_s": built - started,
            "suite_s": ended - built, "counts": counts,
            "layers": layers}, artifacts


# -- bug-hunt -------------------------------------------------------------------


def bug_hunt_setup(spawned_at: float, seed: int, cache_dir, bugs) -> dict:
    """Cold pp-default build (into ``cache_dir`` if given), then the
    sequential reference replay of each core in ``bugs``; set-up time
    runs from the process spawn to the end of the replays."""
    from repro.harness.compare import run_vector_traces

    pipeline = _pipeline(PP_DEFAULT, seed, jobs=1, cache_dir=cache_dir)
    artifacts = pipeline.build()
    references = {}
    for bug in bugs:
        results, _ = run_vector_traces(
            artifacts.traces, config=core_config(bug), jobs=1,
            stop_on_divergence=False)
        references[bug] = suite_counts(result_rows(results))
    setup_s = time.time() - spawned_at
    return {"setup_s": setup_s, "references": references,
            "counts": build_counts(artifacts),
            "artifacts": artifact_digest(artifacts)}


def bug_hunt_op(seed: int, cache_dir, bug: int, spans=None) -> dict:
    """``repro validate --all --bug N --jobs 2`` on the set-up cache."""
    from tracing import LayerObserver, cache_spans

    traced = spans is not None
    obs = LayerObserver(spans) if traced else None
    span = spans.span if traced else _no_span
    started = time.perf_counter()
    with span("op"), (cache_spans(spans) if traced else nullcontext()):
        pipeline = _pipeline(PP_DEFAULT, seed, jobs=BUG_HUNT_JOBS,
                             cache_dir=cache_dir, observer=obs)
        artifacts = pipeline.build()
        built = time.perf_counter()
        with span("harness"):
            report = pipeline.validate(
                core_config(bug), stop_on_divergence=False, jobs=BUG_HUNT_JOBS)
        validated = time.perf_counter()
        pipeline.shutdown()
    ended = time.perf_counter()
    rows = result_rows(report.results)
    out = {"wall": ended - started, "build_s": built - started,
           "suite_s": validated - built, "from_cache": pipeline.artifacts_from_cache,
           "counts": dict(build_counts(artifacts), **suite_counts(rows)),
           "artifacts": artifact_digest(artifacts),
           "layers": {}}
    if traced:
        with span("split"):
            split = split_compare(
                artifacts.traces.traces, core_config(bug), False, spans)
        out["split_matches"] = split == rows
        out["layers"] = {
            "harness": {"traces_run": len(rows),
                        "divergences": out["counts"]["divergences"]},
            "enumeration.pool": {
                "spawns": obs.metrics.total("enum.pool.spawns"),
                "dispatch_bytes": obs.metrics.total("enum.pool.dispatch_bytes")},
        }
    return out


# -- edit-revalidate ------------------------------------------------------------


def edit_setup(spawned_at: float, seed: int, model: str, cache_dir) -> dict:
    """Cold, non-incremental pp-x1 build of ``model`` into its own cache;
    set-up time runs from the process spawn to the end of the build."""
    pipeline = _pipeline(PP_X1, seed, jobs=1, cache_dir=cache_dir,
                         edits=edits_for(model), incremental=False)
    artifacts = pipeline.build()
    setup_s = time.time() - spawned_at
    report = pipeline.validate(core_config(SMOKE_BUG), jobs=1)
    return {"setup_s": setup_s,
            "counts": dict(build_counts(artifacts),
                           **suite_counts(result_rows(report.results))),
            "artifacts": artifact_digest(artifacts)}


def edit_op(seed: int, base_dir, work_dir, variant: dict, spans=None) -> dict:
    """Rebuild one variant from an untimed copy of the base cache, then
    check that the rebuilt suite still stops on :data:`SMOKE_BUG`."""
    from tracing import LayerObserver, cache_spans

    shutil.rmtree(work_dir, ignore_errors=True)
    shutil.copytree(base_dir, work_dir)
    traced = spans is not None
    obs = LayerObserver(spans) if traced else None
    span = spans.span if traced else _no_span
    edits = edits_for(variant.get("edit", "unchanged"))
    config = core_config(SMOKE_BUG)
    started = time.perf_counter()
    with span("op"), (cache_spans(spans) if traced else nullcontext()):
        pipeline = _pipeline(
            PP_X1, seed, jobs=1, cache_dir=work_dir, edits=edits,
            phase_code_overrides=variant.get("overrides"), observer=obs)
        artifacts = pipeline.build()
        built = time.perf_counter()
        if traced:
            with span("harness"):
                rows = split_compare(artifacts.traces.traces, config, True, spans)
        else:
            rows = result_rows(pipeline.validate(config, jobs=1).results)
        validated = time.perf_counter()
        pipeline.shutdown()
    ended = time.perf_counter()
    incremental = pipeline.incremental_report
    counts = dict(build_counts(artifacts), **suite_counts(rows))
    counts["classification"] = incremental.classification
    counts["phase_hits"] = dict(sorted(pipeline.phase_hits.items()))
    out = {"wall": ended - started, "build_s": built - started,
           "suite_s": validated - built, "counts": counts,
           "artifacts": artifact_digest(artifacts),
           "layers": {}}
    if traced:
        ran = {r["name"] for r in spans.records if r["op"] == spans.op}
        out["layers"] = {
            "enumeration": ({"states": artifacts.graph.num_states,
                             "edges": artifacts.graph.num_edges}
                            if "enumeration" in ran else {}),
            "tour": ({"traces": len(artifacts.tours),
                      "traversals": artifacts.tours.stats.total_edge_traversals,
                      "index_rebuilds": obs.metrics.total("tour.index_rebuilds")}
                     if "tour" in ran else {}),
            "vectors": ({"instructions": artifacts.traces.total_instructions}
                        if "vectors" in ran else {}),
            "harness": {"traces_run": len(rows),
                        "divergences": counts["divergences"]},
            "incremental": {
                "dirty_states": incremental.dirty_states,
                "region_states": incremental.region_states,
                "regenerated_traces": incremental.regenerated_traces,
                "spliced_tours": incremental.spliced_tours,
                "tours": len(artifacts.tours)},
        }
    return out


def _no_span(name):
    return nullcontext()
