"""End-to-end benchmark of the validation pipeline.

    python3 perfbench/run.py --workload cold-validate --seed 0 --seconds 35 --trace 0

Runs one workload (``cold-validate``, ``bug-hunt`` or ``edit-revalidate``,
see ``perfbench/NOTES.md``; ``all`` runs the three in turn) as a closed
loop with one client for up to ``--seconds`` of whole rotations, checks
every operation's outputs, and prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Must be run from the repository root, whose
``src/`` holds the program; run records go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_runs"

END_TO_END_UNITS = {
    "validate_s": "s", "suite_s": "s", "sim_cycles_per_s": "1/s",
    "rebuild_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


# -- fresh processes ------------------------------------------------------------


def _child(conn, fn, args):
    try:
        conn.send(("ok", fn(*args)))
    except Exception:  # noqa: BLE001 -- reported to the parent as a failure
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def start_fresh(fn, *args):
    """Start ``fn(spawned_at, *args)`` in a freshly spawned interpreter;
    ``spawned_at`` is the wall clock just before the spawn."""
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    # Daemonic, so that a run that is stopped takes its workers with it.
    process = ctx.Process(target=_child, daemon=True,
                          args=(sender, fn, (time.time(),) + args))
    process.start()
    sender.close()
    return process, receiver


def wait_fresh(started):
    """Wait for a :func:`start_fresh` process; ``(status, value)``."""
    process, receiver = started
    try:
        return receiver.recv()
    except EOFError:
        return "error", "worker died before replying"
    except BaseException:
        process.terminate()
        raise
    finally:
        receiver.close()
        process.join()


def in_fresh(calls):
    """Run ``(fn, args)`` calls in fresh processes, two at a time; every
    process has ended before this returns or raises."""
    results = []
    for i in range(0, len(calls), 2):
        started = [start_fresh(fn, *args) for fn, args in calls[i : i + 2]]
        outcomes = [wait_fresh(s) for s in started]
        for status, value in outcomes:
            if status != "ok":
                raise RuntimeError(value)
        results.extend(value for _, value in outcomes)
    return results


# -- workloads ------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads below."""

    setup_times: list

    def expected(self, position):
        """Set-up reference counts an operation at ``position`` must match."""
        return {}

    def setup_s(self):
        return statistics.median(self.setup_times)

    def peak_rss_mb(self):
        from tracing import peak_rss_mb

        return peak_rss_mb()

    def references(self):
        return {}


class ColdValidate(Workload):
    """Each operation: a cold, cache-less pp-x1 validate in a fresh process.

    The reference counts are the run's first operation, itself cold.
    """

    rotation = (None,)

    def __init__(self, seed, work):
        self.seed = seed
        self.pids = {os.getpid()}
        self.rss_mb = 0.0
        self.setup_times = []

    def op(self, position, spans):
        [result] = in_fresh([(wl.cold_validate_op, (self.seed, spans is not None))])
        self.setup_times.append(result["setup_s"])
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        if spans is not None:
            for record in result["spans"]:
                spans.records.append(dict(record, op=spans.op))
        return result

    def check(self, position, result):
        if result["pid"] in self.pids:
            return "operation did not run in a fresh process"
        self.pids.add(result["pid"])
        if result["counts"]["divergences"]:
            return "clean core diverged"
        return None

    def peak_rss_mb(self):
        return self.rss_mb


class BugHunt(Workload):
    """Replay the pp-default suite on the clean core and bugs 1-6, jobs=2."""

    rotation = wl.BUG_ROTATION

    def __init__(self, seed, work):
        self.seed = seed
        self.cache_dir = str(work / "base")
        lanes = in_fresh([
            (wl.bug_hunt_setup, (seed, self.cache_dir, wl.BUG_ROTATION[0::2])),
            (wl.bug_hunt_setup, (seed, None, wl.BUG_ROTATION[1::2])),
        ])
        if lanes[0]["artifacts"] != lanes[1]["artifacts"]:
            raise RuntimeError("two cold pp-default builds differ")
        self.setup_times = [lane["setup_s"] for lane in lanes]
        self.build = dict(lanes[0]["counts"], artifacts=lanes[0]["artifacts"])
        self.suite = {**lanes[0]["references"], **lanes[1]["references"]}
        for bug, counts in self.suite.items():
            if bool(counts["divergences"]) != bool(bug):
                raise RuntimeError(f"reference run of core {bug}: "
                                   f"{counts['divergences']} divergences")
        warm_up(self)

    def op(self, position, spans):
        return wl.bug_hunt_op(self.seed, self.cache_dir, position, spans)

    def check(self, position, result):
        if not result["from_cache"]:
            return "trace set was not served from the set-up cache"
        if result["artifacts"] != self.build["artifacts"]:
            return "cached artifacts differ from the cold build"
        if result.get("split_matches") is False:
            return "PPCore/SpecSimulator split differs from run_trace"
        return None

    def expected(self, position):
        counts = {k: v for k, v in self.build.items() if k != "artifacts"}
        return dict(counts, **self.suite[position])

    def references(self):
        return {"build": self.build, "suite": self.suite}


class EditRevalidate(Workload):
    """Rebuild each edit variant of pp-x1 from a copy of a warm cache."""

    rotation = wl.EDIT_ROTATION

    def __init__(self, seed, work):
        self.seed = seed
        self.work_dir = str(work / "op")
        dirs = {m: str(work / f"ref-{m}") for m in wl.EDIT_MODELS}
        self.base_dir = dirs["unchanged"]
        refs = in_fresh([
            (wl.edit_setup, (seed, model, dirs[model]))
            for model in wl.EDIT_MODELS
        ])
        self.refs = dict(zip(wl.EDIT_MODELS, refs))
        self.setup_times = [ref["setup_s"] for ref in refs]
        for model, ref in self.refs.items():
            if not ref["counts"]["divergences"]:
                raise RuntimeError(f"bug {wl.SMOKE_BUG} not exposed on {model}")
        for model in wl.EDIT_MODELS[1:]:
            shutil.rmtree(dirs[model])
        self.seen = {}
        warm_up(self)

    def op(self, position, spans):
        return wl.edit_op(self.seed, self.base_dir, self.work_dir,
                          position, spans)

    def check(self, position, result):
        ref = self.refs[position["model"]]
        if result["artifacts"] != ref["artifacts"]:
            return "artifacts differ from a cold build of the same variant"
        incremental = {k: result["counts"][k]
                       for k in ("classification", "phase_hits")}
        seen = self.seen.setdefault(position["name"], incremental)
        if seen != incremental:
            return f"incremental outcome changed: {seen} -> {incremental}"
        return None

    def expected(self, position):
        return self.refs[position["model"]]["counts"]

    def references(self):
        return {m: dict(r["counts"], artifacts=r["artifacts"])
                for m, r in self.refs.items()}


def warm_up(workload):
    """One untimed operation in the measuring process, so that imports and
    per-process memos are in place before the first timed one."""
    position = workload.rotation[0]
    result = workload.op(position, None)
    reason = workload.check(position, result)
    if reason:
        raise RuntimeError(f"warm-up operation failed: {reason}")


WORKLOADS = {
    "cold-validate": ColdValidate,
    "bug-hunt": BugHunt,
    "edit-revalidate": EditRevalidate,
}


# -- measurement ----------------------------------------------------------------


def position_key(position):
    return position["name"] if isinstance(position, dict) else str(position)


class Run:
    """Whole rotations of operations, checked as they complete."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = []          # untraced rotations: [op results]
        self.traced = []          # traced op results
        self.failures = []
        self.attempted = 0
        self.counts = {}          # position -> counts of its first operation

    def run_op(self, position, spans):
        self.attempted += 1
        gc.collect()  # untimed: no earlier operation's garbage is timed
        try:
            result = self.workload.op(position, spans)
        except Exception:  # noqa: BLE001 -- a failed operation, counted
            self.failures.append(traceback.format_exc())
            return None
        result["position"] = position_key(position)
        reason = self.workload.check(position, result) or self.check_counts(
            position, result["counts"])
        if reason:
            self.failures.append(f"{position_key(position)}: {reason}")
            return None
        return result

    def check_counts(self, position, counts):
        """Simulated counts must match the set-up reference and every
        earlier operation on the same position of the rotation."""
        for name, value in self.workload.expected(position).items():
            if counts.get(name) != value:
                return f"{name} {counts.get(name)} != reference {value}"
        first = self.counts.setdefault(position_key(position), counts)
        if first != counts:
            return f"simulated counts changed: {first} -> {counts}"
        return None

    def measure(self, seconds, spans):
        """Run whole rotations while the next one, predicted to take as
        long as the mean so far, still ends within ``seconds``."""
        started = time.perf_counter()
        op_id = 0
        while True:
            self.passes.append([
                self.run_op(position, None) for position in self.workload.rotation
            ])
            for position in self.workload.rotation if spans is not None else ():
                spans.op = op_id
                result = self.run_op(position, spans)
                if result is not None:
                    self.traced.append(dict(result, op=op_id))
                op_id += 1
            elapsed = time.perf_counter() - started
            if elapsed * (len(self.passes) + 1) / len(self.passes) > seconds:
                break


def median_of_rotations(passes, value):
    """Median over whole rotations of ``value(rotation)``."""
    values = [value(ops) for ops in passes if all(ops)]
    return statistics.median(values) if values else None


def tail_line(name, values, unit):
    """Median and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n > 10:
        tail = f"p{100 * (n - 10) / n:.0f} {values[n - 11]:.4f}"
    else:
        tail = f"max {values[-1]:.4f} (no percentile has ten samples beyond it)"
    return (f"  {name}: per-op median {statistics.median(values):.4f} {unit}, "
            f"{tail} {unit}, n={n}")


def end_to_end(run):
    passes = run.passes
    mean = statistics.fmean
    metrics = {
        "validate_s": median_of_rotations(
            passes, lambda ops: mean(o["wall"] for o in ops)),
        "suite_s": median_of_rotations(
            passes, lambda ops: mean(o["suite_s"] for o in ops)),
        "sim_cycles_per_s": median_of_rotations(
            passes, lambda ops: sum(o["counts"]["cycles"] for o in ops)
            / sum(o["suite_s"] for o in ops)),
        "rebuild_s": median_of_rotations(
            passes, lambda ops: mean(o["build_s"] for o in ops)),
        "peak_rss_mb": run.workload.peak_rss_mb(),
        "setup_s": run.workload.setup_s(),
    }
    ops = [o for ops in passes for o in ops if o]
    lines = [f"operations: {len(ops)} in {len(passes)} rotations of "
             f"{len(run.workload.rotation)}; each metric below is the median "
             "over rotations of the rotation's mean"]
    for position in run.workload.rotation:
        key = position_key(position)
        walls = [o["wall"] for o in ops if o["position"] == key]
        if walls and len(run.workload.rotation) > 1:
            lines.append(f"  {key}: validate_s per-op median "
                         f"{statistics.median(walls):.4f} s, n={len(walls)}")
    if ops:
        lines += [tail_line("validate_s", [o["wall"] for o in ops], "s"),
                  tail_line("suite_s", [o["suite_s"] for o in ops], "s"),
                  tail_line("rebuild_s", [o["build_s"] for o in ops], "s")]
    return metrics, lines


PER_LAYER_UNITS = {
    "smurphi.build_s": "s", "smurphi.fingerprint_s": "s",
    "enumeration.s": "s", "enumeration.states": "count",
    "enumeration.edges": "count", "enumeration.states_per_s": "1/s",
    "enumeration.rss_mb": "MB",
    "tour.s": "s", "tour.traces": "count", "tour.traversals": "count",
    "tour.index_rebuilds": "count", "tour.rss_mb": "MB",
    "vectors.memo_fill_s": "s", "vectors.s": "s",
    "vectors.instructions": "count", "vectors.rss_mb": "MB",
    "harness.compare_s": "s", "harness.traces_run": "count",
    "harness.divergences": "count",
    "pp.rtl.s": "s", "pp.rtl.cycles": "count", "pp.rtl.cycles_per_s": "1/s",
    "pp.spec.s": "s",
    "enumeration.pool.spawns": "count",
    "enumeration.pool.dispatch_bytes": "bytes",
    "enumeration.pool.efficiency": "ratio",
    "core.cache.load_s": "s", "core.cache.bytes_read": "bytes",
    "core.cache.bytes_written": "bytes", "core.cache.hits": "count",
    "core.cache.misses": "count",
    "incremental.replay_s": "s", "incremental.splice_s": "s",
    "incremental.dirty_states": "count", "incremental.region_states": "count",
    "incremental.regenerated_traces": "count",
    "incremental.splice_ratio": "ratio",
    "trace.overhead": "ratio",
}


def per_layer(run, spans):
    """Per-layer metrics: means per traced operation (whole rotations)."""
    from tracing import self_times

    traced = run.traced
    n = len(traced) or 1
    ops = {o["op"] for o in traced}
    records = [r for r in spans.records if r["op"] in ops]
    selfs = self_times(records)

    def self_s(name):
        return sum(v for (_, span), v in selfs.items() if span == name) / n

    def total(name, field):
        return sum(r.get(field, 0) for r in records if r["name"] == name)

    def layer(name, field):
        return sum(o["layers"].get(name, {}).get(field, 0) for o in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    loads = [r for r in records if r["name"] == "core.cache.load"]
    # Pool efficiency: per-trace simulation seconds (the split replay)
    # over jobs x the parallel compare wall, on operations that used it.
    pool_ops = {o["op"] for o in traced if "enumeration.pool" in o["layers"]}
    pool_sim = sum(v for (op, span), v in selfs.items()
                   if op in pool_ops and span in ("pp.rtl", "pp.spec"))
    pool_wall = sum(r["end"] - r["start"] for r in records
                    if r["op"] in pool_ops and r["name"] == "harness")
    cycles = sum(o["counts"]["cycles"] for o in traced)
    untraced = [o["wall"] for ops_ in run.passes for o in ops_ if o]
    metrics = {
        "smurphi.build_s": self_s("smurphi.build"),
        "smurphi.fingerprint_s": self_s("smurphi.fingerprint"),
        "enumeration.s": self_s("enumeration"),
        "enumeration.states": layer("enumeration", "states") / n,
        "enumeration.edges": layer("enumeration", "edges") / n,
        "enumeration.states_per_s": ratio(
            layer("enumeration", "states"), self_s("enumeration") * n),
        "enumeration.rss_mb": total("enumeration", "rss_rise_mb") / n,
        "tour.s": self_s("tour"),
        "tour.traces": layer("tour", "traces") / n,
        "tour.traversals": layer("tour", "traversals") / n,
        "tour.index_rebuilds": layer("tour", "index_rebuilds") / n,
        "tour.rss_mb": total("tour", "rss_rise_mb") / n,
        "vectors.memo_fill_s": self_s("vectors.memo_fill"),
        "vectors.s": self_s("vectors"),
        "vectors.instructions": layer("vectors", "instructions") / n,
        "vectors.rss_mb": total("vectors", "rss_rise_mb") / n,
        "harness.compare_s": self_s("harness"),
        "harness.traces_run": layer("harness", "traces_run") / n,
        "harness.divergences": layer("harness", "divergences") / n,
        "pp.rtl.s": self_s("pp.rtl"),
        "pp.rtl.cycles": cycles / n,
        "pp.rtl.cycles_per_s": ratio(cycles, self_s("pp.rtl") * n),
        "pp.spec.s": self_s("pp.spec"),
        "enumeration.pool.spawns": layer("enumeration.pool", "spawns") / n,
        "enumeration.pool.dispatch_bytes":
            layer("enumeration.pool", "dispatch_bytes") / n,
        "enumeration.pool.efficiency": ratio(
            pool_sim, wl.BUG_HUNT_JOBS * pool_wall),
        "core.cache.load_s": self_s("core.cache.load"),
        "core.cache.bytes_read": (total("core.cache.load", "bytes_read")
                                  + total("core.cache.copy", "bytes_read")) / n,
        "core.cache.bytes_written": (
            total("core.cache.store", "bytes_written")
            + total("core.cache.copy", "bytes_written")) / n,
        "core.cache.hits": sum(1 for r in loads if r["hit"]) / n,
        "core.cache.misses": sum(1 for r in loads if not r["hit"]) / n,
        "incremental.replay_s": self_s("incremental.replay"),
        "incremental.splice_s": self_s("incremental.splice"),
        "incremental.dirty_states": layer("incremental", "dirty_states") / n,
        "incremental.region_states": layer("incremental", "region_states") / n,
        "incremental.regenerated_traces":
            layer("incremental", "regenerated_traces") / n,
        "incremental.splice_ratio": ratio(
            layer("incremental", "spliced_tours"), layer("incremental", "tours")),
        "trace.overhead": ratio(
            statistics.fmean(o["wall"] for o in traced),
            statistics.fmean(untraced)) - 1 if traced and untraced else 0.0,
    }
    coverage = []
    for o in traced:
        root = [r for r in records if r["op"] == o["op"] and r["name"] == "op"]
        if root:
            duration = root[0]["end"] - root[0]["start"]
            coverage.append(1 - selfs[(o["op"], "op")] / duration)
    return metrics, coverage


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # SIGTERM unwinds like Ctrl-C: work files are removed, workers stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, args.trace)
    finally:
        # Spawning started multiprocessing's resource tracker; stop it and
        # wait for it, so that no process outlives the run.
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        getattr(tracker, "_stop", lambda: None)()
    return 0


def run_workload(name, seed, seconds, trace):
    """Set up, measure and report one workload."""
    from tracing import Spans, write_spans

    tag = f"{name}-seed{seed}-trace{trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        spans = Spans() if trace else None
        run = Run(workload)
        run.measure(seconds, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    e2e, lines = end_to_end(run)
    failed = len(run.failures)
    correct = failed == 0 and all(v is not None for v in e2e.values())
    print(f"{name} seed={seed} trace={trace}: "
          f"{run.attempted} operations attempted, {failed} failed")
    for line in lines:
        print(line)
    if trace:
        layers, coverage = per_layer(run, spans)
        write_spans(OUT / f"{tag}.spans.jsonl", spans.records)
        if coverage:
            print(f"  span coverage of each traced operation: min "
                  f"{min(coverage):.4f}, median {statistics.median(coverage):.4f}")
        if name == "cold-validate" and (
                not coverage or min(coverage) < 0.95):
            print("  layer self times cover < 95% of an operation",
                  file=sys.stderr)
            correct = False
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    for metric_name, metric in metrics.items():
        print(f"  {metric_name} = {metric['value']} {metric['unit']}")
    with open(OUT / f"{tag}.counts.json", "w") as handle:
        json.dump({"references": workload.references(), "operations": run.counts},
                  handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
