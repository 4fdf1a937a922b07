"""The repository's benchmark: discovery, streaming updates and served queries.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload discover --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one report

Workloads (the seed draws every input; the program under test, started
by ``program.py`` in a process of its own, receives only the tables,
batches and queries built by ``inputs.py``):

``discover``
    Cold ``DiscoveryEngine.run`` with the default ``DiscoveryConfig``
    (``max_order`` of the world) on 40,000-sample tables from three
    planted worlds, cycled: every table once, then on until the time is
    up.  Checked: adopted constraint
    keys equal a reference-scan oracle run's, and the fitted model meets
    every target within ``config.tol``.
``stream``
    A ``LiveKnowledgeBase`` on the medical-survey world, bound to a
    ``KBStore``, fed 4,000-sample batches; each batch triggers a warm
    revision that is persisted, then one fixed batch of conditional
    queries runs through a session whose caches that revision made
    cold.  Episodes restart from a first window and cycle in whole
    rounds through three seeded streams.  Checked after every revision:
    the session's answers equal a fresh session's, and the stored latest
    revision carries the live model's fingerprint.
``serve``
    The paper knowledge base hosted by a server process with the
    default ``ServeConfig``.  Phases: ``serve1`` closed loop on one
    connection, ``serve2`` closed loop on two, ``open`` a fixed-rate
    schedule over two connections.  Each phase also loads a fixed
    stand-in server (``reference_server.py``) beside the program's.
    Checked: every served answer is bit-identical to in-process
    ``kb.query()``.

Printed metrics.  The report lines name the metrics of each workload.
The last line is the JSON record; with ``--trace 0`` it carries the
metrics every workload reports, under one name each:

====================  ================  ====================  =============
JSON metric           discover          stream                serve
====================  ================  ====================  =============
``op_p50_ms``         discover_p50_ms   revision_p50_ms       serve1_p50_ms
``op_tail_ms``        discover_tail_ms  revision_tail_ms      open_tail_ms
``throughput_per_s``  discover_per_s    stream_samples_per_s  serve2_rps
``setup_s``           setup_s           setup_s               setup_s
``peak_rss_mb``       peak_rss_mb       peak_rss_mb           peak_rss_mb
====================  ================  ====================  =============

A timing is reported as its median and its tail, a percentile fixed per
workload (``TAIL_P``) with at least ten samples beyond it; the report
states the percentile and the sample counts.  The figures are made
independent of the shared host's state, which changes the speed of the
same work by up to 2x over minutes:

- ``discover`` and ``stream`` times are *normalized* by a CPU reference
  kernel (``hostspeed.py``) that the program times between operations;
  the report also prints their measured medians.  Each ``discover``
  table's time is the median of its repeats.
- ``serve`` latency is mostly waiting (flush window, thread wake-ups),
  which the CPU kernel does not track.  Its phases run in rounds of
  short chunks, each on the stand-in reference server and then on the
  program's server, and every figure is the program's figure scaled by
  the reference's nominal over the reference's figure from the same
  run (``report_serve``); the report prints both measured figures.

``setup_s`` is the median of three set-ups, each from spawning the
program until it is ready for its first timed operation (for
``serve``: until ``/health`` answers), as measured.  ``error_rate`` is
failed over attempted operations; the JSON record carries both counts.

With ``--trace 1`` the run is made twice, untraced and traced, and the
JSON carries the per-layer metrics of the traced run: times and counts
per operation (one discovery, one revision with its query batch, one
served request) unless the name says otherwise.  Tracing overhead is the
traced minus the untraced mean operation time.  The spans are written
to ``.perfbench/`` when the run ends, with the run record (seed, commit,
nproc, CPU model, Python and numpy versions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 3
#: Tail percentile of each workload's timings.  It is fixed, so that
#: runs compare like with like, and low enough that at least ten samples
#: lie beyond it in every run: ``stream`` makes at least 120 revisions,
#: ``serve`` at least 300 requests per phase (200 on the reference
#: server); ``discover`` times ten tables, and its tail is their maximum.
#: ``serve`` uses p90 rather than p95: its p95 follows the host's
#: scheduling hiccups, and spread 20-27% from run to run even scaled.
TAIL_P = {"discover": 100.0, "stream": 90.0, "serve": 90.0}
READY_TIMEOUT_S = 60.0
HOST = "127.0.0.1"

#: ``open`` phase offered load: under a third of one connection's
#: closed-loop capacity (about 350 requests/s on two CPUs), so a slower
#: moment of the host does not push the queue near saturation.
OPEN_RATE = 100.0
WARMUP_S = 0.5
#: ``serve`` runs its phases in rounds: a chunk of each phase on the
#: reference server, then on the program's server.
CHUNK_S = 1.0
REFERENCE_CHUNK_S = 0.7
#: The reference server's figures at nominal host speed.  Each ``serve``
#: figure is the program's, times the nominal, over the reference's
#: figure measured in the same run; the values set the scale only.
REFERENCE_NOMINAL = {
    "serve1_p50_ms": 2.7,
    "serve1_tail_ms": 4.0,
    "serve2_rps": 650.0,
    "serve2_tail_ms": 3.5,
    "open_tail_ms": 4.5,
}

_clock = time.perf_counter


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def normalized(results: dict, field: str) -> list[tuple]:
    """``(op, normalized value of op[field])`` for every op that has it."""
    ops = [op for op in results["ops"] if field in op]
    spans = [(op["start"], op["end"]) for op in ops]
    scales = factors(spans, results["kernels"])
    return [(op, op[field] * scale) for op, scale in zip(ops, scales)]


def measured_median(results: dict, field: str) -> float:
    """Median measured (not normalized) value of ``field`` over all ops."""
    return statistics.median(op[field] for op in results["ops"] if field in op)


class Report:
    """Named metrics of one run, with a note on how each was taken."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.notes[name] = note

    def timing(self, prefix: str, seconds: list, of: str, p: float, median=True):
        """``<prefix>_p50_ms`` (if ``median``) and ``<prefix>_tail_ms``, the
        ``p``-th percentile."""
        n = len(seconds)
        if median:
            self.add(
                f"{prefix}_p50_ms",
                statistics.median(seconds) * 1e3,
                "ms",
                f"median of n={n} {of}",
            )
        what = "maximum" if p == 100 else f"p{p:g}"
        beyond = "" if p == 100 else f" ({n - math.ceil(p / 100 * n)} beyond)"
        self.add(
            f"{prefix}_tail_ms",
            percentile(seconds, p) * 1e3,
            "ms",
            f"{what} of n={n} {of}{beyond}",
        )

    def lines(self) -> list[str]:
        return [
            f"  {name:<28} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"{self.notes[name]}"
            for name, metric in self.metrics.items()
        ]


# -- the program process -------------------------------------------------------


def spawn(command: list, what: str, env=None) -> tuple[subprocess.Popen, str]:
    """Start ``command`` and wait for its ``ready`` line; kill it if none
    comes."""
    process = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise RuntimeError(f"{what} did not report ready in time")
        line = process.stdout.readline()
        if not line.startswith("ready"):
            raise RuntimeError(f"{what} failed during set-up (said {line!r})")
    except BaseException:
        kill(process)
        raise
    return process, line.strip()


def kill(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()
    process.stdin.close()
    process.stdout.close()


class Program:
    """One ``program.py`` process: spawned, awaited ready, then collected."""

    def __init__(self, ctx, workload: str, trace=False, setup_only=False, tag=""):
        self.out = ctx.workdir / f"{tag}.out.pkl"
        command = [
            sys.executable,
            str(HERE / "program.py"),
            "--workload", workload,
            "--inputs", str(ctx.inputs),
            "--out", str(self.out),
            "--workdir", str(ctx.workdir),
            "--seconds", repr(ctx.seconds),
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.started = _clock()
        self.process, self.ready_line = spawn(command, "program", env)
        self.ready_s = _clock() - self.started

    def finish(self, timeout: float, stop: bool = False) -> dict:
        """Wait for exit (after a stop line when ``stop``); load results."""
        try:
            if stop:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
            code = self.process.wait(timeout)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            raise RuntimeError("program did not finish in time") from None
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"program exited with code {code}")
        with open(self.out, "rb") as handle:
            return pickle.load(handle)

    def kill(self) -> None:
        kill(self.process)


# -- discover ------------------------------------------------------------------


def check_discover(results: dict, oracle: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every discovery of a run."""
    problems = []
    failed = 0
    for number, op in enumerate(results["ops"]):
        if "error" in op:
            failed += 1
            continue
        if op["keys"] != oracle[op["table"]]:
            problems.append(
                f"discovery {number}: adopted keys differ from the reference oracle"
            )
        if not op["violation"] <= op["tol"]:
            problems.append(
                f"discovery {number}: model misses a target by "
                f"{op['violation']:.3g} > tol {op['tol']:.3g}"
            )
    return len(results["ops"]), failed, problems


def discover_ops(results: dict) -> list[float]:
    return [op["seconds"] for op in results["ops"] if "seconds" in op]


def measure_discover(ctx) -> None:
    from inputs import discover_inputs, discover_oracle

    data = discover_inputs(ctx.seed)
    ctx.dump_inputs(data)
    runs = ctx.program_runs("discover")
    oracle = discover_oracle(data["tables"])
    for label, results in runs.items():
        ctx.account("discover", label, *check_discover(results, oracle))
    if ctx.trace:
        ctx.layers(runs, discover_ops)
        return
    report = ctx.report
    untraced = runs["untraced"]
    times = normalized(untraced, "seconds")
    repeats: dict = {}
    for op, seconds in times:
        repeats.setdefault(op["table"], []).append(seconds)
    # Each table's time is the median of its repeats: they repeat
    # identical work, and the spread between tables stays in the figures.
    per_table = [statistics.median(values) for values in repeats.values()]
    of = (
        f"tables, each the median of its {len(times) / len(per_table):.3g} "
        f"runs on average, normalized"
    )
    report.timing("discover", per_table, of, TAIL_P["discover"])
    report.notes["discover_p50_ms"] += (
        f"; measured median {measured_median(untraced, 'seconds') * 1e3:.1f} ms"
    )
    report.add(
        "discover_per_s",
        len(per_table) / sum(per_table),
        "1/s",
        f"{len(per_table)} tables in {sum(per_table):.2f} s, {of}",
    )
    ctx.common(runs, "discover_p50_ms", "discover_tail_ms", "discover_per_s")


# -- stream --------------------------------------------------------------------


def check_stream(results: dict) -> tuple[int, int, list]:
    """Each cycle is two operations: the revision and the query batch after it."""
    problems = []
    failed = 0
    for number, op in enumerate(results["ops"]):
        if "error" in op:
            failed += 2
            continue
        if op["mode"] is None:
            problems.append(f"batch {number} did not trigger a revision")
        if not op["answers_match"]:
            problems.append(
                f"revision {number}: session answers differ from a fresh session's"
            )
        if not op["fingerprint_match"]:
            problems.append(
                f"revision {number}: the stored revision's fingerprint differs "
                f"from the live model's"
            )
    return 2 * len(results["ops"]), failed, problems


def stream_cycles(results: dict) -> list[float]:
    return [
        op["revision_s"] + op["fresh_s"] for op in results["ops"] if "revision_s" in op
    ]


def measure_stream(ctx) -> None:
    from inputs import STREAM_BATCH, stream_inputs

    ctx.dump_inputs(stream_inputs(ctx.seed))
    runs = ctx.program_runs("stream")
    for label, results in runs.items():
        ctx.account("stream", label, *check_stream(results))
    if ctx.trace:
        ctx.layers(runs, stream_cycles)
        return
    report = ctx.report
    untraced = runs["untraced"]
    revisions = [seconds for _, seconds in normalized(untraced, "revision_s")]
    fresh = [seconds for _, seconds in normalized(untraced, "fresh_s")]
    of = "revisions, normalized"
    report.timing("revision", revisions, of, TAIL_P["stream"])
    report.notes["revision_p50_ms"] += (
        f"; measured median {measured_median(untraced, 'revision_s') * 1e3:.2f} ms"
    )
    report.add(
        "fresh_batch_p50_ms",
        statistics.median(fresh) * 1e3,
        "ms",
        f"median of n={len(fresh)} query batches, normalized",
    )
    busy = sum(revisions) + sum(fresh)
    samples = STREAM_BATCH * len(revisions)
    report.add(
        "stream_samples_per_s",
        samples / busy,
        "1/s",
        f"{samples} samples in {busy:.3f} s of revisions and query batches, "
        f"normalized",
    )
    ctx.common(runs, "revision_p50_ms", "revision_tail_ms", "stream_samples_per_s")


# -- serve ---------------------------------------------------------------------


def start_server(ctx, trace: bool, tag: str) -> tuple[Program, int, float]:
    """A server process, its port, and the time until ``/health`` answered."""
    from loadgen import get_json

    program = Program(ctx, "serve", trace=trace, tag=tag)
    port = int(program.ready_line.split()[1])
    deadline = _clock() + READY_TIMEOUT_S
    while True:
        try:
            get_json(HOST, port, "/health")
            return program, port, _clock() - program.started
        except OSError:
            if _clock() > deadline:
                program.kill()
                raise RuntimeError("server never answered /health") from None
            time.sleep(0.005)


class ReferenceServer:
    """``reference_server.py`` in a child process, stopped by a line."""

    def __init__(self) -> None:
        self.process, ready_line = spawn(
            [sys.executable, str(HERE / "reference_server.py")], "reference server"
        )
        self.port = int(ready_line.split()[1])

    def stop(self) -> None:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            self.process.wait(10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        kill(self.process)


def drive_server(port: int, reference_port: int, bodies: list, seconds: float):
    """Warm up, then rounds of the three phases, each a reference chunk
    (``REFERENCE_CHUNK_S``) followed by a program chunk (``CHUNK_S``).

    Interleaving spreads every phase over the whole run, and puts the
    reference's samples of a phase beside the program's, under the same
    state of the host.  Returns the program's phases and the reference's.
    """
    from loadgen import closed_loop, open_loop

    loops = {
        "serve1": lambda to, op, span: closed_loop(
            HOST, to, "paper", bodies, 1, span, op
        ),
        "serve2": lambda to, op, span: closed_loop(
            HOST, to, "paper", bodies, 2, span, op
        ),
        "open": lambda to, op, span: open_loop(
            HOST, to, "paper", bodies, 2, OPEN_RATE, span, op
        ),
    }
    phases = {"warmup": closed_loop(HOST, port, "paper", bodies, 2, WARMUP_S, 0)}
    closed_loop(HOST, reference_port, "paper", bodies, 2, WARMUP_S, 0)
    references = {}
    for name in loops:
        phases[name] = {"samples": [], "chunks": [], "wall_s": 0.0, "valid": True}
        references[name] = {"samples": [], "wall_s": 0.0}
    next_op = 1 + max(sample[0] for sample in phases["warmup"]["samples"])
    rounds = max(1, round(seconds / (len(loops) * (CHUNK_S + REFERENCE_CHUNK_S))))
    for _ in range(rounds):
        for name, run in loops.items():
            reference = run(reference_port, 0, REFERENCE_CHUNK_S)
            if any(sample[5] is None for sample in reference["samples"]):
                raise RuntimeError("the reference server failed a request")
            references[name]["samples"] += reference["samples"]
            references[name]["wall_s"] += reference.get("wall_s", 0.0)
            chunk = run(port, next_op, CHUNK_S)
            samples = chunk["samples"]
            next_op = 1 + max((sample[0] for sample in samples), default=next_op)
            phase = phases[name]
            phase["samples"] += samples
            phase["chunks"].append(chunk)
            phase["wall_s"] += chunk.get("wall_s", 0.0)
            phase["valid"] = phase["valid"] and chunk.get("valid", True)
    return phases, references


def serve_latencies(phase: dict) -> list[float]:
    """Per-request latency from the due time; a failed request never meets
    any limit."""
    return [
        (end - due) if answer is not None else math.inf
        for _, _, due, _, end, answer in phase["samples"]
    ]


def check_phase(name: str, phase: dict, expected: list) -> tuple[int, int, list]:
    problems = []
    wrong = sum(
        1
        for _, query, _, _, _, answer in phase["samples"]
        if answer is not None and answer != expected[query]
    )
    if wrong:
        problems.append(f"{name}: {wrong} served answers differ from kb.query()")
    if name == "open" and not phase["valid"]:
        problems.append(
            f"open: schedule not kept (slowest chunk "
            f"{min(chunk['achieved_rate'] for chunk in phase['chunks']):.1f} "
            f"of {OPEN_RATE:g}/s)"
        )
    failed = sum(1 for sample in phase["samples"] if sample[5] is None)
    return len(phase["samples"]), failed, problems


def measure_serve(ctx) -> None:
    from loadgen import get_json, query_bodies

    from inputs import serve_inputs
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.eval.paper import paper_table

    data = serve_inputs(ctx.seed)
    ctx.dump_inputs(data)
    bodies = query_bodies(data["queries"])
    kb = ProbabilisticKnowledgeBase.from_data(paper_table())
    expected = [kb.query(text) for text in data["queries"]]

    def launch(tag: str) -> tuple[Program, float, bool]:
        program, _, ready_s = start_server(ctx, False, tag)
        return program, ready_s, True

    if not ctx.trace:
        ctx.measure_setups(launch)
    runs = {}
    reference = ReferenceServer()
    try:
        for label in ("untraced", "traced") if ctx.trace else ("untraced",):
            program, port, _ = start_server(ctx, label == "traced", label)
            try:
                phases, references = drive_server(
                    port, reference.port, bodies, ctx.seconds
                )
                stats = get_json(HOST, port, "/kb/paper/stats")
            finally:
                runs[label] = program.finish(60, stop=True)
            runs[label].update(phases=phases, references=references, stats=stats)
            for name, phase in phases.items():
                ctx.account(
                    f"serve {name}", label, *check_phase(name, phase, expected)
                )
    finally:
        reference.stop()
    if ctx.trace:
        ctx.serve_layers(runs)
        return
    report_serve(ctx.report, runs["untraced"])
    ctx.common(runs, "serve1_p50_ms", "open_tail_ms", "serve2_rps")


def report_serve(report: Report, run: dict) -> None:
    """The ``serve`` figures, each scaled by the reference's nominal over
    the reference's figure measured beside it."""
    p = TAIL_P["serve"]

    def figures(phase: dict) -> dict:
        latencies = serve_latencies(phase)
        answered = sum(1 for sample in phase["samples"] if sample[5] is not None)
        return {
            "p50_ms": statistics.median(latencies) * 1e3,
            "tail_ms": percentile(latencies, p) * 1e3,
            "rps": answered / phase["wall_s"] if phase["wall_s"] else 0.0,
            "n": len(latencies),
            "beyond": len(latencies) - math.ceil(p / 100 * len(latencies)),
        }

    for name, stat, metric, unit in (
        ("serve1", "p50_ms", "serve1_p50_ms", "ms"),
        ("serve1", "tail_ms", "serve1_tail_ms", "ms"),
        ("serve2", "rps", "serve2_rps", "1/s"),
        ("serve2", "tail_ms", "serve2_tail_ms", "ms"),
        ("open", "tail_ms", "open_tail_ms", "ms"),
    ):
        program = figures(run["phases"][name])
        reference = figures(run["references"][name])
        nominal = REFERENCE_NOMINAL[metric]
        if unit == "ms":
            value = program[stat] * nominal / reference[stat]
            what = "median" if stat == "p50_ms" else f"p{p:g}"
            beyond = "" if stat == "p50_ms" else (
                f", {program['beyond']} and {reference['beyond']} beyond"
            )
        else:
            value = program[stat] * nominal / reference[stat]
            what, beyond = "answers/s", ""
        report.add(
            metric,
            value,
            unit,
            f"{what} of n={program['n']} requests, scaled by a reference "
            f"{what} of n={reference['n']}{beyond}; measured {program[stat]:.4g}, "
            f"reference {reference[stat]:.4g} (nominal {nominal:g})",
        )
    chunks = run["phases"]["open"]["chunks"]
    lag = [sent - due for chunk in chunks for _, _, due, sent, _, _ in chunk["samples"]]
    report.notes["open_tail_ms"] += (
        f"; {OPEN_RATE:g}/s offered, slowest chunk sent "
        f"{min(chunk['achieved_rate'] for chunk in chunks):.1f}/s, send lag p50 "
        f"{statistics.median(lag) * 1e3:.3f} ms, max {max(lag) * 1e3:.3f} ms"
    )


# -- per-layer metrics ---------------------------------------------------------

LAYER_METRICS = (
    ("maxent.fit_calls", "count"),
    ("maxent.fit_ms", "ms"),
    ("maxent.sweeps", "count"),
    ("maxent.sweeps_per_fit", "count"),
    ("significance.scan_calls", "count"),
    ("significance.scan_ms", "ms"),
    ("significance.cells_tested", "count"),
    ("significance.eval_cell_calls", "count"),
    ("significance.eval_cell_ms", "ms"),
    ("discovery.self_ms", "ms"),
    ("discovery.adoptions", "count"),
    ("data.tally_ms", "ms"),
    ("lifecycle.update_ms", "ms"),
    ("lifecycle.warm_ratio", "ratio"),
    ("store.save_calls", "count"),
    ("store.save_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("api.batch_calls", "count"),
    ("api.batch_us", "us"),
    ("api.cache_hit_ratio", "ratio"),
    ("api.marginal_misses", "count"),
    ("serve.rtt_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.batcher_us", "us"),
    ("serve.pool_us", "us"),
    ("serve.render_us", "us"),
    ("serve.flushes", "count"),
    ("serve.mean_batch", "count"),
    ("serve.coalesced_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
)


def api_metrics(values: dict, tracer, per: float) -> None:
    """``api.*``: ``per`` is the number of operations the calls spread over."""
    calls, seconds = tracer.totals("api.batch")
    hits, misses = tracer.counts["api.hits"], tracer.counts["api.misses"]
    values["api.batch_calls"] = _ratio(calls, per)
    values["api.batch_us"] = _ratio(seconds * 1e6, calls)
    values["api.cache_hit_ratio"] = _ratio(hits, hits + misses)
    values["api.marginal_misses"] = _ratio(misses, calls)


# -- the run -------------------------------------------------------------------


class Context:
    """State of one workload's run: its programs, checks and report."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = ROOT / ".perfbench" / f"work-{os.getpid()}-{workload}"
        self.inputs = self.workdir / "inputs.pkl"
        self.report = Report()
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accounting: list[str] = []
        self.layer_table: list[str] = []
        self.spans: dict = {}
        self.json_metrics: dict = {}

    def dump_inputs(self, data) -> None:
        with open(self.inputs, "wb") as handle:
            pickle.dump(data, handle)

    def account(self, phase, label, attempted, failed, problems) -> None:
        """Record one phase's operation counts and check failures."""
        if label != "untraced":
            phase = f"{phase} ({label})"
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        self.accounting.append(
            f"  {phase:<24} attempted {attempted:>6}  failed {failed:>4}  "
            f"error_rate {_ratio(failed, attempted):.4f}  "
            + (f"{len(problems)} check failures" if problems else "checks ok")
        )

    def measure_setups(self, launch) -> None:
        """``SETUP_RUNS`` set-ups, each stopped once it is ready.

        ``launch(tag)`` starts a program, waits until it is ready for its
        first timed operation and returns ``(program, ready seconds,
        stop)``; the program is then stopped (by a stop line if
        ``stop``).
        """
        for number in range(SETUP_RUNS):
            program, ready_s, stop = launch(f"setup{number}")
            program.finish(60, stop=stop)
            self.setups.append(ready_s)

    def program_runs(self, workload: str) -> dict:
        """Set-ups and the untraced run, or the untraced and traced runs."""
        def launch(tag: str) -> tuple[Program, float, bool]:
            program = Program(self, workload, setup_only=True, tag=tag)
            return program, program.ready_s, False

        if not self.trace:
            self.measure_setups(launch)
        runs = {}
        for label in ("untraced", "traced") if self.trace else ("untraced",):
            program = Program(self, workload, trace=label == "traced", tag=label)
            runs[label] = program.finish(3 * self.seconds + 60)
        return runs

    def common(self, runs: dict, p50: str, tail_name: str, throughput: str) -> None:
        """The metrics every workload reports, and the JSON record's choice."""
        report = self.report
        setups = ", ".join(f"{value:.3f}" for value in self.setups)
        report.add(
            "setup_s",
            statistics.median(self.setups),
            "s",
            f"median of {len(self.setups)} set-ups: {setups}",
        )
        report.add(
            "peak_rss_mb", runs["untraced"]["peak_rss_mb"], "MB", "program process"
        )
        report.add(
            "error_rate",
            _ratio(self.failed, self.attempted),
            "ratio",
            f"{self.failed} of {self.attempted} operations failed",
        )
        metrics = report.metrics
        self.json_metrics = {
            "op_p50_ms": metrics[p50],
            "op_tail_ms": metrics[tail_name],
            "throughput_per_s": metrics[throughput],
            "setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
        }

    # -- traced runs -----------------------------------------------------------

    def layers(self, runs: dict, op_times) -> None:
        """Per-layer metrics of a discover or stream run, per operation."""
        from tracing import Tracer

        traced = runs["traced"]
        tracer = Tracer.from_export(traced["trace"])
        self.spans = traced["trace"]
        untraced_ops, traced_ops = op_times(runs["untraced"]), op_times(traced)
        ops = len(traced_ops)
        counts = tracer.counts
        values = dict.fromkeys((name for name, _ in LAYER_METRICS), 0.0)

        def per_op(*names: str) -> tuple[float, float]:
            """(calls, milliseconds) per operation in spans called ``names``."""
            calls, seconds = map(sum, zip(*(tracer.totals(name) for name in names)))
            return calls / ops, seconds * 1e3 / ops

        fit_calls, values["maxent.fit_ms"] = per_op("maxent.fit_ipf")
        values["maxent.fit_calls"] = fit_calls
        values["maxent.sweeps"] = counts["maxent.sweeps"] / ops
        values["maxent.sweeps_per_fit"] = _ratio(
            counts["maxent.sweeps"], fit_calls * ops
        )
        values["significance.scan_calls"], values["significance.scan_ms"] = per_op(
            "significance.scan"
        )
        values["significance.cells_tested"] = counts["significance.cells_tested"] / ops
        (
            values["significance.eval_cell_calls"],
            values["significance.eval_cell_ms"],
        ) = per_op("significance.evaluate_cell")
        values["discovery.adoptions"] = counts["discovery.adoptions"] / ops
        values["data.tally_ms"] = per_op(
            "data.merge", "data.snapshot", "data.add_sample"
        )[1]
        values["lifecycle.update_ms"] = per_op("lifecycle.update")[1]
        values["lifecycle.warm_ratio"] = _ratio(
            counts["lifecycle.warm"], counts["lifecycle.revisions"]
        )
        values["store.save_calls"], values["store.save_ms"] = per_op("store.save")
        sizes = [op["artifact_bytes"] for op in traced["ops"] if "artifact_bytes" in op]
        values["store.artifact_bytes"] = statistics.mean(sizes) if sizes else 0.0
        api_metrics(values, tracer, ops)

        layers: dict = {}
        for op, per_layer in tracer.layer_self_by_op().items():
            if op is not None:
                for layer, seconds in per_layer.items():
                    layers[layer] = layers.get(layer, 0.0) + seconds / ops
        values["discovery.self_ms"] = layers.get("discovery", 0.0) * 1e3
        self._publish(values, untraced_ops, traced_ops)
        self.layer_table = [
            f"  {layer:<14} {seconds * 1e3:>10.3f} ms/op"
            for layer, seconds in sorted(layers.items(), key=lambda item: -item[1])
        ]
        harness = layers.get("bench", 0.0)
        self._accounting(
            sum(layers.values()) - harness, harness, untraced_ops, traced_ops
        )

    def serve_layers(self, runs: dict) -> None:
        """Per-layer metrics of the serve run, per served request.

        The request's path crosses threads (the pool runs on executor
        threads, one flush serving several requests), so self times come
        from per-request means: the pool's time is shared out over the
        requests, and the batcher's self time is its wait minus that
        share.
        """
        from tracing import Tracer

        traced = runs["traced"]
        tracer = Tracer.from_export(traced["trace"])
        # The load generator's requests, as spans without a parent.
        client = [
            (None, None, op, "client.request", sent, end)
            for phase in traced["phases"].values()
            for op, _, _, sent, end, _ in phase["samples"]
        ]
        self.spans = dict(traced["trace"], spans=traced["trace"]["spans"] + client)
        values = dict.fromkeys((name for name, _ in LAYER_METRICS), 0.0)

        def rtts(run) -> list[float]:
            """Send-to-answer time of every request the server answered."""
            return [
                end - sent
                for phase in run["phases"].values()
                for _, _, _, sent, end, answer in phase["samples"]
                if answer is not None
            ]

        traced_rtts = rtts(traced)
        requests, handle_s = tracer.totals("serve.handle")
        submit_calls, submit_s = tracer.totals("serve.submit")
        pool_calls, pool_s = tracer.totals("serve.pool_run")
        render_calls, render_s = tracer.totals("serve.render")
        batch_s = tracer.totals("api.batch")[1]
        rtt = statistics.mean(traced_rtts)
        handle = _ratio(handle_s, requests)
        render = _ratio(render_s, render_calls)
        values["serve.rtt_us"] = rtt * 1e6
        values["serve.handle_us"] = handle * 1e6
        values["serve.transport_us"] = (rtt - handle) * 1e6
        values["serve.batcher_us"] = _ratio(submit_s, submit_calls) * 1e6
        values["serve.pool_us"] = _ratio(pool_s, pool_calls) * 1e6
        values["serve.render_us"] = render * 1e6
        batcher = traced["stats"]["batcher"]
        values["serve.flushes"] = batcher["flushes"]
        values["serve.mean_batch"] = batcher["mean_batch"]
        values["serve.coalesced_ratio"] = _ratio(
            batcher["coalesced_flushes"], batcher["flushes"]
        )
        api_metrics(values, tracer, requests)
        untraced_rtts = rtts(runs["untraced"])
        self._publish(values, untraced_rtts, traced_rtts)
        pool_share = _ratio(pool_s, requests)
        batch_share = _ratio(batch_s, requests)
        selfs = {
            "transport": rtt - handle - render,
            "render": render,
            "app": handle - _ratio(submit_s, requests),
            "batcher": _ratio(submit_s, requests) - pool_share,
            "pool": pool_share - batch_share,
            "api": batch_share,
        }
        self.layer_table = [
            f"  serve.{layer:<10} {seconds * 1e6:>10.1f} us/request"
            for layer, seconds in selfs.items()
        ]
        self._accounting(sum(selfs.values()), 0.0, untraced_rtts, traced_rtts)

    def _publish(self, values: dict, untraced: list, traced: list) -> None:
        base = statistics.mean(untraced)
        values["trace.overhead_pct"] = (statistics.mean(traced) - base) / base * 100
        for name, unit in LAYER_METRICS:
            self.report.add(name, values[name], unit)

    def _accounting(self, layers_s, harness_s, untraced: list, traced: list) -> None:
        """Do the layer self times account for the untraced operation time?"""
        base = statistics.mean(untraced)
        overhead = statistics.mean(traced) - base
        within = abs(layers_s - base) <= abs(overhead) + 0.02 * base
        self.accounting += [
            f"  per operation: untraced {base * 1e3:.3f} ms, traced "
            f"{(base + overhead) * 1e3:.3f} ms, tracing overhead "
            f"{overhead * 1e3:+.3f} ms ({overhead / base * 100:+.2f}%)",
            f"  layer self times sum to {layers_s * 1e3:.3f} ms (harness "
            f"{harness_s * 1e3:.3f} ms): "
            + ("within" if within else "NOT within")
            + " the untraced time plus the overhead",
        ]

    # -- output ----------------------------------------------------------------

    def result(self) -> dict:
        if self.trace:
            metrics = {name: self.report.metrics[name] for name, _ in LAYER_METRICS}
        else:
            metrics = self.json_metrics
        return {
            "correct": not self.problems and self.attempted > self.failed,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def print(self) -> None:
        print(
            f"perfbench {self.workload}: seed {self.seed}, {self.seconds:g} s, "
            f"trace {int(self.trace)}"
        )
        print("operations:")
        print("\n".join(self.accounting))
        for problem in self.problems[:20]:
            print(f"  CHECK FAILED: {problem}")
        print("metrics:")
        print("\n".join(self.report.lines()))
        if self.layer_table:
            print("layer self time:")
            print("\n".join(self.layer_table))


def run_record(seed: int) -> dict:
    """Where and on what the run was made."""
    import numpy

    commit = "unknown"  # a checkout need not be a git repository
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


#: Metrics every workload reports; ``--workload all`` prefixes them.
SHARED = ("setup_s", "peak_rss_mb", "error_rate")

MEASURE = {
    "discover": measure_discover,
    "stream": measure_stream,
    "serve": measure_serve,
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record):
    """Measure one workload; write its record (and spans) to ``.perfbench/``."""
    ctx = Context(workload, seed, seconds, trace)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        MEASURE[workload](ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    document = {
        "record": record,
        "workload": workload,
        "trace": trace,
        "result": ctx.result(),
        "report": ctx.report.metrics,
        "notes": ctx.report.notes,
    }
    if trace:
        document["spans"] = ctx.spans
    kind = "trace" if trace else "metrics"
    with open(ROOT / ".perfbench" / f"{workload}-seed{seed}-{kind}.json", "w") as out:
        json.dump(document, out)
    return ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*MEASURE, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    record = run_record(args.seed)
    print("run record: " + ", ".join(f"{key} {value}" for key, value in record.items()))
    workloads = list(MEASURE) if args.workload == "all" else [args.workload]
    contexts = []
    for workload in workloads:
        ctx = run_workload(workload, args.seed, args.seconds, bool(args.trace), record)
        ctx.print()
        contexts.append(ctx)
    if len(contexts) == 1:
        result = contexts[0].result()
    else:
        result = {
            "correct": all(ctx.result()["correct"] for ctx in contexts),
            "attempted": sum(ctx.attempted for ctx in contexts),
            "failed": sum(ctx.failed for ctx in contexts),
            "metrics": {
                (f"{ctx.workload}.{name}" if name in SHARED else name): metric
                for ctx in contexts
                for name, metric in ctx.report.metrics.items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
