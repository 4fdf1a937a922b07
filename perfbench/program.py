"""The program side of one workload, run in a process of its own.

``run.py`` starts this script, times it from spawn until it reports
ready (``setup_s``), and reads its results file when it exits::

    python3 perfbench/program.py --workload discover --inputs IN.pkl \
        --out OUT.pkl --workdir DIR --seconds 15 [--trace] [--setup-only]

Protocol: after set-up the process prints ``ready`` (``ready PORT`` for
``serve``) on stdout.  ``discover`` and ``stream`` then run their timed
loop and exit; ``serve`` hosts the paper knowledge base until a line
arrives on stdin.  With ``--setup-only`` the process stops right after
set-up.  The results file holds every operation's timing and output
summary, the reference kernel passes run before each operation and
after the last (``hostspeed.py``), the peak resident memory of this process,
and (with ``--trace``) the recorded spans.

Correctness checks that need the live objects run here, with the clock
stopped and tracing paused; checks against oracles run in ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import resource
import sys
import time

import hostspeed
from tracing import Tracer

_clock = time.perf_counter


def _ready(extra: str = "") -> None:
    sys.stdout.write(f"ready{extra}\n")
    sys.stdout.flush()


def kernel_pass(passes: list) -> None:
    """Time one reference kernel pass, outside every timed region."""
    passes.append((_clock(), hostspeed.kernel_s()))


# -- tracing -------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads run."""
    from repro.api.session import QuerySession
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.data.streaming import TableBuilder
    from repro.discovery import engine as engine_module
    from repro.lifecycle import LiveKnowledgeBase
    from repro.serve import server as server_module
    from repro.serve.app import ServeApp
    from repro.serve.batcher import MicroBatcher
    from repro.serve.pool import SessionPool
    from repro.significance.kernels import OrderScanKernel
    from repro.store import KBStore

    def count_sweeps(counts, fit, args, before):
        counts["maxent.sweeps"] += fit.sweeps

    def count_cells(counts, tests, args, before):
        counts["significance.cells_tested"] += len(tests)

    def count_adoptions(counts, result, args, before):
        counts["discovery.adoptions"] += len(result.constraints.cells)

    def count_revision(counts, revision, args, before):
        counts["lifecycle.revisions"] += 1
        counts["lifecycle.warm"] += revision.mode == "warm"

    def cache_before(args):
        info = args[0].cache_info()
        return info["hits"], info["misses"]

    def count_cache(counts, answers, args, before):
        info = args[0].cache_info()
        counts["api.hits"] += info["hits"] - before[0]
        counts["api.misses"] += info["misses"] - before[1]

    def op_from_header(args):
        op = args[1].headers.get("x-bench-op")
        tracer.set_op(int(op) if op is not None else None)

    wrap = tracer.wrap
    wrap(engine_module, "fit_ipf", "maxent.fit_ipf", count=count_sweeps)
    wrap(OrderScanKernel, "scan", "significance.scan", count=count_cells)
    wrap(engine_module, "evaluate_cell", "significance.evaluate_cell")
    for method in ("run", "rerun"):
        wrap(
            engine_module.DiscoveryEngine,
            method,
            f"discovery.{method}",
            count=count_adoptions,
        )
    wrap(TableBuilder, "merge", "data.merge")
    wrap(TableBuilder, "snapshot", "data.snapshot")
    tracer.wrap_aggregated(TableBuilder, "add_sample", "data.add_sample")
    wrap(LiveKnowledgeBase, "observe_batch", "lifecycle.observe_batch")
    wrap(
        ProbabilisticKnowledgeBase,
        "update",
        "lifecycle.update",
        count=count_revision,
    )
    wrap(KBStore, "save", "store.save")
    wrap(
        QuerySession,
        "batch",
        "api.batch",
        before=cache_before,
        count=count_cache,
    )
    wrap(ServeApp, "handle", "serve.handle", before=op_from_header)
    wrap(MicroBatcher, "submit", "serve.submit")
    wrap(SessionPool, "run", "serve.pool_run")
    # The server calls the name it imported, so that is the one to wrap.
    wrap(server_module, "render_response", "serve.render")


def span(tracer: Tracer | None, name: str):
    """The benchmark's own span around one timed operation."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


@contextlib.contextmanager
def untraced(tracer: Tracer | None):
    """Pause tracing around benchmark bookkeeping and checks."""
    if tracer is not None:
        tracer.paused = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.paused = False


# -- discover ------------------------------------------------------------------


def max_violation(result) -> float:
    """Largest gap between the fitted model and any constraint target."""
    constraints = result.constraints
    model = result.model
    schema = model.schema
    joint = model.joint()
    worst = 0.0
    for axis, name in enumerate(schema.names):
        others = tuple(a for a in range(len(schema)) if a != axis)
        margin = joint.sum(axis=others)
        worst = max(worst, float(abs(margin - constraints.margin(name)).max()))
    for cell in constraints.cells:
        index = [slice(None)] * len(schema)
        for name, value in zip(cell.attributes, cell.values):
            index[schema.axis(name)] = value
        worst = max(worst, abs(float(joint[tuple(index)].sum()) - cell.probability))
    return worst


def run_discover(args, inputs, tracer) -> dict:
    from repro.discovery import DiscoveryConfig, DiscoveryEngine

    configs = {
        max_order: DiscoveryConfig(max_order=max_order)
        for _, max_order, _ in inputs["tables"]
    }
    _ready()
    if args.setup_only:
        return {}
    ops = []
    passes: list = []
    started = _clock()
    tables = inputs["tables"]
    # Every table once, then on through the list until the time is up.
    while len(ops) < len(tables) or _clock() - started < args.seconds:
        index = len(ops) % len(tables)
        _, max_order, table = tables[index]
        record = {"table": index}
        config = configs[max_order]
        if tracer is not None:
            tracer.set_op(len(ops))
        kernel_pass(passes)
        try:
            begin = record["start"] = _clock()
            with span(tracer, "bench.discover"):
                result = DiscoveryEngine(config).run(table)
            record["end"] = _clock()
            record["seconds"] = record["end"] - begin
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            record["error"] = repr(error)
        else:
            record["keys"] = [cell.key for cell in result.constraints.cells]
            record["violation"] = max_violation(result)
            record["tol"] = config.tol
        ops.append(record)
    kernel_pass(passes)
    return {"ops": ops, "kernels": passes}


# -- stream --------------------------------------------------------------------


class _Episode:
    """A live knowledge base bound to a fresh store, with one open session."""

    def __init__(self, kb, workdir: str, number: int):
        from repro.lifecycle import LiveKnowledgeBase, UpdatePolicy
        from repro.store import KBStore

        from inputs import STREAM_BATCH

        self.path = os.path.join(workdir, f"episode-{number}.db")
        self.store = KBStore(self.path)
        self.live = LiveKnowledgeBase(kb, policy=UpdatePolicy(every_n=STREAM_BATCH))
        self.live.bind_store(self.store, "medical")
        self.session = self.live.session()

    def close(self) -> None:
        self.session.close()
        self.store.close()
        os.remove(self.path)


def check_revision(episode: _Episode, queries: list, answers: list) -> dict:
    """Fresh-session answers and the persisted fingerprint, untimed."""
    from repro.core.serialization import canonical_bytes

    live = episode.live
    with live.session() as fresh:
        same_answers = fresh.batch(queries) == answers
    loaded = episode.store.load("medical")
    sha = episode.store.describe("medical").latest_artifact
    return {
        "answers_match": same_answers,
        "fingerprint_match": (
            loaded.model.fingerprint() == live.kb.model.fingerprint()
        ),
        "artifact_bytes": len(canonical_bytes(episode.store.artifact(sha))),
    }


def run_stream(args, inputs, tracer) -> dict:
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.discovery import DiscoveryConfig

    from inputs import STREAM_MAX_ORDER

    config = DiscoveryConfig(max_order=STREAM_MAX_ORDER)
    streams = inputs["streams"]
    with untraced(tracer):
        kb = ProbabilisticKnowledgeBase.from_data(streams[0]["initial"], config)
        episode = _Episode(kb, args.workdir, 0)
    _ready()
    if args.setup_only:
        episode.close()
        return {}
    with untraced(tracer):
        first_windows = [kb.to_dict()] + [
            ProbabilisticKnowledgeBase.from_data(stream["initial"], config).to_dict()
            for stream in streams[1:]
        ]
    queries = inputs["queries"]
    ops = []
    passes: list = []
    started = _clock()
    number = 0
    # Whole rounds of episodes, one per stream, so every batch of every
    # stream runs equally often.
    while not ops or number % len(streams) or _clock() - started < args.seconds:
        which = number % len(streams)
        if number:
            with untraced(tracer):
                kb = ProbabilisticKnowledgeBase.from_dict(first_windows[which])
                episode = _Episode(kb, args.workdir, number)
        for index, batch in enumerate(streams[which]["batches"]):
            record = {"batch": (which, index), "samples": len(batch)}
            if tracer is not None:
                tracer.set_op(len(ops))
            kernel_pass(passes)
            try:
                begin = record["start"] = _clock()
                with span(tracer, "bench.revision"):
                    revision = episode.live.observe_batch(batch)
                middle = _clock()
                with span(tracer, "bench.fresh_batch"):
                    answers = episode.session.batch(queries)
                end = _clock()
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                record["error"] = repr(error)
                ops.append(record)
                break
            record["revision_s"] = middle - begin
            record["fresh_s"] = end - middle
            record["end"] = end
            record["mode"] = revision.mode if revision is not None else None
            with untraced(tracer):
                record.update(check_revision(episode, queries, answers))
            ops.append(record)
        with untraced(tracer):
            episode.close()
        number += 1
    kernel_pass(passes)
    return {"ops": ops, "kernels": passes}


# -- serve ---------------------------------------------------------------------


def run_serve(args, inputs, tracer) -> dict:
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.eval.paper import paper_table
    from repro.serve import ServeConfig, serve_in_thread

    with untraced(tracer):
        kb = ProbabilisticKnowledgeBase.from_data(paper_table())
        handle = serve_in_thread({"paper": kb}, config=ServeConfig())
    try:
        _ready(f" {handle.port}")
        sys.stdin.readline()
    finally:
        handle.stop()
    return {}


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` would also count the parent's memory at ``fork``, which
    Linux carries across ``exec``; ``VmHWM`` belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"discover": run_discover, "stream": run_stream, "serve": run_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(args.inputs, "rb") as handle:
        inputs = pickle.load(handle)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    result = WORKLOADS[args.workload](args, inputs, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.export()
    with open(args.out, "wb") as handle:
        pickle.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
