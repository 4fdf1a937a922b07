"""Seeded inputs for each workload, and the oracles outputs are checked against.

Everything here runs in the benchmark process, outside every timed
region: the program under test receives only the tables, batches and
queries built here.  ``repro.synth`` and ``repro.scenarios`` are used to
generate inputs only.
"""

from __future__ import annotations

import numpy as np

#: Discovery worlds: scenario name -> tables in the list.  Each world's
#: planted structure is the scenario's own (built from its registered
#: seed); the benchmark seed draws the samples.  What a discovery costs
#: varies from sample to sample most in the deep order-5 world (37 to
#: 51 adoptions at 40,000 samples), so it gets the most tables, which
#: keeps the median of a run steady across seeds.
DISCOVER_WORLDS = (
    ("stress-wide-16", 1),
    ("stress-order5", 8),
    ("stress-wide-order3", 1),
)
DISCOVER_SAMPLES = 40_000

#: Streaming: the first window a live knowledge base is fitted on, the
#: batch size (equal to ``UpdatePolicy.every_n``, so every batch triggers
#: one revision), and the batches per episode.  Each episode restarts
#: from a first window, so the cost of a revision does not drift with
#: the length of the run.  Episodes cycle through several streams (a
#: first window and its batches each), because how many constraints a
#: window supports, and so what a revision costs, varies from sample to
#: sample.
STREAM_INITIAL = 40_000
STREAM_BATCH = 4_000
STREAM_BATCHES = 20
STREAM_COUNT = 3
STREAM_MAX_ORDER = 3

QUERY_COUNT = 24


def discover_inputs(seed: int) -> dict:
    """The table list a discover run cycles through, worlds interleaved."""
    from repro.scenarios import get_scenario

    rng = np.random.default_rng([seed, 0])
    per_world = []
    for name, copies in DISCOVER_WORLDS:
        scenario = get_scenario(name)
        population = scenario.builder(
            np.random.default_rng(scenario.seed), 1
        ).population
        per_world.append(
            [
                (name, scenario.max_order, population.sample_table(
                    DISCOVER_SAMPLES, rng
                ))
                for _ in range(copies)
            ]
        )
    # Round-robin over the worlds, so a pass interleaves them.
    tables = []
    while any(per_world):
        for world in per_world:
            if world:
                tables.append(world.pop(0))
    return {"tables": tables}


def discover_oracle(tables: list) -> list:
    """Adopted constraint keys of a reference-scan run on each table."""
    from repro.discovery import DiscoveryConfig, DiscoveryEngine

    keys = []
    for _, max_order, table in tables:
        engine = DiscoveryEngine(
            DiscoveryConfig(max_order=max_order), scan_backend="reference"
        )
        result = engine.run(table)
        keys.append([cell.key for cell in result.constraints.cells])
    return keys


def stream_inputs(seed: int) -> dict:
    """The streams (first window and batches) and the fixed query batch."""
    from repro.synth import medical_survey_population

    population = medical_survey_population()
    rng = np.random.default_rng([seed, 1])
    def batch() -> list[tuple]:
        rows = population.sample(STREAM_BATCH, rng).rows.tolist()
        return [tuple(row) for row in rows]

    streams = [
        {
            "initial": population.sample_table(STREAM_INITIAL, rng),
            "batches": [batch() for _ in range(STREAM_BATCHES)],
        }
        for _ in range(STREAM_COUNT)
    ]
    return {
        "streams": streams,
        "queries": queries(population.schema, rng, min_given=1),
    }


def serve_inputs(seed: int) -> dict:
    """The query mix served against the paper knowledge base."""
    from repro.eval.paper import paper_schema

    rng = np.random.default_rng([seed, 2])
    return {"queries": queries(paper_schema(), rng, min_given=0)}


def queries(schema, rng: np.random.Generator, min_given: int) -> list[str]:
    """``QUERY_COUNT`` distinct ``"A=x | B=y, C=z"`` probability queries."""
    names = list(schema.names)
    found: list[str] = []
    for _ in range(100 * QUERY_COUNT):
        if len(found) == QUERY_COUNT:
            break
        order = rng.permutation(len(names)).tolist()
        given_count = int(rng.integers(min_given, 3))
        text = _term(schema, names[order[0]], rng)
        given = sorted(order[1 : 1 + given_count])
        if given:
            text += " | " + ", ".join(
                _term(schema, names[index], rng) for index in given
            )
        if text not in found:
            found.append(text)
    return found


def _term(schema, name: str, rng: np.random.Generator) -> str:
    attribute = schema.attribute(name)
    return f"{name}={attribute.values[int(rng.integers(attribute.cardinality))]}"
