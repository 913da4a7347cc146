"""Per-layer measurements for the traced run.

Every traced run, whatever its workload, measures the same layers on the
same inputs, each call inside a span, so that every per-layer metric is
measured in every traced run. The calls are those of the workloads, a
census over two chunks of the 2^25 unpruned n = 5 codes (the path of
`rellaws census --n 5`, whose tally is timed), and single-layer probes on
one fixed 2^18-code chunk. Values come from the span durations;
`census.tally_s` (a self time) and `mining.explicit_levels_s` are derived
by subtraction.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import numpy as np

import rellaws.census as census_module
from rellaws import (PropertyId, Relation, find_witness, holds, min_universe, mine,
                     property_vector, star_redundant, vector_census)
from rellaws.census import bulk_holds, bulk_vectors, matrices_from_codes
from rellaws.enumeration import DEFAULT_CHUNK, iter_code_chunks

from spans import Tracer
from workloads import (EXHAUSTIVE_LAWS, MIN_UNIVERSE_MAX_N, N, cube_query,
                       heuristic_queries, published_laws)

PROBE_CHUNK = 64
# the census whose tally is timed
TALLY_CHUNKS = (64, 65)
# single-chunk probes are repeated and the fastest repeat kept
PROBE_REPEATS = 3
SCALAR_RELATIONS = 200


@contextmanager
def only_chunks(chunk_ids):
    """Restrict the code stream of `vector_census` to the chosen chunks.

    `vector_census` looks `iter_code_chunks` up in the census module when it
    is called, so the real census runs, from the program's own enumeration,
    on the chosen chunks only.
    """
    full_stream = census_module.iter_code_chunks
    wanted = set(chunk_ids)

    def stream(n, pruned=False, chunk_size=DEFAULT_CHUNK):
        for index, chunk in enumerate(full_stream(n, pruned, chunk_size)):
            if index in wanted:
                yield chunk

    census_module.iter_code_chunks = stream
    try:
        yield
    finally:
        census_module.iter_code_chunks = full_stream


def chunk_codes(chunk_ids) -> np.ndarray:
    return np.concatenate([np.arange(i * DEFAULT_CHUNK, (i + 1) * DEFAULT_CHUNK,
                                     dtype=np.uint64) for i in chunk_ids])


@contextmanager
def spans_inside_census(span):
    """Spans inside `vector_census`: around each draw from its code stream and
    each `bulk_vectors` call, both looked up in the census module when the
    census runs. The census span's self time is then the tally."""
    stream, kernels = census_module.iter_code_chunks, census_module.bulk_vectors

    def timed_stream(*args, **kwargs):
        chunks = stream(*args, **kwargs)
        while True:
            with span("census.chunk_census.code_stream"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk

    def timed_kernels(*args, **kwargs):
        with span("census.chunk_census.bulk_vectors"):
            return kernels(*args, **kwargs)

    census_module.iter_code_chunks, census_module.bulk_vectors = timed_stream, timed_kernels
    try:
        yield
    finally:
        census_module.iter_code_chunks, census_module.bulk_vectors = stream, kernels


def _drain(pruned: bool) -> int:
    return sum(chunk.size for chunk in iter_code_chunks(N, pruned))


def measure_layers(seed: int, body: Tracer) -> tuple[dict[str, float], Tracer]:
    """Per-layer metrics, and the spans measured here to get them.

    `body` holds the spans of the workload's traced round.
    """
    tracer = Tracer(True)
    span = tracer.span
    with span("enumeration.normal_codes"):
        _drain(True)
    with span("enumeration.all_codes"):
        _drain(False)

    codes = chunk_codes([PROBE_CHUNK])
    for _ in range(PROBE_REPEATS):
        with span("census.decode"):
            matrices_from_codes(codes, N)
        for p in PropertyId:
            with span(f"census.kernel.{p.name}"):
                bulk_holds(codes, N, [p])
        with span("census.bulk_vectors"):
            bulk_vectors(codes, N)

    with span("census.pruned_census"):
        census = vector_census(N, pruned=True)
    with only_chunks(TALLY_CHUNKS), spans_inside_census(span), span("census.chunk_census"):
        vector_census(N, pruned=False)

    with span("mining.bitset_levels"):
        mine(census, max_level=2)

    # the catalogue and witness rounds make these calls on the same inputs;
    # in their traced runs the body's spans time them
    body_totals = body.totals()
    if "mining.mine" not in body_totals:
        with span("mining.mine"):
            result = mine(census, max_level=24)
        with span("redundancy.star_redundant"):
            star_redundant(result.laws)
    if "search.exhaustive" not in body_totals:
        laws = published_laws()
        for seq in EXHAUSTIVE_LAWS:
            with span("search.exhaustive"):
                find_witness(N, cube_query(laws[seq - 1]))
        for imp in laws:
            with span("search.min_universe"):
                min_universe(cube_query(imp), MIN_UNIVERSE_MAX_N)
        for n, query, search_seed in heuristic_queries(seed):
            with span("search.heuristic"):
                find_witness(n, query, "heuristic", seed=search_seed)

    rng = random.Random(seed)
    for n in (5, 8):
        relations = [Relation(n, tuple(rng.getrandbits(n) for _ in range(n)))
                     for _ in range(SCALAR_RELATIONS)]
        with span(f"properties.property_vector.n{n}"):
            for r in relations:
                property_vector(r)
        with span(f"properties.holds.n{n}"):
            for r in relations:
                for p in PropertyId:
                    holds(r, p)

    t = {**body_totals, **tracer.totals()}
    fastest = {}
    for name, start, end, _ in tracer.spans:
        fastest[name] = min(fastest.get(name, end - start), end - start)
    decode_s = fastest["census.decode"]
    metrics = {
        "enumeration.normal_codes_s": t["enumeration.normal_codes"],
        "enumeration.all_codes_s": t["enumeration.all_codes"],
        "census.decode_ms": decode_s * 1e3,
        "census.bulk_vectors_ms": fastest["census.bulk_vectors"] * 1e3,
        "census.pruned_census_s": t["census.pruned_census"],
        # derived: the census less its enumeration and its bulk_vectors calls
        "census.tally_s": tracer.self_times()["census.chunk_census"],
        "mining.bitset_levels_s": t["mining.bitset_levels"],
        "mining.mine_s": t["mining.mine"],
        # derived: levels 3 and up, on the explicit on-list path
        "mining.explicit_levels_s": t["mining.mine"] - t["mining.bitset_levels"],
        "redundancy.star_s": t["redundancy.star_redundant"],
        "search.exhaustive_s": t["search.exhaustive"],
        "search.min_universe_s": t["search.min_universe"],
        "search.heuristic_s": t["search.heuristic"],
    }
    for p in PropertyId:
        # derived: bulk_holds of one property less the decode it starts with
        metrics[f"census.kernel.{p.name}_ms"] = (fastest[f"census.kernel.{p.name}"] - decode_s) * 1e3
    for n in (5, 8):
        metrics[f"properties.property_vector_us.n{n}"] = (
            t[f"properties.property_vector.n{n}"] / SCALAR_RELATIONS * 1e6)
        metrics[f"properties.holds_us.n{n}"] = (
            t[f"properties.holds.n{n}"] / (SCALAR_RELATIONS * len(PropertyId)) * 1e6)
    return metrics, tracer
