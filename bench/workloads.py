"""The benchmark's workloads: inputs made from the seed, one timed round
of operations, and the checks of every operation's output.

* catalogue: the paper's pipeline. The n = 5 normal-form census (three
  times, for a steady census rate), the full mine, then the redundancy
  flags of the 274 laws. Mining takes most of the time, so a change to the
  miner shows here and nowhere else.
* witness: exhaustive n = 5 scans of published law cubes, `min_universe`
  up to n = 4 for every level 2 and 3 law, and heuristic searches at
  n = 5..8 for queries drawn from random relations. The kernels run 2-3
  properties per scan here, and heuristic scoring runs the scalar path.

An operation is one call into the program whose output is checked: one
census, one mine, one star pass, or one witness query.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import product

import numpy as np

from naive import NAIVE
from rellaws import (LiteralConjunction, PropertyId, find_witness, golden,
                     min_universe, mine, star_redundant, vector_census)
from rellaws.enumeration import iter_code_chunks
from rellaws.mining import Implicant, parse_law_text

import checks
from oracle import oracle_tally, oracle_vectors

N = 5
NORMAL_FORMS = golden.PRUNED_COUNTS[N]

# catalogue: censuses per round; their median time gives rel_per_s
CATALOGUE_CENSUSES = 3

# witness: published laws whose n = 5 cube scans span the kernels, from
# the cheapest (Irrefl, Refl) to SemiOrd2, the costliest
EXHAUSTIVE_LAWS = (46, 129, 162, 71)
MIN_UNIVERSE_MAX_N = 4
HEURISTIC_LITERALS = 3
# (n, shape of the random relation) per heuristic query, cycled. Strictly
# upper relations and partial orders are drawn only for n <= 6: at n = 7
# and 8 the heuristic search gives up on some queries read off them
HEURISTIC_KINDS = [(n, shape) for n in (5, 6) for shape in range(4)] + [
    (n, shape) for n in (7, 8) for shape in range(2)]
HEURISTIC_QUERIES = 5 * len(HEURISTIC_KINDS)

# codes checked against tests/naive.py in every run, per universe size
ORACLE_SAMPLE = 64


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def cube_query(imp: Implicant) -> LiteralConjunction:
    """The conjunction of a law's literals: its witnesses are its counterexamples."""
    lits = imp.literals()
    return LiteralConjunction(frozenset(p for p, s in lits if s),
                              frozenset(p for p, s in lits if not s))


def published_laws() -> list[Implicant]:
    return [parse_law_text(t) for t in golden.LAW_TEXTS_LEVEL2 + golden.LAW_TEXTS_LEVEL3]


def checked_oracle_vectors(codes: np.ndarray, n: int, rng: random.Random,
                           problems: list[str], sample: int = ORACLE_SAMPLE) -> np.ndarray:
    """Oracle vectors of the codes; a sample is checked against tests/naive.py."""
    vectors = oracle_vectors(codes, n)
    pick = np.array(sorted(rng.sample(range(codes.size), min(sample, codes.size))))
    problems += checks.oracle_sample_problems(codes[pick], n, vectors[pick])
    return vectors


class Catalogue:
    name = "catalogue"

    def __init__(self, seed: int):
        self.seed = seed
        # star_redundant weighs each law against all others, so its flags
        # must not depend on the order it is given the laws in
        self.order = random.Random(seed).sample(range(golden.TOTAL_LAWS), golden.TOTAL_LAWS)

    def round(self, tracer):
        start = time.perf_counter()
        censuses, census_s = [], []
        for _ in range(CATALOGUE_CENSUSES):
            began = time.perf_counter()
            with tracer.span("census.vector_census"):
                censuses.append(vector_census(N, pruned=True))
            census_s.append(_elapsed(began))
        census = censuses[-1]
        with tracer.span("mining.mine"):
            result = mine(census, max_level=24)
        order = self.order if len(result.laws) == len(self.order) else range(len(result.laws))
        laws = [result.laws[i] for i in order]
        with tracer.span("redundancy.star_redundant"):
            flags = star_redundant(laws)
        wall = _elapsed(start)
        return ((censuses, result, laws, flags),
                {"wall_s": wall, "rel_per_s": NORMAL_FORMS / statistics.median(census_s)})

    def check(self, outputs) -> list[list[str]]:
        censuses, result, laws, flags = outputs
        problems: list[str] = []
        codes = np.concatenate(list(iter_code_chunks(N, pruned=True)))
        tally = oracle_tally(codes, N)
        checked_oracle_vectors(codes, N, random.Random(self.seed), problems)
        occupied = np.array(sorted(tally), dtype=np.uint32)
        expected = checks.coverage_flags([law.implicant for law in laws])
        return [checks.check_pruned_census(census, tally) + problems for census in censuses] + [
                checks.check_catalogue(result, occupied),
                checks.check_star(flags, expected)]


def _random_relation_pairs(rng: random.Random, n: int, shape: int) -> set:
    """A random relation: plain, symmetric, strictly upper, or the transitive
    closure of a reflexive upper one (a partial order)."""
    density = rng.random()
    pairs = {(x, y) for x, y in product(range(n), repeat=2) if rng.random() < density}
    if shape == 1:
        pairs |= {(y, x) for x, y in pairs}
    elif shape == 2:
        pairs = {(x, y) for x, y in pairs if x < y}
    elif shape == 3:
        pairs = {(x, y) for x, y in pairs if x <= y}
        for z, x, y in product(range(n), repeat=3):
            if (x, z) in pairs and (z, y) in pairs:
                pairs.add((x, y))
    return pairs


def heuristic_queries(seed: int) -> list[tuple[int, LiteralConjunction, int]]:
    """(n, query, search seed) triples. Each query is a few literals read off
    a random relation by tests/naive.py, so it has a witness by construction."""
    rng = random.Random(seed)
    queries = []
    for i in range(HEURISTIC_QUERIES):
        n, shape = HEURISTIC_KINDS[i % len(HEURISTIC_KINDS)]
        pairs = _random_relation_pairs(rng, n, shape)
        props = rng.sample(list(PropertyId), HEURISTIC_LITERALS)
        truth = {p: NAIVE[p](n, pairs) for p in props}
        query = LiteralConjunction(frozenset(p for p in props if truth[p]),
                                   frozenset(p for p in props if not truth[p]))
        queries.append((n, query, rng.getrandbits(32)))
    return queries


class Witness:
    name = "witness"

    def __init__(self, seed: int):
        self.seed = seed
        texts = golden.LAW_TEXTS_LEVEL2 + golden.LAW_TEXTS_LEVEL3
        self.exhaustive = [(texts[seq - 1], cube_query(parse_law_text(texts[seq - 1])))
                           for seq in EXHAUSTIVE_LAWS]
        self.laws = published_laws()
        self.law_queries = [cube_query(imp) for imp in self.laws]
        self.heuristic = heuristic_queries(seed)

    def round(self, tracer):
        start = time.perf_counter()
        found = []
        for _, query in self.exhaustive:
            with tracer.span("search.exhaustive"):
                found.append(find_witness(N, query))
        scan_s = _elapsed(start)
        sizes = []
        for query in self.law_queries:
            with tracer.span("search.min_universe"):
                sizes.append(min_universe(query, MIN_UNIVERSE_MAX_N))
        witnesses = []
        for n, query, search_seed in self.heuristic:
            with tracer.span("search.heuristic"):
                witnesses.append(find_witness(n, query, "heuristic", seed=search_seed))
        wall = _elapsed(start)
        return ((found, sizes, witnesses),
                {"wall_s": wall, "rel_per_s": NORMAL_FORMS * len(found) / scan_s})

    def check(self, outputs) -> list[list[str]]:
        found, sizes, witnesses = outputs
        rng = random.Random(self.seed)
        oracle_problems: list[str] = []
        vectors_by_n = {}
        for n in range(1, MIN_UNIVERSE_MAX_N + 1):
            codes = np.arange(1 << n * n, dtype=np.uint64)
            # every relation up to n = 3 is checked against tests/naive.py
            sample = codes.size if n <= 3 else ORACLE_SAMPLE
            vectors_by_n[n] = checked_oracle_vectors(codes, n, rng, oracle_problems, sample)
        results = [checks.check_absent(f, text) for f, (text, _) in zip(found, self.exhaustive)]
        results += [checks.check_min_universe(size, checks.expected_min_universe(imp, vectors_by_n))
                    for size, imp in zip(sizes, self.laws)]
        results += [checks.check_witness(w, n, query)
                    for w, (n, query, _) in zip(witnesses, self.heuristic)]
        if oracle_problems:  # a reference that disagrees with tests/naive.py proves nothing
            results[0] = results[0] + oracle_problems
        return results


WORKLOADS = {w.name: w for w in (Catalogue, Witness)}
