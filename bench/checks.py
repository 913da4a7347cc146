"""Correctness checks for every operation the benchmark times.

Each check compares one output of the program with a reference that does
not come from the code under test: the published tables in
`rellaws.golden`, the quantifier oracle in `oracle.py`, the naive
predicates in `tests/naive.py`, or a 2^24 coverage count in numpy. Each
returns the list of problems it found; an empty list means the output is
right. Nothing is compared with a stored copy of an earlier run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from naive import NAIVE
from rellaws import MINED_PROPERTIES, VECTOR_BITS, Relation, golden
from rellaws.mining import Implicant


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _tally_diff(counts: dict[int, int], expected: dict[int, int]) -> list[str]:
    bad = sorted(v for v in set(counts) | set(expected)
                 if counts.get(v, 0) != expected.get(v, 0))
    return [f"vector {v:06x}: counted {counts.get(v, 0)}, oracle {expected.get(v, 0)}"
            for v in bad[:5]] + ([f"... {len(bad) - 5} more vectors differ"]
                                 if len(bad) > 5 else [])


def check_pruned_census(census, oracle_counts: dict[int, int]) -> list[str]:
    """The n = 5 normal-form census against the published tables and the oracle."""
    return (_diff("census kind", (census.n, census.pruned), (5, True))
            + _diff("relations", census.total(), golden.PRUNED_COUNTS[5])
            + _diff("inhabited vectors", census.inhabited(), golden.INHABITED_VECTORS_N5)
            + _diff("property counts",
                    {p.name: c for p, c in census.property_counts().items()},
                    {p.name: c for p, c in golden.PROPERTY_CENSUS_PRUNED_N5.items()})
            + _tally_diff(census.counts, oracle_counts))


def _covers(occupied: np.ndarray, mask: int, value: int) -> bool:
    return bool(np.any(occupied & np.uint32(mask) == np.uint32(value)))


def check_catalogue(result, occupied: np.ndarray) -> list[str]:
    """The mined laws against the published catalogue and the occupied vectors.

    Every law must avoid every occupied vector and be prime: dropping any
    one of its literals must make it cover an occupied vector.
    """
    laws = result.laws
    problems = (
        _diff("law sequence numbers", [law.seq for law in laws],
              list(range(1, golden.TOTAL_LAWS + 1)))
        + _diff("laws per level", result.per_level_counts(), golden.LEVEL_LAW_COUNTS)
        + _diff("on-count at level start",
                {s.level: s.on_at_start for s in result.level_stats},
                golden.LEVEL_ON_AT_START))
    texts = [law.text for law in laws]
    n2, n3 = len(golden.LAW_TEXTS_LEVEL2), len(golden.LAW_TEXTS_LEVEL3)
    problems += _diff("level 2 law texts", texts[:n2], golden.LAW_TEXTS_LEVEL2)
    problems += _diff("level 3 law texts", texts[n2:n2 + n3], golden.LAW_TEXTS_LEVEL3)
    for law in laws:
        mask, value = law.implicant.mask, law.implicant.value
        if _covers(occupied, mask, value):
            problems.append(f"law {law.seq} covers an occupied vector")
        for bit in range(VECTOR_BITS):
            if mask >> bit & 1 and not _covers(occupied, mask & ~(1 << bit),
                                               value & ~(1 << bit)):
                problems.append(f"law {law.seq} is not prime (bit {bit})")
                break
    return problems


def _cube_index(imp: Implicant) -> tuple:
    # axis i of a (2,)*24 array is bit 23 - i of the vector
    return tuple(imp.value >> b & 1 if imp.mask >> b & 1 else slice(None)
                 for b in reversed(range(VECTOR_BITS)))


def coverage_flags(implicants: Sequence[Implicant]) -> list[bool]:
    """Is each law entailed by the others? By counting, not by a solver.

    A law is entailed iff every vector of its cube lies in the cube of some
    other law, i.e. is covered at least twice.
    """
    coverage = np.zeros((2,) * VECTOR_BITS, dtype=np.uint16)
    for imp in implicants:
        coverage[_cube_index(imp)] += 1
    return [bool(coverage[_cube_index(imp)].min() >= 2) for imp in implicants]


def check_star(flags: Sequence[bool], expected: Sequence[bool]) -> list[str]:
    flags, expected = list(flags), list(expected)
    if len(flags) != len(expected):
        return [f"{len(flags)} redundancy flags for {len(expected)} laws"]
    return [f"law at position {i}: flagged {f}, coverage count says {e}"
            for i, (f, e) in enumerate(zip(flags, expected)) if f != e]


def check_absent(found, law_text: str) -> list[str]:
    """An exhaustive n = 5 scan of a published law cube must find nothing."""
    return [] if found is None else [
        f"witness {found!r} for the published law {law_text!r}"]


def expected_min_universe(imp: Implicant, vectors_by_n: dict[int, np.ndarray]) -> int | None:
    """Smallest n whose relations include one inside the cube, from oracle vectors."""
    for n in sorted(vectors_by_n):
        if _covers(vectors_by_n[n], imp.mask, imp.value):
            return n
    return None


def check_min_universe(answer, expected) -> list[str]:
    return _diff("min_universe", answer, expected)


def naive_satisfies(r, query) -> bool:
    pairs = set(r.pairs())
    return (all(NAIVE[p](r.n, pairs) for p in query.pos)
            and not any(NAIVE[p](r.n, pairs) for p in query.neg))


def check_witness(found, n: int, query) -> list[str]:
    """A heuristic witness for a query known to have one, checked by tests/naive.py."""
    if found is None:
        return [f"no witness at n={n} for a satisfiable query {query}"]
    if found.n != n:
        return [f"witness on {found.n} elements, asked for {n}"]
    if not naive_satisfies(found, query):
        return [f"{found!r} does not satisfy {query}"]
    return []


def oracle_sample_problems(codes: np.ndarray, n: int, vectors: np.ndarray) -> list[str]:
    """The oracle's vectors for a sample of codes against tests/naive.py."""
    problems = []
    for code, vec in zip(codes.tolist(), vectors.tolist()):
        pairs = set(Relation.from_code(n, code).pairs())
        want = sum(1 << p.value for p in MINED_PROPERTIES if NAIVE[p](n, pairs))
        if vec != want:
            problems.append(f"oracle vector {vec:06x} for code {code} at n={n}, naive {want:06x}")
    return problems

