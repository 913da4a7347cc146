"""The benchmark's correctness checks accept the program's outputs and
reject each kind of corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/tests

The catalogue tests mine the full n = 5 catalogue once (about a minute).
"""

import dataclasses

import numpy as np
import pytest

import checks
from oracle import oracle_vectors
from rellaws import (LiteralConjunction, PropertyId as P, Relation, golden,
                     mine, star_redundant, vector_census)
from rellaws.enumeration import iter_code_chunks
from rellaws.mining import Implicant, Law, parse_law_text


def _tally(codes, n):
    values, counts = np.unique(oracle_vectors(codes, n), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _off_by_one(census):
    counts = dict(census.counts)
    vec = min(counts)
    counts[vec] += 1
    return dataclasses.replace(census, counts=counts)


@pytest.fixture(scope="module")
def pruned():
    census = vector_census(5, pruned=True)
    codes = np.concatenate(list(iter_code_chunks(5, pruned=True)))
    return census, _tally(codes, 5)


@pytest.fixture(scope="module")
def mined(pruned):
    census, tally = pruned
    return mine(census, max_level=24), np.array(sorted(tally), dtype=np.uint32)


def test_oracle_agrees_with_naive_on_every_small_relation():
    for n in (1, 2, 3):
        codes = np.arange(1 << n * n, dtype=np.uint64)
        vectors = oracle_vectors(codes, n)
        assert checks.oracle_sample_problems(codes, n, vectors) == []
        vectors[5 % codes.size] ^= 1 << P.Trans.value
        assert checks.oracle_sample_problems(codes, n, vectors)


def test_pruned_census_check(pruned):
    census, tally = pruned
    assert checks.check_pruned_census(census, tally) == []
    assert checks.check_pruned_census(_off_by_one(census), tally)


def test_catalogue_check(mined):
    result, occupied = mined
    assert checks.check_catalogue(result, occupied) == []
    dropped = dataclasses.replace(result, laws=result.laws[:100] + result.laws[101:])
    assert checks.check_catalogue(dropped, occupied)
    laws = list(result.laws)
    laws[100], laws[101] = laws[101], laws[100]
    swapped = dataclasses.replace(result, laws=laws)
    assert checks.check_catalogue(swapped, occupied)
    # a law one literal longer than its prime form still avoids every
    # occupied vector, but is not prime
    first = result.laws[0].implicant
    free = next(b for b in range(24) if not first.mask >> b & 1)
    longer = Law(1, Implicant(first.mask | 1 << free, first.value))
    assert checks.check_catalogue(
        dataclasses.replace(result, laws=[longer] + result.laws[1:]), occupied)


def test_star_check(mined):
    result, _ = mined
    flags = star_redundant(result.laws)
    expected = checks.coverage_flags([law.implicant for law in result.laws])
    assert checks.check_star(flags, expected) == []
    flipped = list(flags)
    flipped[5] = not flipped[5]
    assert checks.check_star(flipped, expected)


def test_coverage_flags_small_case():
    a = Implicant(0b1, 0b1)        # x0
    b = Implicant(0b11, 0b11)      # x0 and x1: inside a's cube
    c = Implicant(0b100, 0b000)    # not x2
    assert checks.coverage_flags([a, b, c]) == [False, True, False]


def test_witness_check_rejects_a_missed_literal():
    query = LiteralConjunction(frozenset({P.Refl, P.Sym}), frozenset({P.Univ}))
    good = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    assert checks.check_witness(good, 3, query) == []
    no_loop = Relation.from_pairs(3, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert checks.check_witness(no_loop, 3, query)
    assert checks.check_witness(good, 4, query)
    assert checks.check_witness(None, 3, query)


def test_min_universe_check_rejects_none_where_the_oracle_finds_one():
    vectors_by_n = {n: oracle_vectors(np.arange(1 << n * n, dtype=np.uint64), n)
                    for n in (1, 2, 3)}
    # the universal relation on one element is also coreflexive
    imp = parse_law_text("Univ CoRefl")
    assert checks.expected_min_universe(imp, vectors_by_n) == 1
    assert checks.check_min_universe(1, 1) == []
    assert checks.check_min_universe(None, 1)
    assert checks.check_min_universe(2, 1)


def test_absent_check():
    text = golden.LAW_TEXTS_LEVEL2[0]
    assert checks.check_absent(None, text) == []
    assert checks.check_absent(Relation.from_pairs(5, []), text)
