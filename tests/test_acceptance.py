"""Acceptance gate: one test per published criterion, end to end.

Each test reproduces one block of the published reference results from
scratch (no cache involvement) and pins the outcome exactly. The expensive
artifacts, the two n = 5 censuses and the full mining run, are computed
once per module and shared.

Criterion 7 carries a reference expectation that law 006 `CoRefl ~LfEucl`
is not propositionally entailed by the rest of the catalogue. Against all
other 273 laws that is false, and the frozen level 2 and 3 texts that
criterion 5 pins already prove it: 018 `CoRefl ~Sym`, 054 `CoRefl
~AntiSym`, 077 `Sym ~QuasiTrans`, 182 `~Trans AntiSym QuasiTrans` and 117
`~LfEucl Sym Trans` read as CoRefl -> Sym, CoRefl -> AntiSym, Sym ->
QuasiTrans, AntiSym & QuasiTrans -> Trans and Sym & Trans -> LfEucl, which
chain to CoRefl -> LfEucl, i.e. law 006. A truth table over those six
variables confirms it, and no premise can be dropped. So criteria 5 and 7
could not both hold as the expectation was first written. The test pins
this certificate instead, and keeps the negative example under the one
reading found that fits all three reference examples: each law weighed
only against the other laws of its own level or lower. That reading is
an inference; the reference does not state it.
"""

import os
import random
import time

import numpy as np
import pytest

from naive import NAIVE
from rellaws import (
    DUAL,
    LiteralConjunction,
    PropertyId,
    Relation,
    canonicalize,
    entails,
    find_witness,
    golden,
    holds,
    is_normal_form,
    mine,
    property_vector,
    star_redundant,
    vector_census,
)
from rellaws.census import bulk_holds
from rellaws.enumeration import iter_code_chunks


@pytest.fixture(scope="module")
def full_census():
    return vector_census(5, False)


@pytest.fixture(scope="module")
def pruned_census():
    return vector_census(5, True)


@pytest.fixture(scope="module")
def mined(pruned_census):
    # mine reads only the census keys, and criterion 4 pins that the pruned
    # and the full key sets are equal
    start = time.perf_counter()
    result = mine(pruned_census, max_level=24)
    return result, time.perf_counter() - start


def test_criterion_1_relation_counts():
    def count(n, pruned):
        return sum(chunk.size for chunk in iter_code_chunks(n, pruned))

    start = time.perf_counter()
    unpruned = {n: count(n, False) for n in range(1, 6)}
    pruned = {n: count(n, True) for n in range(1, 6)}
    elapsed = time.perf_counter() - start
    assert unpruned == {n: golden.UNPRUNED_COUNTS[n] for n in range(1, 6)}
    assert pruned == {n: golden.PRUNED_COUNTS[n] for n in range(1, 6)}
    assert elapsed < 60, f"counting n <= 5 took {elapsed:.1f}s"


def test_criterion_2_unpruned_property_census_n5(full_census):
    assert full_census.property_counts() == golden.PROPERTY_CENSUS_UNPRUNED_N5


def test_criterion_3_pruned_property_census_n5(pruned_census):
    assert pruned_census.property_counts() == golden.PROPERTY_CENSUS_PRUNED_N5


@pytest.mark.slow
def test_criterion_4_vector_census_occupancy(full_census, pruned_census, direct_census):
    assert full_census.inhabited() == golden.INHABITED_VECTORS_N5
    assert full_census.uninhabited() == golden.ON_VECTORS_N5
    assert set(full_census.counts) == set(pruned_census.counts)
    # the normal forms, weighted, against a tally of all 2^25 codes
    assert full_census.counts == direct_census(5)


def test_criterion_5_mining_catalogue(mined):
    result, elapsed = mined
    per_level = result.per_level_counts()
    assert per_level == golden.LEVEL_LAW_COUNTS
    assert len(result.laws) == golden.TOTAL_LAWS
    assert {s.level: s.on_at_start for s in result.level_stats} \
        == golden.LEVEL_ON_AT_START

    for level, reference in ((2, golden.LAW_TEXTS_LEVEL2),
                             (3, golden.LAW_TEXTS_LEVEL3)):
        texts = [law.text for law in result.laws if law.level == level]
        missing = sorted(set(reference) - set(texts))
        unexpected = sorted(set(texts) - set(reference))
        assert not missing and not unexpected, (
            f"level {level}: missing {missing}, unexpected {unexpected}")
        # tie-order divergences within a level must surface as a diff
        diff = [f"seq {i + 1}: got {a!r}, reference {b!r}"
                for i, (a, b) in enumerate(zip(texts, reference)) if a != b]
        assert not diff, f"level {level} order diffs: {diff}"

    assert elapsed < 10, f"full mine took {elapsed:.1f}s"


def test_criterion_6_prime_implicant_suite(pruned_census, mined):
    result, _ = mined
    occupied = np.fromiter(sorted(pruned_census.counts), dtype=np.uint32)
    for law in result.laws:
        imp = law.implicant
        assert not np.any((occupied & imp.mask) == imp.value), (
            f"law {law.seq} covers an occupied vector")
        for bit in range(24):
            if not imp.mask >> bit & 1:
                continue
            parent_mask = imp.mask & ~(1 << bit)
            parent_value = imp.value & parent_mask
            assert np.any((occupied & parent_mask) == parent_value), (
                f"law {law.seq} is not prime: dropping bit {bit} still "
                f"avoids every occupied vector")


@pytest.mark.slow
def test_criterion_7_redundancy(mined):
    result, _ = mined
    by_seq = {law.seq: law for law in result.laws}

    assert entails([by_seq[39], by_seq[46]], by_seq[44])
    assert entails([by_seq[242], by_seq[71]], by_seq[239])

    # oracle: exhaustive assignment enumeration via coverage counting.
    # a law is entailed by the others iff every assignment in its cube
    # violates at least one other law, i.e. is covered at least twice.
    # The 2^24 assignments are the cells of a (2,) * 24 array, axis i
    # holding bit 23 - i, so a cube is a basic slice: its literals fix
    # their axes and every other axis is whole.
    def cube(imp):
        return tuple(imp.value >> b & 1 if imp.mask >> b & 1 else slice(None)
                     for b in reversed(range(24)))

    cubes = [cube(law.implicant) for law in result.laws]
    coverage = np.zeros((2,) * 24, dtype=np.uint16)
    for c in cubes:
        coverage[c] += 1
    oracle = [int(coverage[c].min()) >= 2 for c in cubes]
    assert oracle == star_redundant(result.laws)
    assert sum(oracle) == 166

    # law 006 is entailed by the other 273 laws; the oracle above agrees
    others = [law for law in result.laws if law.seq != 6]
    assert entails(others, by_seq[6])

    # its certificate: CoRefl -> Sym, CoRefl -> AntiSym, Sym -> QuasiTrans,
    # AntiSym & QuasiTrans -> Trans, Sym & Trans -> LfEucl
    premises = [by_seq[s] for s in (18, 54, 77, 182, 117)]
    assert entails(premises, by_seq[6])
    for i in range(len(premises)):
        subset = premises[:i] + premises[i + 1:]
        assert not entails(subset, by_seq[6]), (
            f"law {premises[i].seq} is not needed in the law 006 certificate")

    # the same certificate by truth table over its variables, no solver:
    # every assignment in law 006's cube falls in some premise's cube
    target = by_seq[6].implicant
    support = target.mask
    for law in premises:
        support |= law.implicant.mask
    bits = [1 << b for b in range(24) if support >> b & 1]
    assert len(bits) == 6
    for choice in range(1 << len(bits)):
        u = sum(bit for k, bit in enumerate(bits) if choice >> k & 1)
        if target.covers(u):
            assert any(law.implicant.covers(u) for law in premises), (
                f"assignment {u:06x} satisfies the premises but not law 006")

    # the reference's negative example holds when each law is weighed only
    # against the other laws of its own level or lower; the two positive
    # examples still hold under that reading
    def level_bounded_entailed(seq):
        law = by_seq[seq]
        return entails([o for o in result.laws
                        if o.seq != seq and o.level <= law.level], law)

    reading = ("inferred reading, not stated by the reference: each law is "
               "weighed against the other laws of its own level or lower")
    assert not level_bounded_entailed(6), reading
    assert level_bounded_entailed(44), reading
    assert level_bounded_entailed(239), reading


def test_criterion_8_witness_suite():
    nonempty_dense_asym = LiteralConjunction.from_names(
        ["ASym", "Dense"], ["Empty"])
    for n in range(1, 6):
        assert find_witness(n, nonempty_dense_asym) is None, (
            f"unexpected witness at n={n}")

    four_cycle = Relation.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for p in (PropertyId.LfUnique, PropertyId.RgUnique, PropertyId.IncTrans):
        assert holds(four_cycle, p)
    assert not holds(four_cycle, PropertyId.Empty)

    # rotational tournament on 7 elements: x -> y iff (y - x) mod 7 is a
    # nonzero quadratic residue; checked by the predicates before use
    residues = {1, 2, 4}
    tournament = Relation.from_pairs(
        7, [(x, y) for x in range(7) for y in range(7)
            if (y - x) % 7 in residues])
    assert not holds(tournament, PropertyId.Empty)
    assert holds(tournament, PropertyId.ASym)
    assert holds(tournament, PropertyId.Dense)


@pytest.mark.extended
@pytest.mark.slow
def test_criterion_8_witness_suite_extended_n6():
    nonempty_dense_asym = LiteralConjunction.from_names(
        ["ASym", "Dense"], ["Empty"])
    assert find_witness(6, nonempty_dense_asym) is None


def test_criterion_9_property_invariants():
    rng = random.Random(90)

    # randomized block: 10 000 relations with n <= 6
    for _ in range(10_000):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        r = Relation(n, [rng.randint(0, full) for _ in range(n)])
        vec = property_vector(r)

        conv = r.converse()
        for p, d in DUAL.items():
            assert holds(r, p) == holds(conv, d), (r, p.name)

        for _ in range(5):
            perm = rng.sample(range(n), n)
            assert property_vector(r.permute(perm)) == vec, (r, perm)

        canon = canonicalize(r)
        assert is_normal_form(canon)
        assert property_vector(canon) == vec, (r, canon)

    # exhaustive block: every predicate against the naive oracle, n <= 3
    for n in range(1, 4):
        for code in range(1 << n * n):
            r = Relation.from_code(n, code)
            pairs = set(r.pairs())
            for p, oracle in NAIVE.items():
                assert holds(r, p) == oracle(n, pairs), (r, p.name)

    # the eleven level-2 implication spot-laws, over every relation n <= 4
    P = PropertyId
    checked = 0
    for n in range(1, 5):
        for codes in iter_code_chunks(n, pruned=False):
            b = bulk_holds(codes, n, list(P))
            implications = [
                (b[P.ASym], b[P.Irrefl]),
                (b[P.ASym], b[P.AntiSym]),
                (b[P.CoRefl], b[P.Sym]),
                (b[P.CoRefl], b[P.Trans]),
                (b[P.Trans] & b[P.Irrefl], b[P.ASym]),
                (b[P.Connex], b[P.Refl] & b[P.SemiConnex]),
                (b[P.SemiConnex], b[P.IncTrans]),
                (b[P.IncTrans], b[P.SemiOrd2]),
                (b[P.Refl], b[P.QuasiRefl]),
                (b[P.LfEucl] & b[P.RgEucl], b[P.Sym] & b[P.Trans]),
                (b[P.Sym] | b[P.Trans], b[P.QuasiTrans]),
            ]
            assert len(implications) == 11
            for ante, cons in implications:
                assert not np.any(ante & ~cons)
            checked += codes.size
    assert checked == sum(golden.UNPRUNED_COUNTS[n] for n in range(1, 5))
