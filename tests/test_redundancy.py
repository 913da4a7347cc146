"""Propositional redundancy: entailment, star flags, CSV annotation.

Laws here are synthetic.  Property names only label the variables; the
implications tested are artificial systems whose consequences are easy to
check by hand, not mined facts about relations.
"""

import io
import itertools

import pytest

from rellaws import (
    Implicant,
    Law,
    PropertyId,
    entails,
    flag_csv,
    laws_to_csv,
    star_redundant,
)

A = PropertyId.Empty.bit
B = PropertyId.Univ.bit
C = PropertyId.CoRefl.bit


def imp(positive=(), negative=()):
    """Implicant forbidding the conjunction of the given property bits."""
    mask = value = 0
    for bit in positive:
        mask |= 1 << bit
        value |= 1 << bit
    for bit in negative:
        mask |= 1 << bit
    return Implicant(mask, value)


def implies(premise, conclusion):
    """The law 'premise implies conclusion' forbids premise AND NOT conclusion."""
    return imp(positive=[premise], negative=[conclusion])


class TestEntails:
    def test_chained_implications_entail_the_composite(self):
        others = [implies(A, B), implies(B, C)]
        assert entails(others, implies(A, C))

    def test_converse_is_not_entailed(self):
        assert not entails([implies(A, B)], implies(B, A))

    def test_nothing_entails_from_an_empty_set(self):
        assert not entails([], implies(A, B))

    def test_every_law_entails_itself(self):
        law = imp(positive=[A], negative=[B, C])
        assert entails([law], law)

    def test_weaker_cube_is_subsumed(self):
        # forbidding A&~C already forbids the smaller cube A&B&~C
        wide = implies(A, C)
        narrow = imp(positive=[A, B], negative=[C])
        assert entails([wide], narrow)
        assert not entails([narrow], wide)

    def test_case_split_resolution(self):
        # (A&B forbidden) and (A&~B forbidden) together forbid A
        others = [imp(positive=[A, B]), imp(positive=[A], negative=[B])]
        assert entails(others, imp(positive=[A]))

    def test_irrelevant_laws_do_not_help(self):
        others = [implies(B, C), imp(positive=[B, C])]
        assert not entails(others, imp(positive=[A]))

    def test_accepts_law_wrappers(self):
        others = [Law(1, implies(A, B)), Law(2, implies(B, C))]
        assert entails(others, Law(3, implies(A, C)))

    def test_agrees_with_truth_table_on_random_systems(self):
        # brute force over all assignments of the three variables
        import random
        rng = random.Random(20)
        cubes = [imp(positive=p, negative=n)
                 for p, n in (
                     (pp, tuple(b for b in (A, B, C) if b not in pp and rng.random() < .7))
                     for r in range(1, 4)
                     for pp in itertools.combinations((A, B, C), r))]
        for trial in range(200):
            others = rng.sample(cubes, k=rng.randint(0, 5))
            target = rng.choice(cubes)
            forbidden = lambda u, law: u & law.mask == law.value
            truth = all(
                any(forbidden(u, o) for o in others)
                for u in ((a << A) | (b << B) | (c << C)
                          for a in (0, 1) for b in (0, 1) for c in (0, 1))
                if forbidden(u, target))
            assert entails(others, target) == truth, (others, target)


class TestStarRedundant:
    def test_duplicates_flag_each_other(self):
        laws = [Law(1, implies(A, B)), Law(2, implies(A, B))]
        assert star_redundant(laws) == [True, True]

    def test_chain_flags_only_the_composite(self):
        laws = [Law(1, implies(A, B)), Law(2, implies(B, C)),
                Law(3, implies(A, C))]
        assert star_redundant(laws) == [False, False, True]

    def test_flags_do_not_depend_on_order(self):
        laws = [Law(1, implies(A, B)), Law(2, implies(B, C)),
                Law(3, implies(A, C))]
        assert star_redundant(laws[::-1]) == star_redundant(laws)[::-1]

    def test_mutually_redundant_pair_is_not_safe_to_drop_together(self):
        # both duplicates are flagged, yet deleting both loses the law;
        # the star flags deliberately make no joint-deletion promise
        laws = [Law(1, implies(A, B)), Law(2, implies(A, B))]
        flags = star_redundant(laws)
        assert flags == [True, True]
        assert not entails([], laws[0])

    def test_empty_and_singleton(self):
        assert star_redundant([]) == []
        assert star_redundant([Law(1, implies(A, B))]) == [False]


class TestFlagCsv:
    def csv_of(self, laws):
        buf = io.StringIO()
        laws_to_csv(laws, buf)
        return buf.getvalue()

    def test_appends_redundant_column(self):
        laws = [Law(1, implies(A, B)), Law(2, implies(B, C)),
                Law(3, implies(A, C))]
        out = io.StringIO()
        flags = flag_csv(io.StringIO(self.csv_of(laws)), out)
        assert flags == [False, False, True]
        lines = out.getvalue().splitlines()
        assert lines[0] == "seq,level,mask_hex,value_hex,law_text,redundant"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0", "0", "1"]

    def test_preserves_original_fields(self):
        laws = [Law(9, implies(A, C))]
        src = self.csv_of(laws)
        out = io.StringIO()
        flag_csv(io.StringIO(src), out)
        body = out.getvalue().splitlines()[1]
        assert body.startswith(src.splitlines()[1])

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            flag_csv(io.StringIO("alpha,beta\n1,2\n"), io.StringIO())

    def test_rejects_text_mask_mismatch(self):
        src = self.csv_of([Law(1, implies(A, B))])
        tampered = src.replace("~Univ", "~CoRefl")
        with pytest.raises(ValueError):
            flag_csv(io.StringIO(tampered), io.StringIO())
