import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellaws import (
    DUAL,
    KIND_REQUIREMENTS,
    MINED_PROPERTIES,
    VECTOR_BITS,
    PropertyId,
    Relation,
    RelationKind,
    classify_kinds,
    holds,
    parse_property,
    property_vector,
)
from rellaws.properties import violations
from rellaws.relation import column_words
from naive import naive_holds

relations = st.integers(1, 6).flatmap(
    lambda n: st.builds(Relation.from_code, st.just(n),
                        st.integers(0, (1 << n * n) - 1)))


class TestVectorLayout:
    def test_24_properties_carry_bits(self):
        assert VECTOR_BITS == 24
        assert len(MINED_PROPERTIES) == 24
        assert [p.value for p in MINED_PROPERTIES] == list(range(24))

    def test_quasi_refl_halves_have_no_bit(self):
        assert PropertyId.LfQuasiRefl.bit is None
        assert PropertyId.RgQuasiRefl.bit is None
        assert PropertyId.Sym.bit == PropertyId.Sym.value

    def test_bit_order_is_ascending_census_count(self):
        # spot anchors at both ends and the middle
        assert PropertyId.Empty.value == 0
        assert PropertyId.Univ.value == 1
        assert PropertyId.Trans.value == 11
        assert PropertyId.RgSerial.value == 23

    @given(relations)
    @settings(max_examples=100, deadline=None)
    def test_vector_matches_holds(self, r):
        vec = property_vector(r)
        for p in MINED_PROPERTIES:
            assert bool(vec >> p.value & 1) == holds(r, p)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        for code in range(1 << n * n):
            r = Relation.from_code(n, code)
            for p in PropertyId:
                assert holds(r, p) == naive_holds(r, p), (n, code, p.name)

    @given(relations)
    @settings(max_examples=150, deadline=None)
    def test_random_larger(self, r):
        for p in PropertyId:
            assert holds(r, p) == naive_holds(r, p), p.name


class TestViolationCount:
    """The violation count, the heuristic search's repair score, is zero
    exactly when the naive oracle says the property holds."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_iff_holds_exhaustive(self, n):
        for code in range(1 << n * n):
            r = Relation.from_code(n, code)
            cols = column_words(r.rows)
            for p in PropertyId:
                assert (violations(r.rows, cols, p) == 0) == naive_holds(r, p), (
                    n, code, p.name)

    def test_zero_iff_holds_random(self):
        rng = random.Random(88)
        for _ in range(200):
            n = rng.randint(4, 8)
            density = rng.random()
            r = Relation.from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                                        if rng.random() < density])
            rows = list(r.rows)
            cols = column_words(rows)
            for p in PropertyId:
                assert (violations(rows, cols, p) == 0) == naive_holds(r, p), (
                    r, p.name)

    def test_counts_match_definitions(self):
        # the counts the repair score is built from: each unordered pair
        # once for the symmetric conditions, surplus predecessors for
        # LfUnique, and (x, y, z) paths with a w incomparable to all three
        # for SemiOrd2; every relation on up to three elements, then random
        # ones on one to seven
        P = PropertyId
        rng = random.Random(89)
        cases = [(n, {(x, y) for x in range(n) for y in range(n)
                      if code >> x * n + y & 1})
                 for n in (1, 2, 3) for code in range(1 << n * n)]
        for _ in range(200):
            n = rng.randint(1, 7)
            density = rng.random()
            cases.append((n, {(x, y) for x in range(n) for y in range(n)
                              if rng.random() < density}))
        for n, pairs in cases:
            rows = Relation.from_pairs(n, pairs).rows
            cols = column_words(rows)
            below = [(x, y) for x in range(n) for y in range(x + 1, n)]
            one_way = sum(((x, y) in pairs) != ((y, x) in pairs) for x, y in below)
            both = sum((x, y) in pairs and (y, x) in pairs for x, y in below)
            neither = sum((x, y) not in pairs and (y, x) not in pairs
                          for x, y in below)
            surplus = sum(max(0, sum((x, y) in pairs for x in range(n)) - 1)
                          for y in range(n))

            def inc(a, b):
                return (a, b) not in pairs and (b, a) not in pairs

            lonely_paths = sum(
                1 for (x, y), z in product(pairs, range(n))
                if (y, z) in pairs
                and any(inc(w, x) and inc(w, y) and inc(w, z) for w in range(n)))
            assert violations(rows, cols, P.Sym) == one_way
            assert violations(rows, cols, P.AntiSym) == both
            assert violations(rows, cols, P.SemiConnex) == neither
            assert violations(rows, cols, P.LfUnique) == surplus
            assert violations(rows, cols, P.SemiOrd2) == lonely_paths


class TestDuality:
    def test_pairing_is_involution(self):
        for p in PropertyId:
            assert DUAL[DUAL[p]] is p

    def test_lf_rg_pairs(self):
        P = PropertyId
        assert DUAL[P.LfEucl] is P.RgEucl
        assert DUAL[P.LfUnique] is P.RgUnique
        assert DUAL[P.LfSerial] is P.RgSerial
        assert DUAL[P.LfQuasiRefl] is P.RgQuasiRefl
        assert DUAL[P.Trans] is P.Trans

    @given(relations)
    @settings(max_examples=150, deadline=None)
    def test_converse_swaps_duals(self, r):
        conv = r.converse()
        for p in PropertyId:
            assert holds(r, p) == holds(conv, DUAL[p]), p.name


class TestExampleRelations:
    def test_two_cycle(self):
        r = Relation.from_pairs(2, [(0, 1), (1, 0)])
        assert holds(r, PropertyId.Sym)
        assert holds(r, PropertyId.SemiConnex)
        assert not holds(r, PropertyId.Dense)

    def test_loop_plus_edge(self):
        # {(a,a),(a,b)}: semi-connex and left Euclidean but not symmetric
        r = Relation.from_pairs(2, [(0, 0), (0, 1)])
        assert holds(r, PropertyId.SemiConnex)
        assert holds(r, PropertyId.LfEucl)
        assert not holds(r, PropertyId.Sym)

    def test_four_cycle(self):
        r = Relation.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for name in ("LfUnique", "RgUnique", "IncTrans"):
            assert holds(r, parse_property(name))
        assert not holds(r, PropertyId.Empty)

    def test_rotational_tournament(self):
        r = Relation.from_pairs(
            7, [(x, (x + d) % 7) for x in range(7) for d in (1, 2, 4)])
        assert holds(r, PropertyId.ASym)
        assert holds(r, PropertyId.Dense)
        assert not holds(r, PropertyId.Empty)

    def test_empty_and_universal_extremes(self):
        empty = Relation.from_pairs(5, [])
        universal = Relation.from_pairs(5, product(range(5), repeat=2))
        assert property_vector(empty).bit_count() == 18
        assert property_vector(universal).bit_count() == 16


class TestSpotImplications:
    """Level-2 implication laws checked directly against the predicates,
    exhaustively for every relation with n <= 4."""

    IMPLICATIONS = [
        (["ASym"], ["Irrefl"]),
        (["ASym"], ["AntiSym"]),
        (["CoRefl"], ["Sym"]),
        (["CoRefl"], ["Trans"]),
        (["Trans", "Irrefl"], ["ASym"]),
        (["Connex"], ["Refl", "SemiConnex"]),
        (["SemiConnex"], ["IncTrans"]),
        (["IncTrans"], ["SemiOrd2"]),
        (["Refl"], ["QuasiRefl"]),
        (["LfEucl", "RgEucl"], ["Sym", "Trans"]),
    ]

    @pytest.mark.parametrize("ante,cons", IMPLICATIONS,
                             ids=lambda v: "+".join(v))
    def test_implications(self, ante, cons, all_relations_n4):
        ante_p = [parse_property(s) for s in ante]
        cons_p = [parse_property(s) for s in cons]
        for r in all_relations_n4:
            if all(holds(r, p) for p in ante_p):
                for p in cons_p:
                    assert holds(r, p), (r, p.name)

    def test_sym_or_trans_implies_quasi_trans(self, all_relations_n4):
        P = PropertyId
        for r in all_relations_n4:
            if holds(r, P.Sym) or holds(r, P.Trans):
                assert holds(r, P.QuasiTrans), r


@pytest.fixture(scope="module")
def all_relations_n4():
    out = []
    for n in range(1, 5):
        out.extend(Relation.from_code(n, c) for c in range(1 << n * n))
    return out


class TestKinds:
    def test_equivalence(self):
        r = Relation.from_pairs(4, [(x, y) for x in range(4) for y in range(4)
                                    if x // 2 == y // 2])
        kinds = classify_kinds(r)
        assert RelationKind.Equivalence in kinds
        assert RelationKind.Preorder in kinds
        assert RelationKind.Tolerance in kinds

    def test_strict_total_order(self):
        r = Relation.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        kinds = classify_kinds(r)
        assert RelationKind.StrictPartialOrder in kinds
        assert RelationKind.Trichotomous in kinds
        assert RelationKind.SemiOrder in kinds
        assert RelationKind.Equivalence not in kinds

    def test_bijective_function(self):
        r = Relation.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        kinds = classify_kinds(r)
        assert RelationKind.BijectiveFunction in kinds
        assert RelationKind.TotalFunction in kinds

    def test_matches_naive_kinds_up_to_three(self):
        seen = set()
        for n, code in ((n, c) for n in range(1, 4) for c in range(1 << n * n)):
            r = Relation.from_code(n, code)
            expected = {kind for kind, needs in KIND_REQUIREMENTS.items()
                        if all(naive_holds(r, p) for p in needs)}
            assert classify_kinds(r) == expected, r
            seen |= expected
        assert seen == set(RelationKind)  # every one of the 15 kinds occurs

    def test_kind_requirements_cover_all_kinds(self):
        assert set(KIND_REQUIREMENTS) == set(RelationKind)
        for req in KIND_REQUIREMENTS.values():
            assert req  # no kind is vacuous


class TestParse:
    def test_canonical_names(self):
        assert parse_property("Trans") is PropertyId.Trans
        assert parse_property("trans") is PropertyId.Trans
        assert parse_property("LFEUCL") is PropertyId.LfEucl

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown property"):
            parse_property("Transistor")
