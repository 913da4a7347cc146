"""Witness search: query objects, exhaustive and heuristic modes, DOT export."""

import random

import pytest

from rellaws import (
    LiteralConjunction,
    PropertyId,
    Relation,
    export_dot,
    find_witness,
    holds,
    min_universe,
)
from rellaws.enumeration import iter_normal_codes


def query(require=(), forbid=()):
    return LiteralConjunction.from_names(require, forbid)


def random_relation(rng, n):
    full = (1 << n) - 1
    return Relation(n, [rng.randint(0, full) for _ in range(n)])


def normal_relations(n):
    return [Relation.from_code(n, code)
            for chunk in iter_normal_codes(n) for code in chunk.tolist()]


class TestLiteralConjunction:
    def test_from_names_is_case_insensitive(self):
        q = query(["refl", "TRANS"], ["sym"])
        assert q.pos == {PropertyId.Refl, PropertyId.Trans}
        assert q.neg == {PropertyId.Sym}

    def test_rejects_contradiction(self):
        with pytest.raises(ValueError, match="contradictory"):
            query(["Refl"], ["Refl"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            LiteralConjunction()

    def test_properties_sorted_by_bit(self):
        q = query(["RgSerial", "Empty"], ["Trans"])
        assert q.properties() == [
            PropertyId.Empty, PropertyId.Trans, PropertyId.RgSerial]

    def test_dual_swaps_sided_properties(self):
        q = query(["LfSerial", "Refl"], ["RgUnique"])
        d = q.dual()
        assert d.pos == {PropertyId.RgSerial, PropertyId.Refl}
        assert d.neg == {PropertyId.LfUnique}
        assert d.dual() == q

    def test_dual_witnesses_are_converses(self):
        rng = random.Random(4)
        q = query(["LfEucl"], ["RgSerial", "Sym"])
        for _ in range(300):
            r = random_relation(rng, rng.randint(1, 6))
            assert q.satisfied_by(r) == q.dual().satisfied_by(r.converse())

    def test_satisfied_by(self):
        loop = Relation.from_pairs(2, [(0, 0), (1, 1)])
        assert query(["Refl"], ["Empty"]).satisfied_by(loop)
        assert not query(["Refl"], ["Trans"]).satisfied_by(loop)
        assert not query(["Univ"]).satisfied_by(loop)


class TestExhaustive:
    def first_by_filtering(self, n, q):
        return next((r for r in normal_relations(n) if q.satisfied_by(r)), None)

    @pytest.mark.parametrize("require,forbid", [
        (["Refl", "Trans"], ["Sym"]),
        (["Dense"], ["Refl", "Empty"]),
        (["Connex"], ["Trans"]),
        (["QuasiTrans"], ["Trans", "Sym"]),
    ])
    def test_matches_filtering_enumeration(self, require, forbid):
        q = query(require, forbid)
        for n in range(1, 5):
            assert find_witness(n, q) == self.first_by_filtering(n, q)

    def test_witness_satisfies_query(self):
        q = query(["SemiOrd1", "SemiOrd2"], ["Trans"])
        r = find_witness(5, q)
        assert r is not None and q.satisfied_by(r)

    def test_none_is_a_completeness_claim(self):
        # Refl demands every loop, ASym forbids them all
        q = query(["Refl", "ASym"])
        for n in range(1, 5):
            assert find_witness(n, q) is None
            assert self.first_by_filtering(n, q) is None

    def test_rejects_large_universe(self):
        with pytest.raises(ValueError, match="exhaustive"):
            find_witness(7, query(["Refl"]))

    def test_rejects_bad_size_and_mode(self):
        with pytest.raises(ValueError):
            find_witness(0, query(["Refl"]))
        with pytest.raises(ValueError):
            find_witness(9, query(["Refl"]), "heuristic")
        with pytest.raises(ValueError, match="mode"):
            find_witness(3, query(["Refl"]), "psychic")


class TestHeuristic:
    def test_reproducible_for_a_seed(self):
        q = query(["Trans", "Dense"], ["Sym", "Empty"])
        a = find_witness(7, q, "heuristic", seed=11)
        b = find_witness(7, q, "heuristic", seed=11)
        assert a is not None and a == b

    def test_witnesses_check_out(self):
        cases = [
            query(["Refl", "Trans", "AntiSym"], ["SemiConnex"]),
            query(["ASym", "Trans"], ["Empty"]),
            query(["Connex", "Trans"]),
            query(["Sym", "Irrefl"], ["Empty", "Trans"]),
        ]
        for q in cases:
            for n in (7, 8):
                r = find_witness(n, q, "heuristic", seed=3)
                assert r is not None and r.n == n and q.satisfied_by(r)

    def test_hard_sparse_instance(self):
        # almost all ASym witnesses of Dense are highly structured
        # tournaments, far too rare for blind sampling to hit
        q = query(["ASym", "Dense"], ["Empty"])
        for seed in (0, 1, 2):
            r = find_witness(7, q, "heuristic", seed=seed)
            assert r is not None and q.satisfied_by(r)

    def test_gives_up_quietly_on_an_impossible_query(self):
        q = query(["Refl", "ASym"])
        assert find_witness(7, q, "heuristic", seed=0, budget=2000) is None


    # (n, required, forbidden, seed, rows of the witness found). Each search
    # repairs its fills by descent, so these pin the search path end to end;
    # the repair score's counts themselves are pinned in test_properties.
    PINNED = [
        (5, ["SemiOrd2"], ["SemiConnex", "QuasiRefl"], 62,
         (2, 0, 0, 0, 0)),
        (6, ["SemiOrd2"], ["SemiConnex", "AntiTrans"], 98,
         (62, 1, 41, 1, 1, 0)),
        (5, ["SemiOrd2"], ["LfSerial"], 644,
         (0, 0, 0, 0, 0)),
        (8, ["LfUnique"], ["Sym", "SemiOrd1"], 54,
         (0, 0, 4, 8, 64, 128, 0, 32)),
        (6, ["LfUnique", "RgSerial"], ["AntiTrans"], 79,
         (8, 4, 2, 1, 16, 32)),
        (8, ["Sym", "LfUnique"], ["Irrefl"], 30,
         (4, 16, 1, 8, 2, 0, 0, 0)),
        (6, ["SemiConnex", "Irrefl"], ["LfSerial"], 75,
         (62, 4, 24, 50, 38, 6)),
        (7, ["SemiConnex", "Dense"], ["LfEucl"], 57,
         (127, 126, 127, 127, 127, 127, 127)),
        (7, ["Sym", "IncTrans"], ["LfQuasiRefl"], 26,
         (126, 127, 127, 127, 127, 127, 127)),
        (8, ["SemiOrd2", "AntiSym"], ["Refl"], 48,
         (234, 62, 157, 168, 57, 100, 94, 242)),
        (8, ["LfUnique", "AntiSym"], ["Connex"], 3,
         (0, 8, 0, 0, 48, 128, 4, 0)),
        (7, ["Trans"], ["SemiConnex", "LfUnique"], 48,
         (2, 2, 0, 0, 0, 0, 0)),
        (8, ["Sym", "RgUnique"], ["RgQuasiRefl"], 22,
         (4, 128, 1, 64, 0, 32, 8, 2)),
        (7, ["AntiSym", "RgQuasiRefl"], ["LfQuasiRefl"], 62,
         (71, 86, 12, 11, 93, 95, 76)),
    ]

    @pytest.mark.parametrize("n,require,forbid,seed,rows", PINNED)
    def test_pinned_witnesses(self, n, require, forbid, seed, rows):
        q = query(require, forbid)
        assert find_witness(n, q, "heuristic", seed=seed) == Relation(n, rows)


class TestMinUniverse:
    def test_vacuous_properties_admit_the_singleton(self):
        assert min_universe(query(["AntiTrans", "SemiConnex"]), 6) == 1

    def test_agrees_with_filtering_enumeration(self):
        cases = [
            query(["Sym"], ["AntiSym"]),         # needs a 2-cycle
            query(["Trans"], ["QuasiRefl"]),
            query(["Dense", "ASym"], ["Empty", "Univ"]),
            query(["Connex"], ["SemiOrd1"]),
        ]
        for q in cases:
            expect = next(
                (n for n in range(1, 5)
                 if any(q.satisfied_by(r) for r in normal_relations(n))),
                None)
            assert min_universe(q, 4) == expect

    def test_contradictory_query_has_no_size(self):
        assert min_universe(query(["Refl", "ASym"]), 5) is None

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            min_universe(query(["Refl"]), 0)
        with pytest.raises(ValueError):
            min_universe(query(["Refl"]), 7)

    @pytest.mark.extended
    @pytest.mark.slow
    def test_no_small_dense_asym_inhabitant(self):
        # nonempty dense asymmetric relations need more than six elements
        assert min_universe(query(["ASym", "Dense"], ["Empty"]), 6) is None


class TestExportDot:
    def test_exact_text(self):
        r = Relation.from_pairs(2, [(0, 1), (1, 1)])
        assert export_dot(r) == (
            'digraph relation {\n'
            '  "a";\n'
            '  "b";\n'
            '  "a" -> "b";\n'
            '  "b" -> "b";\n'
            '}\n')

    def test_custom_labels(self):
        r = Relation.from_pairs(2, [(1, 0)])
        text = export_dot(r, ["lo", "hi"])
        assert '"hi" -> "lo";' in text

    def test_rejects_bad_labels(self):
        r = Relation.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            export_dot(r, ["only"])
        with pytest.raises(ValueError):
            export_dot(r, ["same", "same"])
