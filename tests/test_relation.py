import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellaws import NMAX, Relation, element_names
from rellaws.relation import column_words, signatures

relations = st.integers(1, NMAX).flatmap(
    lambda n: st.builds(Relation.from_code, st.just(n),
                        st.integers(0, (1 << n * n) - 1)))


class TestConstruction:
    def test_from_pairs(self):
        r = Relation.from_pairs(3, [(0, 1), (2, 2)])
        assert r.rows == (0b010, 0, 0b100)

    def test_from_pairs_duplicates_collapse(self):
        r = Relation.from_pairs(2, [(0, 1), (0, 1)])
        assert r.pairs() == [(0, 1)]

    def test_from_pairs_out_of_range(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(0, 2)])
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(-1, 0)])

    @pytest.mark.parametrize("n", [0, -1, NMAX + 1])
    def test_universe_bounds(self, n):
        with pytest.raises(ValueError):
            Relation(n, ())
        with pytest.raises(ValueError):
            Relation.from_pairs(n, [])

    def test_code_bounds(self):
        with pytest.raises(ValueError):
            Relation.from_code(2, 16)
        with pytest.raises(ValueError):
            Relation.from_code(2, -1)

    def test_from_text_accepts_dots_and_zeros(self):
        a = Relation.from_text("1.\n01\n")
        b = Relation.from_text("10\n.1\n")
        assert a == b

    def test_from_text_rejects_ragged(self):
        with pytest.raises(ValueError):
            Relation.from_text("10\n1\n")
        with pytest.raises(ValueError):
            Relation.from_text("12\n11\n")
        with pytest.raises(ValueError):
            Relation.from_text("")


class TestEncoding:
    def test_code_is_row_major_msb_first(self):
        # cell (0,0) owns the most significant of the n*n bits
        r = Relation.from_pairs(2, [(0, 0)])
        assert r.to_code() == 0b1000
        r = Relation.from_pairs(2, [(1, 1)])
        assert r.to_code() == 0b0001

    @given(relations)
    @settings(max_examples=200, deadline=None)
    def test_code_round_trip(self, r):
        assert Relation.from_code(r.n, r.to_code()) == r

    @given(relations)
    @settings(max_examples=200, deadline=None)
    def test_text_round_trip(self, r):
        assert Relation.from_text(r.to_text()) == r

    def test_text_uses_dots_for_absent(self):
        assert Relation.from_pairs(2, [(0, 1)]).to_text() == ".1\n.."


class TestSignatures:
    @pytest.mark.parametrize("n", range(1, NMAX + 1))
    def test_count_the_cells_of_each_row_and_column(self, n):
        rng = np.random.default_rng(n)
        codes = np.append(rng.integers(0, 1 << n * n, size=200, dtype=np.uint64),
                          np.uint64((1 << n * n) - 1))
        pairs = list(signatures(codes, n))
        assert len(pairs) == n
        assert all(sig.dtype == np.uint8 for pair in pairs for sig in pair)
        for i, code in enumerate(codes.tolist()):
            r = Relation.from_code(n, code)
            for x, (row, col) in enumerate(pairs):
                cells = set(r.pairs())
                loop = (x, x) in cells
                out_deg = sum((x, y) in cells for y in range(n) if y != x)
                in_deg = sum((y, x) in cells for y in range(n) if y != x)
                assert (row[i], col[i]) == (2 * out_deg + loop, 2 * in_deg + loop), (n, code, x)


class TestQueries:
    def test_pairs_ascending(self):
        r = Relation.from_pairs(3, [(2, 0), (0, 2), (1, 1)])
        assert r.pairs() == [(0, 2), (1, 1), (2, 0)]

    def test_column(self):
        r = Relation.from_pairs(3, [(0, 1), (2, 1)])
        assert column_words(r.rows)[1] == 0b101


class TestTransforms:
    @given(relations)
    @settings(max_examples=200, deadline=None)
    def test_converse_involution(self, r):
        assert r.converse().converse() == r

    def test_converse_swaps(self):
        r = Relation.from_pairs(2, [(0, 1)])
        assert r.converse() == Relation.from_pairs(2, [(1, 0)])

    def test_permute(self):
        r = Relation.from_pairs(3, [(0, 1)])
        # position i of the result takes element perm[i] of the source
        assert r.permute([1, 2, 0]) == Relation.from_pairs(3, [(2, 0)])

    def test_permute_identity(self):
        r = Relation.from_pairs(3, [(0, 2), (1, 1)])
        assert r.permute([0, 1, 2]) == r

    def test_permute_validates(self):
        r = Relation.from_pairs(3, [])
        with pytest.raises(ValueError):
            r.permute([0, 1])
        with pytest.raises(ValueError):
            r.permute([0, 0, 1])

    def test_restrict(self):
        r = Relation.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        sub = r.restrict([0, 1])
        assert sub.n == 2
        assert sub.pairs() == [(0, 1)]

    def test_restrict_validates(self):
        r = Relation.from_pairs(2, [])
        with pytest.raises(ValueError):
            r.restrict([])
        with pytest.raises(ValueError):
            r.restrict([0, 0])
        with pytest.raises(ValueError):
            r.restrict([2])


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Relation.from_pairs(2, [(0, 1)])
        b = Relation.from_code(2, a.to_code())
        assert a == b and hash(a) == hash(b)
        assert a != Relation.from_pairs(2, [(1, 0)])
        assert Relation.from_pairs(2, []) != Relation.from_pairs(3, [])

    def test_repr_shows_size_and_cells(self):
        r = Relation.from_pairs(2, [(0, 1)])
        assert repr(r) == "Relation(2, <01,00>)"


def test_element_names():
    assert element_names(3) == ["a", "b", "c"]
    assert len(element_names(NMAX)) == NMAX
