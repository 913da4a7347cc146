import io

import numpy as np
import pytest

from rellaws import (
    MINED_PROPERTIES,
    PropertyId,
    Relation,
    holds,
    load_census,
    property_vector,
    save_census,
    vector_census,
)
from rellaws.census import _words, bulk_holds, bulk_vectors, matrices_from_codes
from naive import NAIVE, naive_holds


def naive_vector(r):
    pairs = set(r.pairs())
    return sum(1 << p.value for p in MINED_PROPERTIES if NAIVE[p](r.n, pairs))


class TestBulkKernels:
    # the bulk readers share the predicates with `holds`, so they are checked
    # against the quantifier sweeps of tests/naive.py instead

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vectors_exhaustive(self, n):
        codes = np.arange(1 << n * n, dtype=np.uint64)
        vecs = bulk_vectors(codes, n)
        results = bulk_holds(codes, n, list(PropertyId))
        for code in range(1 << n * n):
            r = Relation.from_code(n, code)
            assert int(vecs[code]) == naive_vector(r), (n, code)
            for p in PropertyId:
                assert bool(results[p][code]) == naive_holds(r, p), (n, code, p.name)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_holds_random(self, n):
        rng = np.random.default_rng(n)
        codes = rng.integers(0, 1 << n * n, size=300, dtype=np.uint64)
        results = bulk_holds(codes, n, list(PropertyId))
        vecs = bulk_vectors(codes, n)
        for i, code in enumerate(codes.tolist()):
            r = Relation.from_code(n, code)
            assert int(vecs[i]) == naive_vector(r), (n, code)
            for p in PropertyId:
                assert bool(results[p][i]) == naive_holds(r, p), (n, code, p.name)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_words_pack_the_decoded_matrices(self, n):
        # row words hold cell (x, y) at bit y, column words at bit x; the
        # scalar decode of each code must give the same words
        if n <= 3:
            codes = np.arange(1 << n * n, dtype=np.uint64)
        else:
            rng = np.random.default_rng(n)
            codes = np.append(rng.integers(0, 1 << n * n, size=300, dtype=np.uint64),
                              np.uint64((1 << n * n) - 1))
        cells = matrices_from_codes(codes, n).astype(np.uint64)
        weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
        rows, cols, full = _words(codes, n)
        assert full == (1 << n) - 1
        want_rows = (cells * weights).sum(axis=2)          # (B, n), by x
        want_cols = (cells * weights[:, None]).sum(axis=1)  # (B, n), by y
        for i in range(n):
            assert np.array_equal(rows[i], want_rows[:, i]), (n, i)
            assert np.array_equal(cols[i], want_cols[:, i]), (n, i)
        for code, want_r, want_c in zip(codes.tolist(), want_rows.tolist(),
                                        want_cols.tolist()):
            r = Relation.from_code(n, code)
            assert list(r.rows) == want_r, (n, code)
            assert list(r.converse().rows) == want_c, (n, code)

    def test_matrices_layout(self):
        code = Relation.from_pairs(2, [(0, 1)]).to_code()
        m = matrices_from_codes(np.array([code], dtype=np.uint64), 2)
        assert m.shape == (1, 2, 2)
        assert m[0, 0, 1] == 1 and m[0].sum() == 1


@pytest.fixture(scope="module")
def census3():
    return vector_census(3, pruned=False)


class TestVectorCensus:
    def test_total(self, census3):
        assert census3.total() == 512
        assert census3.n == 3 and census3.pruned is False

    def test_counts_match_direct_tally(self, census3):
        tally = {}
        for code in range(512):
            v = property_vector(Relation.from_code(3, code))
            tally[v] = tally.get(v, 0) + 1
        assert census3.counts == tally

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weighted_census_matches_direct_tally(self, n, direct_census):
        assert vector_census(n, pruned=False).counts == direct_census(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pruned_census_matches_unweighted_tally(self, n, direct_census):
        # every normal form once, with no weights and no second signature
        assert vector_census(n, pruned=True).counts == direct_census(n, pruned=True)

    def test_property_counts_project(self, census3):
        direct = {p: 0 for p in MINED_PROPERTIES}
        for code in range(512):
            r = Relation.from_code(3, code)
            for p in MINED_PROPERTIES:
                direct[p] += holds(r, p)
        assert census3.property_counts() == direct

    def test_pruned_key_set_matches(self, census3):
        pruned = vector_census(3, pruned=True)
        assert pruned.total() == 140
        assert set(pruned.counts) == set(census3.counts)

    def test_inhabited_uninhabited_partition(self, census3):
        assert census3.inhabited() + census3.uninhabited() == 1 << 24

    def test_refuses_pruned_n7_before_streaming(self, no_expansion_tables):
        # the n = 7 normal forms would expand a 9.5 GiB signature tuple
        with pytest.raises(ValueError, match="n <= 6"):
            vector_census(7, pruned=True)

    def test_refuses_unpruned_n7_before_streaming(self, no_expansion_tables):
        # the unpruned census visits the normal forms too
        with pytest.raises(ValueError, match="n <= 6"):
            vector_census(7, pruned=False)


class TestCensusFile:
    def test_round_trip(self):
        census = vector_census(3, pruned=True)
        buf = io.StringIO()
        save_census(census, buf)
        buf.seek(0)
        assert load_census(buf) == census

    def test_header_and_order(self):
        census = vector_census(2, pruned=False)
        buf = io.StringIO()
        save_census(census, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "relcensus v1 n=2 pruned=0 props=24"
        keys = [int(line.split(",")[0], 16) for line in lines[1:]]
        assert keys == sorted(keys)
        assert all(len(line.split(",")[0]) == 6 for line in lines[1:])

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_census(io.StringIO("not a census\n"))
        with pytest.raises(ValueError):
            load_census(io.StringIO("relcensus v2 n=2 pruned=0 props=24\n"))

    def test_load_rejects_header_without_n(self):
        with pytest.raises(ValueError, match="needs n="):
            load_census(io.StringIO("relcensus v1 m=2 pruned=0 props=24\n"))

    def test_load_rejects_pruned_other_than_0_or_1(self):
        with pytest.raises(ValueError, match="pruned=0 or 1"):
            load_census(io.StringIO("relcensus v1 n=2 pruned=yes props=24\n"))

    @pytest.mark.parametrize("n", ["0", "9", "-1"])
    def test_load_rejects_n_out_of_range(self, n):
        with pytest.raises(ValueError, match="needs n=1..8"):
            load_census(io.StringIO(f"relcensus v1 n={n} pruned=0 props=24\n"))

    def test_load_rejects_disorder(self):
        census = vector_census(2, pruned=False)
        buf = io.StringIO()
        save_census(census, buf)
        lines = buf.getvalue().splitlines()
        swapped = "\n".join([lines[0]] + lines[2:3] + lines[1:2] + lines[3:])
        with pytest.raises(ValueError):
            load_census(io.StringIO(swapped + "\n"))

    def test_load_rejects_bad_vector_width(self):
        with pytest.raises(ValueError):
            load_census(io.StringIO(
                "relcensus v1 n=2 pruned=0 props=24\n1000000,4\n"))

    def test_load_rejects_counts_below_one(self):
        # every key of a census is a vector some relation produced
        for line in ("000001,0", "000002,-3"):
            with pytest.raises(ValueError):
                load_census(io.StringIO(
                    f"relcensus v1 n=2 pruned=0 props=24\n{line}\n"))
