import hashlib
from collections import Counter
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellaws import (
    Relation,
    golden,
    RowSignature,
    canonicalize,
    is_normal_form,
    normal_form_count,
    property_vector,
    row_signature,
)
from rellaws.enumeration import (
    DEFAULT_CHUNK,
    column_sorted,
    iter_code_chunks,
    iter_normal_codes,
    signature_tuples,
    tie_weights,
)
from rellaws.relation import row_words

relations = st.integers(1, 6).flatmap(
    lambda n: st.builds(Relation.from_code, st.just(n),
                        st.integers(0, (1 << n * n) - 1)))

COUNTS_ALL = {1: 2, 2: 16, 3: 512, 4: 65536}
COUNTS_NORMAL = {1: 2, 2: 10, 3: 140, 4: 6170}
# normal forms whose column signatures ascend inside every run of equal
# row signatures
COUNTS_COLUMN_SORTED = {1: 2, 2: 10, 3: 108, 4: 3674, 5: 402840}

# sha256 of little-endian uint64 code streams, pinned when the normal-form
# stream was still built one signature tuple at a time
SHA256_NORMAL_5 = "e3e833e832f177e67c83f09b9256421d06966e702a21858c89033059a1e1ed4c"
SHA256_NORMAL_6_FIRST_TWO_CHUNKS = (
    "f96afb95e7444934f4c311f3755523c8d5ff8b6f4d296eb51de85a1362c96a26")


def iter_all_codes(n, chunk_size=DEFAULT_CHUNK):
    """The unpruned stream: every code 0 .. 2^(n*n)-1, ascending."""
    return iter_code_chunks(n, pruned=False, chunk_size=chunk_size)


def stream_size(chunks):
    """The number of codes a code stream yields, drained chunk by chunk."""
    return sum(chunk.size for chunk in chunks)


def normal_form_mask(codes, n):
    """Boolean mask: which codes decode to normal-form matrices. Vectorized."""
    full = np.uint64((1 << n) - 1)
    ok = np.ones(codes.shape, dtype=bool)
    prev = None
    for i in range(n):
        chunk = (codes >> np.uint64(n * (n - 1 - i))) & full
        diag = (chunk >> np.uint64(n - 1 - i)) & np.uint64(1)
        c = np.bitwise_count(chunk.astype(np.uint8)).astype(np.int16) - diag.astype(np.int16)
        sig = 2 * c + diag.astype(np.int16)
        if prev is not None:
            ok &= prev <= sig
        prev = sig
    return ok


def normal_form_weights(codes, n):
    """How many relations `canonicalize` sorts to each normal-form code:
    n!/(m1! m2! ...) for the lengths m of its runs of equal row signatures,
    the ways to deal the runs out to n positions in their stable order."""
    # 2*c + d for the signature (c, d) of row i: c + d bits set, d at bit i
    sigs = [2 * np.bitwise_count(row) - (row >> i & 1)
            for i, row in enumerate(row_words(codes, n))]
    divisor = np.ones(codes.shape, dtype=np.int64)  # m1! m2! ... so far
    run = np.ones(codes.shape, dtype=np.uint8)
    for prev, sig in zip(sigs, sigs[1:]):
        run = np.where(sig == prev, run + 1, 1)
        divisor *= run
    return factorial(n) // divisor


def key_sort(r):
    """`r` stable-sorted by (row signature, column signature); the column
    signature of an element is its row signature in the converse."""
    converse = r.converse()
    return r.permute(sorted(range(r.n), key=lambda i: (
        row_signature(r, i), row_signature(converse, i))))


def kept_weights(n, pruned):
    """{kept code: tie weight} over the whole normal-form stream."""
    weights = tie_weights(n, pruned)
    kept = {}
    for chunk in iter_normal_codes(n):
        codes, patterns = column_sorted(chunk, n)
        kept.update(zip(codes.tolist(), (weights[p] for p in patterns.tolist())))
    return kept


def sha256_of(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.astype("<u8").tobytes())
    return digest.hexdigest()


def relations_of(chunks, n):
    """One Relation per code of a code stream, in stream order."""
    return [Relation.from_code(n, code) for chunk in chunks for code in chunk.tolist()]


class TestSignatures:
    def test_counts_off_diagonal_and_loop(self):
        r = Relation.from_pairs(3, [(0, 0), (0, 1), (0, 2), (1, 0)])
        assert row_signature(r, 0) == RowSignature(2, True)
        assert row_signature(r, 1) == RowSignature(1, False)
        assert row_signature(r, 2) == RowSignature(0, False)

    def test_signature_order_is_by_group_index(self):
        # group index 2c + d: ties on the off-diagonal count break on the loop
        assert RowSignature(1, False) < RowSignature(1, True)
        assert RowSignature(1, True) < RowSignature(2, False)

    def test_signature_tuples_cover_normal_count(self):
        for n in range(1, 6):
            tuples = list(signature_tuples(n))
            assert len(tuples) == len(set(tuples))
            assert all(list(t) == sorted(t) for t in tuples)


class TestCanonicalize:
    def test_worked_example(self):
        # rows (a,b,c,d) with signatures <3,1>, <1,1>, <2,0>, <2,0>;
        # sorting is stable, so the result takes rows in order b, c, d, a
        src = Relation.from_text("1111\n0110\n1001\n1010")
        want = Relation.from_text("1100\n0011\n0101\n1111")
        assert canonicalize(src) == want

    @given(relations)
    @settings(max_examples=200, deadline=None)
    def test_result_is_normal_form(self, r):
        assert is_normal_form(canonicalize(r))

    @given(relations)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, r):
        c = canonicalize(r)
        assert canonicalize(c) == c

    @given(relations)
    @settings(max_examples=100, deadline=None)
    def test_preserves_property_vector(self, r):
        assert property_vector(canonicalize(r)) == property_vector(r)

    def test_normal_form_means_nondecreasing_signatures(self):
        r = Relation.from_pairs(2, [(0, 1)])  # signatures <1,0>, <0,0>
        assert not is_normal_form(r)
        assert is_normal_form(r.permute([1, 0]))


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumerate_all(self, n):
        assert stream_size(iter_all_codes(n)) == COUNTS_ALL[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumerate_normal(self, n):
        assert stream_size(iter_normal_codes(n)) == COUNTS_NORMAL[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closed_form_matches(self, n):
        expected = {1: 2, 2: 10, 3: 140, 4: 6170, 5: 907452,
                    6: 460631444}[n]
        assert normal_form_count(n) == expected

    def test_bounds(self):
        with pytest.raises(ValueError):
            next(iter_code_chunks(0, pruned=False))
        with pytest.raises(ValueError):
            next(iter_code_chunks(9, pruned=True))

    @pytest.mark.parametrize("stream", [iter_all_codes, iter_normal_codes])
    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_rejects_chunk_size_below_one(self, stream, chunk_size):
        # next() only: a chunk size of 0 used to make the unpruned stream yield
        # empty chunks forever
        with pytest.raises(ValueError):
            next(stream(2, chunk_size))

    def test_refuses_normal_forms_beyond_six(self, no_expansion_tables):
        # the largest n = 7 signature tuple alone holds 1.28 * 10^9 codes
        with pytest.raises(ValueError, match="n <= 6"):
            next(iter_normal_codes(7))


class TestGeneration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generation_equals_filtering(self, n):
        gen = np.concatenate(list(iter_normal_codes(n)))
        filt = np.concatenate(
            [c[normal_form_mask(c, n)] for c in iter_all_codes(n)])
        assert sorted(gen.tolist()) == sorted(filt.tolist())

    @pytest.mark.parametrize("n", [2, 3])
    def test_normal_form_mask_matches_predicate(self, n):
        codes = np.arange(1 << n * n, dtype=np.uint64)
        mask = normal_form_mask(codes, n)
        for code, keep in zip(codes.tolist(), mask.tolist()):
            assert keep == is_normal_form(Relation.from_code(n, code))

    def test_chunking_preserves_sequence(self):
        whole = np.concatenate(list(iter_normal_codes(4)))
        tiny = np.concatenate(list(iter_normal_codes(4, chunk_size=17)))
        assert np.array_equal(whole, tiny)

    def test_chunks_hold_at_most_chunk_size(self):
        # one signature-tuple block at n = 4 holds up to 81 codes
        chunks = list(iter_normal_codes(4, chunk_size=17))
        assert max(c.size for c in chunks) <= 17
        assert np.array_equal(np.concatenate(chunks),
                              np.concatenate(list(iter_normal_codes(4))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chunk_boundaries(self, n):
        whole = np.concatenate(list(iter_normal_codes(n)))
        for chunk_size in (1, 17, 4099, whole.size, whole.size + 1):
            chunks = list(iter_normal_codes(n, chunk_size))
            assert all(c.size == chunk_size for c in chunks[:-1]), chunk_size
            assert 1 <= chunks[-1].size <= chunk_size, chunk_size
            assert np.array_equal(np.concatenate(chunks), whole), chunk_size

    def test_iter_code_chunks_dispatch(self):
        a = np.concatenate(list(iter_code_chunks(3, pruned=False)))
        b = np.concatenate(list(iter_code_chunks(3, pruned=True)))
        assert len(a) == COUNTS_ALL[3]
        assert len(b) == COUNTS_NORMAL[3]

    def test_all_generated_codes_are_normal(self):
        for chunk in iter_normal_codes(4):
            for code in chunk.tolist():
                assert is_normal_form(Relation.from_code(4, code))


class TestOrder:
    """The normal-form stream's order, which defines "first witness"."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_order_from_filtering(self, n):
        # signature tuple first, then each row's rank in its signature
        # group, row 0 first; a group's rows rank by ascending chunk value
        codes = np.concatenate(
            [c[normal_form_mask(c, n)] for c in iter_all_codes(n)]).tolist()

        def key(code):
            r = Relation.from_code(n, code)
            chunks = [code >> n * (n - 1 - i) & (1 << n) - 1 for i in range(n)]
            return [row_signature(r, i) for i in range(n)], chunks

        stream = np.concatenate(list(iter_normal_codes(n))).tolist()
        assert stream == sorted(codes, key=key)

    def test_stream_hash_n5(self):
        assert sha256_of(iter_normal_codes(5)) == SHA256_NORMAL_5

    def test_stream_hash_n6_first_chunks(self):
        stream = iter_normal_codes(6, 1 << 18)
        chunks = [next(stream), next(stream)]
        assert [c.size for c in chunks] == [1 << 18, 1 << 18]
        assert sha256_of(chunks) == SHA256_NORMAL_6_FIRST_TWO_CHUNKS


class TestWeights:
    """normal_form_weights: the relations `canonicalize` sorts to each normal form."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weight_is_the_canonicalize_class_size(self, n):
        classes = Counter(canonicalize(Relation.from_code(n, code)).to_code()
                          for code in range(1 << n * n))
        codes = np.concatenate(list(iter_normal_codes(n)))
        assert classes == dict(zip(codes.tolist(),
                                   normal_form_weights(codes, n).tolist()))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_weight_counts_the_permutations_sorting_back(self, n):
        # the relations sorting to a normal form are among its permutations
        rng = np.random.default_rng(n)
        codes = next(iter_normal_codes(n))
        sample = rng.choice(codes, size=12, replace=False)
        for code, weight in zip(sample.tolist(), normal_form_weights(sample, n).tolist()):
            r = Relation.from_code(n, code)
            orbit = {r.permute(order) for order in permutations(range(n))}
            assert sum(canonicalize(q) == r for q in orbit) == weight, (n, code)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_weights_sum_to_every_relation(self, n):
        total = sum(int(normal_form_weights(chunk, n).sum())
                    for chunk in iter_normal_codes(n))
        assert total == 1 << n * n


class TestColumnSorted:
    """column_sorted and tie_weights: the census's second signature."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kept_counts(self, n):
        kept = sum(column_sorted(chunk, n)[0].size for chunk in iter_normal_codes(n))
        assert kept == COUNTS_COLUMN_SORTED[n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_keeps_the_codes_a_key_sort_fixes(self, n):
        # over every relation, not just normal forms
        codes = np.arange(1 << n * n, dtype=np.uint64)
        fixed = [c for c in codes.tolist()
                 if key_sort(Relation.from_code(n, c)).to_code() == c]
        assert column_sorted(codes, n)[0].tolist() == fixed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pruned_weight_counts_the_normal_forms_sorting_to_it(self, n):
        # sorting a normal form by key only reorders its runs of equal
        # row signatures by column signature
        preimages = Counter(key_sort(r).to_code()
                            for r in relations_of(iter_normal_codes(n), n))
        assert preimages == kept_weights(n, pruned=True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unpruned_weight_counts_the_relations_sorting_to_it(self, n):
        preimages = Counter(key_sort(canonicalize(Relation.from_code(n, code))).to_code()
                            for code in range(1 << n * n))
        assert preimages == kept_weights(n, pruned=False)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_weights_sum_to_the_enumerations(self, n):
        assert sum(kept_weights(n, pruned=True).values()) == golden.PRUNED_COUNTS[n]
        assert sum(kept_weights(n, pruned=False).values()) == 1 << n * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unpruned_weight_is_pruned_weight_times_canonicalize_class(self, n):
        # every normal form sorting to a kept code has its row signatures,
        # so the same `canonicalize` class size
        pruned, unpruned = tie_weights(n, True), tie_weights(n, False)
        for chunk in iter_normal_codes(n):
            codes, patterns = column_sorted(chunk, n)
            want = normal_form_weights(codes, n) * [pruned[p] for p in patterns.tolist()]
            assert [unpruned[p] for p in patterns.tolist()] == want.tolist()


class TestVisitor:
    """Visiting each relation of a code stream, built with Relation.from_code."""

    def test_visitor_sees_every_relation_once(self):
        seen = relations_of(iter_all_codes(2), 2)
        assert stream_size(iter_code_chunks(2, pruned=False)) == len(seen) == 16
        assert len({r.to_code() for r in seen}) == 16

    def test_normal_visitor_sees_normal_forms(self):
        seen = relations_of(iter_normal_codes(3), 3)
        assert stream_size(iter_code_chunks(3, pruned=True)) == len(seen) == 140
        assert all(is_normal_form(r) for r in seen)

    def test_counts_agree_with_and_without_visitor(self):
        assert (stream_size(iter_code_chunks(3, pruned=True))
                == len(relations_of(iter_normal_codes(3), 3)))
