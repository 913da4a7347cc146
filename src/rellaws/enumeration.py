"""Exhaustive enumeration of relations, unpruned or in row-signature normal form.

The normal form is the cheap symmetry reduction used throughout: the
signature of row i is the pair (off-diagonal true count, diagonal bit), and
a matrix is in normal form when its signature sequence is lexicographically
nondecreasing from row 0 to row n-1. Signatures are invariant under
simultaneous row/column permutation, so every relation can be brought into
normal form by one stable sort, and enumerating only normal forms cuts the
n = 5 space from 33 554 432 matrices to 907 452 while keeping at least one
representative of every isomorphism class. Normal form is not a canonical
form: distinct normal-form matrices can still be isomorphic.

Enumeration is chunked: the workhorse generators yield numpy arrays of
relation codes (the row-major bit-string encoding from `relation`), and
`normal_form_weights` gives the relations each normal form stands for.
The normal forms with a given signature tuple are the cartesian product
of one signature group of rows per position, so `iter_normal_codes`
builds them directly: with the group rows of every position laid out once
per n, a run of tuples is expanded position by position, each partial
code repeated once per row of its group there and that row ORed in. There
is no per-tuple Python work and no filtering of the full space; runs are
bounded to about `_EXPAND_CODES` codes and the stream is cut into chunks
of exactly the chunk size. `enumerate_all` / `enumerate_normal` drive the
generators to count the relations of each enumeration.

Order contract:

* `iter_all_codes` yields codes 0, 1, 2, ..., i.e. matrices ascending as
  row-major bit strings with cell (0, 0) most significant.
* `iter_normal_codes` yields normal forms grouped by their row-signature
  tuple: signature tuples ascend lexicographically, and within a tuple the
  concrete rows vary with the last row fastest, each row's patterns
  ascending by chunk value. The order is deterministic and is what
  "first witness" means in the search module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator, NamedTuple

import numpy as np

from .relation import Relation, check_n, row_words

DEFAULT_CHUNK = 1 << 18

# the largest n whose normal forms are streamed: the largest signature
# tuple alone holds 10^6 codes at n = 6 and 1.28 * 10^9 (9.5 GiB) at n = 7
NORMAL_MAX_N = 6

# set bits of each byte value; `mining` counts its packed on-set with it
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


class RowSignature(NamedTuple):
    off_diag: int
    diagonal: bool


def row_signature(r: Relation, i: int) -> RowSignature:
    """Signature of row i: (count of off-diagonal trues, diagonal bit)."""
    if not 0 <= i < r.n:
        raise ValueError(f"row {i} outside universe of size {r.n}")
    row = r.rows[i]
    diag = bool(row >> i & 1)
    return RowSignature((row & ~(1 << i)).bit_count(), diag)


def is_normal_form(r: Relation) -> bool:
    """True iff the row signature sequence is nondecreasing."""
    sigs = [row_signature(r, i) for i in range(r.n)]
    return all(sigs[i] <= sigs[i + 1] for i in range(r.n - 1))


def canonicalize(r: Relation) -> Relation:
    """Stable-sort rows and columns together by row signature.

    The result is in normal form and, being a simultaneous permutation,
    satisfies exactly the same properties as r. Ties keep their original
    order, so the map is deterministic but not a canonical representative
    of the isomorphism class.
    """
    order = sorted(range(r.n), key=lambda i: row_signature(r, i))
    return r.permute(order)


# -- signature groups --------------------------------------------------------

# codes `iter_normal_codes` expands at a time: this bounds its working
# arrays (expanding whole 2^18-code chunks took about 10 MiB more memory)
_EXPAND_CODES = 1 << 15


def signature_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing group-index tuples, lexicographically ascending."""
    return itertools.combinations_with_replacement(range(2 * n), n)


def _group_sizes(n: int) -> list[int]:
    """Rows per signature group g = 2*c + d: the c-subsets of the n-1
    off-diagonal cells, whatever the diagonal bit d."""
    return [comb(n - 1, g // 2) for g in range(2 * n)]


class _Layout(NamedTuple):
    tuples: np.ndarray   # (T, n) int32: the signature tuples, in order
    sizes: np.ndarray    # (2n,) rows per group; the same at every position
    starts: np.ndarray   # (2n,) offset of each group in a row of `rows`
    rows: np.ndarray     # (n, 2^n) uint64: position i's groups back to back,
                         # each ascending, shifted into row i of the code
    offsets: np.ndarray  # (T + 1,) codes before each tuple; the last is the total


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    """The tables `iter_normal_codes` expands signature tuples with.

    A row chunk (bit n-1-y = cell value at column y) at position i is in
    group g = 2*c + d for its signature (c, d), so ascending g is exactly
    ascending signature. Group sizes depend only on (c, d); the member
    chunks depend on the position because the diagonal moves.
    """
    tuples = np.fromiter(itertools.chain.from_iterable(signature_tuples(n)),
                         dtype=np.int32).reshape(-1, n)
    sizes = np.array(_group_sizes(n), dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    rows = np.empty((n, 1 << n), dtype=np.uint64)
    for i in range(n):
        diag_bit = 1 << (n - 1 - i)
        chunks = sorted(range(1 << n), key=lambda chunk: (
            2 * (chunk & ~diag_bit).bit_count() + bool(chunk & diag_bit), chunk))
        rows[i] = np.array(chunks, dtype=np.uint64) << np.uint64(n * (n - 1 - i))
    offsets = np.zeros(len(tuples) + 1, dtype=np.int64)
    np.cumsum(np.prod(sizes[tuples], axis=1), out=offsets[1:])
    return _Layout(tuples, sizes, starts, rows, offsets)


def _expand(layout: _Layout, first: int, stop: int) -> np.ndarray:
    """The codes of signature tuples first .. stop-1, in stream order.

    Row by row, each partial code is repeated once per row of its group at
    that position and the rows are ORed in, so row 0 varies slowest and
    the last row fastest.
    """
    tuples = layout.tuples[first:stop]
    codes = np.zeros(len(tuples), dtype=np.uint64)
    owner = np.arange(len(tuples))  # tuple of each partial code
    for i, rows in enumerate(layout.rows):
        g = tuples[owner, i]
        reps = layout.sizes[g]
        ends = np.cumsum(reps)
        # a code's rank in its group is its index less its segment's start
        index = np.repeat(layout.starts[g] - (ends - reps), reps)
        index += np.arange(ends[-1])
        codes = np.repeat(codes, reps) | rows[index]
        if i + 1 < len(layout.rows):
            owner = np.repeat(owner, reps)
    return codes


def normal_form_count(n: int) -> int:
    """Count of normal-form matrices by direct combinatorics (no enumeration)."""
    check_n(n)
    sizes = _group_sizes(n)
    return sum(prod(sizes[g] for g in tup) for tup in signature_tuples(n))


def normal_form_weights(codes: np.ndarray, n: int) -> np.ndarray:
    """How many relations `canonicalize` sorts to each normal-form code:
    n!/(m1! m2! ...) for the lengths m of its runs of equal row signatures,
    the ways to deal the runs out to n positions in their stable order."""
    # 2*c + d for the signature (c, d) of row i: c + d bits set, d at bit i
    sigs = [2 * _POPCOUNT8[row] - (row >> i & 1)
            for i, row in enumerate(row_words(codes, n))]
    divisor = np.ones(codes.shape, dtype=np.int64)  # m1! m2! ... so far
    run = np.ones(codes.shape, dtype=np.uint8)
    for prev, sig in zip(sigs, sigs[1:]):
        run = np.where(sig == prev, run + 1, 1)
        divisor *= run
    return factorial(n) // divisor


# -- chunked code generators -------------------------------------------------

def _check_args(n: int, chunk_size: int) -> None:
    check_n(n)
    if chunk_size < 1:
        raise ValueError(f"chunk size must be at least 1, got {chunk_size}")


def iter_all_codes(n: int, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Every code 0 .. 2^(n*n)-1 in ascending order, as uint64 chunks."""
    _check_args(n, chunk_size)
    total = 1 << (n * n)
    start = 0
    while start < total:
        stop = min(start + chunk_size, total)
        yield np.arange(start, stop, dtype=np.uint64)
        start = stop


def iter_normal_codes(n: int, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Every normal-form code in the documented order.

    The codes of a signature tuple are the cartesian product of its
    per-position group rows, built directly: nothing is filtered out of
    the full space. Runs of whole tuples holding about `_EXPAND_CODES`
    codes (one tuple, if it alone holds more) are expanded at once, and
    the stream is cut into chunks of exactly chunk_size codes; only the
    last chunk may be shorter. Beyond `NORMAL_MAX_N` it refuses at once.
    """
    _check_args(n, chunk_size)
    if n > NORMAL_MAX_N:
        raise ValueError(f"normal forms are streamed for n <= {NORMAL_MAX_N}, "
                         f"got {n}")
    layout = _layout(n)
    offsets = layout.offsets
    pending: list[np.ndarray] = []
    pending_len = 0
    first = 0
    while first < len(layout.tuples):
        # the longest run of tuples from `first` within the bound, at least one
        stop = int(np.searchsorted(offsets, offsets[first] + _EXPAND_CODES,
                                   side="right")) - 1
        stop = max(stop, first + 1)
        block = _expand(layout, first, stop)
        first = stop
        pending.append(block)
        pending_len += block.size
        if pending_len >= chunk_size:
            codes = np.concatenate(pending)
            whole = pending_len - pending_len % chunk_size
            # drop the blocks before the chunks go out: one copy stays alive
            pending, pending_len = [codes[whole:]], pending_len - whole
            for start in range(0, whole, chunk_size):
                yield codes[start:start + chunk_size]
    if pending_len:
        yield np.concatenate(pending)


def iter_code_chunks(n: int, pruned: bool = False,
                     chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Unified front for the two enumeration modes."""
    return iter_normal_codes(n, chunk_size) if pruned else iter_all_codes(n, chunk_size)


# -- counting ----------------------------------------------------------------

def _count(chunks: Iterator[np.ndarray]) -> int:
    return sum(int(chunk.size) for chunk in chunks)


def enumerate_all(n: int) -> int:
    """Stream every n x n relation code once, ascending; return 2^(n*n)."""
    return _count(iter_all_codes(n))


def enumerate_normal(n: int) -> int:
    """Stream every normal-form code once, in the documented order; return the count."""
    return _count(iter_normal_codes(n))
