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
relation codes (the row-major bit-string encoding from `relation`), which
is what lets censuses over 2^25 matrices finish in tens of seconds instead
of days. `enumerate_all` / `enumerate_normal` drive them to count the
relations of each enumeration.

Order contract:

* `enumerate_all` visits codes 0, 1, 2, ..., i.e. matrices ascending as
  row-major bit strings with cell (0, 0) most significant.
* `enumerate_normal` visits normal forms grouped by their row-signature
  tuple: signature tuples ascend lexicographically, and within a tuple the
  concrete rows vary with the last row fastest, each row's patterns
  ascending by chunk value. The order is deterministic and is what
  "first witness" means in the search module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .relation import NMAX, Relation

DEFAULT_CHUNK = 1 << 18

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


# -- row group tables --------------------------------------------------------

@lru_cache(maxsize=None)
def _row_groups(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per row position: the 2n signature groups, each a sorted tuple of
    row chunk values (bit n-1-y = cell value at column y).

    Group index g = 2*c + d for signature (c, d), so ascending g is exactly
    ascending signature. Group sizes depend only on (c, d); the member
    patterns depend on the row position because the diagonal moves.
    """
    per_position = []
    for i in range(n):
        diag_bit = 1 << (n - 1 - i)
        groups: list[list[int]] = [[] for _ in range(2 * n)]
        for chunk in range(1 << n):
            d = 1 if chunk & diag_bit else 0
            c = bin(chunk & ~diag_bit).count("1")
            groups[2 * c + d].append(chunk)
        per_position.append(tuple(tuple(sorted(g)) for g in groups))
    return tuple(per_position)


def signature_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing group-index tuples, lexicographically ascending."""
    return itertools.combinations_with_replacement(range(2 * n), n)


def normal_form_count(n: int) -> int:
    """Count of normal-form matrices by direct combinatorics (no enumeration)."""
    if not 1 <= n <= NMAX:
        raise ValueError(f"universe size must be between 1 and {NMAX}, got {n}")
    from math import comb
    sizes = {}
    for c in range(n):
        for d in (0, 1):
            sizes[2 * c + d] = comb(n - 1, c)
    total = 0
    for tup in signature_tuples(n):
        prod = 1
        for g in tup:
            prod *= sizes[g]
        total += prod
    return total


# -- chunked code generators -------------------------------------------------

def iter_all_codes(n: int, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Every code 0 .. 2^(n*n)-1 in ascending order, as uint64 chunks."""
    if not 1 <= n <= NMAX:
        raise ValueError(f"universe size must be between 1 and {NMAX}, got {n}")
    total = 1 << (n * n)
    start = 0
    while start < total:
        stop = min(start + chunk_size, total)
        yield np.arange(start, stop, dtype=np.uint64)
        start = stop


def iter_normal_codes(n: int, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Every normal-form code in the documented enumerate_normal order.

    Generation is row-group-wise: for each nondecreasing signature tuple
    the member matrices are the cartesian product of the per-position group
    rows, built directly. Nothing is filtered out of the full space. Blocks
    are gathered and cut so that no chunk holds more than chunk_size codes.
    """
    if not 1 <= n <= NMAX:
        raise ValueError(f"universe size must be between 1 and {NMAX}, got {n}")
    groups = _row_groups(n)
    shifts = [n * (n - 1 - i) for i in range(n)]
    pending: list[np.ndarray] = []
    pending_len = 0
    for tup in signature_tuples(n):
        arrays = [
            np.array(groups[i][g], dtype=np.uint64) << np.uint64(shifts[i])
            for i, g in enumerate(tup)
        ]
        block = arrays[0]
        for arr in arrays[1:]:
            # C-order ravel keeps the later row varying fastest
            block = (block[:, None] + arr[None, :]).ravel()
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
    """Stream every n x n relation code once, ascending; return 2^(n*n).

    Only the chunked code stream is driven, which is how the n = 5 count
    stays well under a minute.
    """
    return _count(iter_all_codes(n))


def enumerate_normal(n: int) -> int:
    """Stream every normal-form code once, in the documented order; return the count."""
    return _count(iter_normal_codes(n))
