"""Property and vector censuses over the normal-form stream.

Both censuses visit only the normal forms; the unpruned one counts each by
its `normal_form_weights`, the relations that `canonicalize` sorts to it,
which share its property vector. The predicates of `properties` are
evaluated on whole chunks of relation codes at once. A chunk is decoded
into row and column words, one numpy uint8 array per element with one
entry per code, and the same word-level predicates that `holds` runs on
Python ints run on those arrays. Row x of a code is its n-bit field at bit
n*(n-1-x), with cell (x, y) at bit n-1-y, so a shift, a mask and a
2^n-entry bit-reversal table give the row word (cell (x, y) at bit y); the
column words are then packed from the row bits, and no per-cell array is
built. An n = 5 census of either kind is a pass over 4 chunks of normal
forms, each tallied as it goes.

Since the bulk path and `holds` share their predicates, neither checks the
other; the tests check both against `tests/naive.py`, an independent
restatement of every property as a quantifier sweep over element tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .enumeration import iter_code_chunks, normal_form_weights
from .properties import MINED_PROPERTIES, VECTOR_BITS, PropertyId, violation_words
from .relation import NMAX

CENSUS_FORMAT = "relcensus v1"


def matrices_from_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode a code array to a (B, n, n) uint8 adjacency block."""
    # bit of cell (x, y) inside a code is n*n-1 - (x*n + y)
    shifts = np.array(
        [n * n - 1 - (x * n + y) for x in range(n) for y in range(n)],
        dtype=np.uint64)
    bits = (codes[:, None] >> shifts[None, :]) & np.uint64(1)
    return bits.astype(np.uint8).reshape(codes.shape[0], n, n)


def _words(codes: np.ndarray, n: int) -> tuple[list, list, int]:
    """Row and column words of every code, one (B,) uint8 array per element."""
    # row x is the n-bit field at n*(n-1-x), holding cell (x, y) at bit n-1-y;
    # rev[f] moves bit n-1-y of f to bit y
    rev = np.array([int(f"{f:0{n}b}"[::-1], 2) for f in range(1 << n)],
                   dtype=np.uint8)
    full = np.uint64((1 << n) - 1)
    rows = [rev[(codes >> np.uint64(n * (n - 1 - x))) & full] for x in range(n)]
    cols = []
    for y in range(n):
        col = np.zeros_like(rows[0])
        for x, row in enumerate(rows):
            col |= (row >> y & 1) << x
        cols.append(col)
    return rows, cols, (1 << n) - 1


def _holds(words, p: PropertyId) -> np.ndarray:
    acc = np.zeros_like(words[0][0])
    for w in violation_words(p, *words):
        acc |= w
    return acc == 0


def bulk_holds(codes: np.ndarray, n: int,
               props: Iterable[PropertyId]) -> dict[PropertyId, np.ndarray]:
    """Evaluate the given properties on every code; one bool array each."""
    words = _words(codes, n)
    return {p: _holds(words, p) for p in props}


def bulk_vectors(codes: np.ndarray, n: int) -> np.ndarray:
    """24-bit property vectors for every code, as a uint32 array."""
    words = _words(codes, n)
    vecs = np.zeros(codes.shape[0], dtype=np.uint32)
    for p in MINED_PROPERTIES:
        vecs |= _holds(words, p).astype(np.uint32) << np.uint32(p.value)
    return vecs


# -- census types and operations ---------------------------------------------

@dataclass
class VectorCensus:
    """How many relations of the enumeration produce each 24-bit property vector."""

    n: int
    pruned: bool
    counts: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def inhabited(self) -> int:
        """Number of distinct vectors that actually occur."""
        return len(self.counts)

    def uninhabited(self) -> int:
        """Number of 24-bit vectors no relation of the enumeration produces."""
        return (1 << VECTOR_BITS) - len(self.counts)

    def property_counts(self) -> dict[PropertyId, int]:
        totals = {p: 0 for p in MINED_PROPERTIES}
        for vec, cnt in self.counts.items():
            for p in MINED_PROPERTIES:
                if vec >> p.value & 1:
                    totals[p] += cnt
        return totals


def vector_census(n: int, pruned: bool = False) -> VectorCensus:
    """Census of property vectors over the chosen enumeration of size-n relations."""
    counts: dict[int, int] = {}
    for chunk in iter_code_chunks(n, pruned=True):
        vecs = bulk_vectors(chunk, n)
        if pruned:
            values, tallies = np.unique(vecs, return_counts=True)
        else:
            # one key per (vector, weight) pair, the weight in the low 16 bits
            keys = vecs.astype(np.int64) << 16 | normal_form_weights(chunk, n)
            keys, pairs = np.unique(keys, return_counts=True)
            values, tallies = keys >> 16, (keys & 0xFFFF) * pairs
        for v, c in zip(values.tolist(), tallies.tolist()):
            counts[v] = counts.get(v, 0) + c
    return VectorCensus(n, pruned, {v: counts[v] for v in sorted(counts)})


# -- persistence ---------------------------------------------------------------
#
# Text format, one file per census:
#   relcensus v1 n=<n> pruned=<0|1> props=24
#   <6 hex digit vector>,<count>      (ascending by vector)

def save_census(census: VectorCensus, fp: TextIO) -> None:
    fp.write(f"{CENSUS_FORMAT} n={census.n} pruned={1 if census.pruned else 0} "
             f"props={VECTOR_BITS}\n")
    for vec in sorted(census.counts):
        fp.write(f"{vec:06x},{census.counts[vec]}\n")


def load_census(fp: TextIO) -> VectorCensus:
    header = fp.readline().strip()
    parts = header.split()
    if (len(parts) != 5 or " ".join(parts[:2]) != CENSUS_FORMAT
            or not all("=" in p for p in parts[2:])):
        raise ValueError(f"not a census file (header {header!r})")
    fields = dict(p.split("=", 1) for p in parts[2:])
    if fields.get("props") != str(VECTOR_BITS):
        raise ValueError(f"unsupported property count {fields.get('props')}")
    n_s, pruned_s = fields.get("n", ""), fields.get("pruned")
    if not (n_s.isdecimal() and 1 <= int(n_s) <= NMAX) or pruned_s not in ("0", "1"):
        raise ValueError(f"census header needs n=1..{NMAX} and pruned=0 or 1: {header!r}")
    n, pruned = int(n_s), pruned_s == "1"
    counts: dict[int, int] = {}
    prev = -1
    for lineno, line in enumerate(fp, start=2):
        line = line.strip()
        if not line:
            continue
        vec_s, cnt_s = line.split(",")
        vec = int(vec_s, 16)
        if not 0 <= vec < 1 << VECTOR_BITS:
            raise ValueError(f"line {lineno}: vector out of range")
        if vec <= prev:
            raise ValueError(f"line {lineno}: vectors not ascending")
        prev = vec
        count = int(cnt_s)
        if count <= 0:
            raise ValueError(f"line {lineno}: count {count} is not positive")
        counts[vec] = count
    return VectorCensus(n, pruned, counts)
