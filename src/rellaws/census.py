"""Property and vector censuses over the normal-form stream.

Both censuses draw only the normal forms, and of each chunk evaluate only
the codes that `enumeration.column_sorted` keeps: those whose column
signatures also ascend inside every run of equal row signatures, 402 840
of the 907 452 at n = 5. Each kept code stands for the normal forms
(pruned) or relations (unpruned) that sort to it by (row, column)
signature, and all of these share its property vector. That count,
`tie_weights`, depends only on which neighbouring elements tie, so each
chunk is tallied by (vector, tie pattern) and the distinct pairs, 1 200
to 4 300 per n = 5 chunk, are weighted in Python: one code path serves
both modes.

The predicates of `properties` are evaluated on whole chunks of relation
codes at once. The kept codes are decoded into row and column words, one
numpy uint8 array per element with one entry per code, by the same
`relation.row_words` and `relation.column_words` that decode a single
relation, and the same word-level predicates that `holds` runs on Python
ints run on those arrays; no per-cell array is built. An n = 5 census of
either kind is a pass over 4 chunks of normal forms, each tallied as it
goes.

Since the bulk path and `holds` share their predicates, neither checks the
other; the tests check both against `tests/naive.py`, an independent
restatement of every property as a quantifier sweep over element tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .enumeration import column_sorted, iter_code_chunks, tie_weights
from .properties import MINED_PROPERTIES, VECTOR_BITS, PropertyId, violation_words
from .relation import NMAX, column_words, row_words

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
    rows = row_words(codes, n)
    return rows, column_words(rows), (1 << n) - 1


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


def bulk_vectors(codes: np.ndarray, n: int,
                 props: Iterable[PropertyId] = MINED_PROPERTIES) -> np.ndarray:
    """Property vectors for every code, as a uint32 array: bit p.value is set
    iff p holds, for each p of props (by default the 24 vector properties)."""
    words = _words(codes, n)
    vecs = np.zeros(codes.shape[0], dtype=np.uint32)
    for p in props:
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
    weights = tie_weights(n, pruned)
    counts: dict[int, int] = {}
    for chunk in iter_code_chunks(n, pruned=True):
        codes, patterns = column_sorted(chunk, n)
        # one key per (vector, tie pattern) pair, the pattern in the low 16 bits
        keys = bulk_vectors(codes, n).astype(np.int64) << 16 | patterns
        keys, pairs = np.unique(keys, return_counts=True)
        for key, c in zip(keys.tolist(), pairs.tolist()):
            v = key >> 16
            counts[v] = counts.get(v, 0) + c * weights[key & 0xFFFF]
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
