"""Independent property vectors for whole arrays of relation codes.

Each predicate is the quantifier sweep of `tests/naive.py`, restated over
bit-packed boolean arrays: `R[x][y]` holds cell (x, y) of every code at
once, so "for all x, y, z" becomes a chain of bitwise ANDs over element
tuples. Nothing here shares code with the rellaws predicates or its numpy
kernels; only the code layout (cell (0, 0) most significant) and the bit
position of each property in a vector are taken from the program's format.

The benchmark checks census tallies and `min_universe` answers against
these vectors, and checks these vectors against `tests/naive.py` on a
sample in every run.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from rellaws import PropertyId as P


def oracle_vectors(codes: np.ndarray, n: int) -> np.ndarray:
    """24-bit property vector of every code, as a uint32 array."""
    codes = np.asarray(codes, dtype=np.uint64)
    count = codes.shape[0]
    U = range(n)
    R = [[np.packbits((codes >> np.uint64(n * n - 1 - (x * n + y))) & np.uint64(1) == 1)
          for y in U] for x in U]
    ones = np.full_like(R[0][0], 0xFF)

    def every(terms):
        acc = ones.copy()
        for t in terms:
            acc &= t
        return acc

    def some(terms):
        acc = np.zeros_like(ones)
        for t in terms:
            acc |= t
        return acc

    pairs = list(product(U, repeat=2))
    triples = list(product(U, repeat=3))
    quads = list(product(U, repeat=4))
    inc = [[~(R[x][y] | R[y][x]) for y in U] for x in U]
    strict = [[R[x][y] & ~R[y][x] for y in U] for x in U]

    def trans(T):
        return every(~(T[x][y] & T[y][z]) | T[x][z] for x, y, z in triples)

    lf_quasirefl = every(~R[x][y] | R[x][x] for x, y in pairs)
    rg_quasirefl = every(~R[x][y] | R[y][y] for x, y in pairs)
    truth = {
        P.Empty: every(~R[x][y] for x, y in pairs),
        P.Univ: every(R[x][y] for x, y in pairs),
        P.CoRefl: every(~R[x][y] for x, y in pairs if x != y),
        P.LfEucl: every(~(R[y][x] & R[z][x]) | R[y][z] for x, y, z in triples),
        P.RgEucl: every(~(R[x][y] & R[x][z]) | R[y][z] for x, y, z in triples),
        P.LfUnique: every(~(R[x][z] & R[y][z]) for x, y, z in triples if x != y),
        P.RgUnique: every(~(R[z][x] & R[z][y]) for z, x, y in triples if x != y),
        P.Sym: every(~R[x][y] | R[y][x] for x, y in pairs),
        P.AntiTrans: every(~(R[x][y] & R[y][z] & R[x][z]) for x, y, z in triples),
        P.ASym: every(~(R[x][y] & R[y][x]) for x, y in pairs),
        P.Connex: every(R[x][y] | R[y][x] for x, y in pairs),
        P.Trans: trans(R),
        P.SemiOrd1: every(~(R[x][a] & inc[a][b] & R[b][z]) | R[x][z]
                          for x, a, b, z in quads),
        P.Irrefl: every(~R[x][x] for x in U),
        P.Refl: every(R[x][x] for x in U),
        P.QuasiRefl: lf_quasirefl & rg_quasirefl,
        P.AntiSym: every(~(R[x][y] & R[y][x]) for x, y in pairs if x != y),
        P.SemiConnex: every(R[x][y] | R[y][x] for x, y in pairs if x != y),
        P.IncTrans: every(~(inc[x][y] & inc[y][z]) | inc[x][z] for x, y, z in triples),
        P.SemiOrd2: every(~(R[x][y] & R[y][z] & inc[w][x] & inc[w][y] & inc[w][z])
                          for x, y, z, w in quads),
        P.QuasiTrans: trans(strict),
        P.Dense: every(~R[x][y] | some(R[x][z] & R[z][y] for z in U) for x, y in pairs),
        P.LfSerial: every(some(R[x][y] for x in U) for y in U),
        P.RgSerial: every(some(R[x][y] for y in U) for x in U),
    }
    vecs = np.zeros(count, dtype=np.uint32)
    for p, packed in truth.items():
        vecs |= np.unpackbits(packed, count=count).astype(np.uint32) << np.uint32(p.value)
    return vecs


def oracle_tally(codes: np.ndarray, n: int) -> dict[int, int]:
    """How many of the codes have each property vector."""
    values, counts = np.unique(oracle_vectors(codes, n), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
