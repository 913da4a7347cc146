"""Binary relations on small finite sets, stored as bit matrices.

A relation on a universe of n elements (n between 1 and 8) is an n x n
boolean adjacency matrix. Internally each row is one Python int with bit y
set iff element x relates to element y, which keeps every whole-relation
operation a handful of word operations.

Relations also have a single-integer encoding used by the enumeration
machinery: the matrix read as a row-major bit string with cell (0, 0) in
the most significant position. Enumerating codes 0, 1, 2, ... therefore
visits matrices in ascending bit-string order.

This module owns that bit layout. `row_words` decodes codes into row words
and `column_words` transposes row words into column words; both run on
Python ints (one relation) and on numpy arrays holding one word per
relation (a census chunk).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NMAX = 8

_LETTERS = "abcdefgh"


def check_n(n: int) -> None:
    """Refuse a universe size outside 1..NMAX."""
    if not 1 <= n <= NMAX:
        raise ValueError(f"universe size must be between 1 and {NMAX}, got {n}")


@lru_cache(maxsize=None)
def _reversal(n: int) -> np.ndarray:
    """rev[f] is the n-bit field f with its bits reversed, as uint8."""
    rev = np.array([int(f"{f:0{n}b}"[::-1], 2) for f in range(1 << n)],
                   dtype=np.uint8)
    rev.flags.writeable = False
    return rev


def row_words(codes, n: int) -> list:
    """The n row words of `codes`, one int or a uint64 array of codes.

    Row x of a code is its n-bit field at bit n*(n-1-x), holding cell (x, y)
    at bit n-1-y; the bit-reversal table moves that cell to bit y of row
    word x. The words are uint8: numpy scalars for an int, else arrays.
    """
    rev, full = _reversal(n), (1 << n) - 1
    return [rev[codes >> n * (n - 1 - x) & full] for x in range(n)]


def column_words(rows) -> list:
    """Column words of the given row words: bit x of column y is bit y of row x.

    Only & | << >> are used, so the rows may be Python ints or numpy arrays.
    """
    cols = []
    for y in range(len(rows)):
        col = 0
        for row in reversed(rows):  # row x ends up shifted x places
            col = col << 1 | row >> y & 1
        cols.append(col)
    return cols


class Relation:
    """Immutable n x n boolean relation."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: tuple[int, ...]):
        check_n(n)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for r in rows:
            if r & ~full:
                raise ValueError(f"row 0x{r:x} has bits outside an {n}-bit row")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_hash", hash((n, self.rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Relation":
        check_n(n)
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside universe of size {n}")
            rows[x] |= 1 << y
        return cls(n, tuple(rows))

    @classmethod
    def from_code(cls, n: int, code: int) -> "Relation":
        """Decode the row-major bit-string encoding (cell (0,0) most significant)."""
        check_n(n)
        if not 0 <= code < 1 << (n * n):
            raise ValueError(f"code 0x{code:x} out of range for n={n}")
        return cls(n, tuple(int(w) for w in row_words(code, n)))

    @classmethod
    def from_text(cls, text: str) -> "Relation":
        """Parse the matrix text format: n lines of n characters each.

        '1' marks a related pair; '0' or '.' an unrelated one.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        n = len(lines)
        check_n(n)
        rows = []
        for x, ln in enumerate(lines):
            if len(ln) != n:
                raise ValueError(
                    f"line {x + 1} has {len(ln)} characters, expected {n}")
            row = 0
            for y, ch in enumerate(ln):
                if ch == "1":
                    row |= 1 << y
                elif ch not in "0.":
                    raise ValueError(f"bad character {ch!r} in line {x + 1}")
            rows.append(row)
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Relation":
        check_n(n)
        return cls(n, (0,) * n)

    @classmethod
    def universal(cls, n: int) -> "Relation":
        check_n(n)
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        check_n(n)
        return cls(n, tuple(1 << x for x in range(n)))

    # -- basic queries -----------------------------------------------------

    def has(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs, ascending by (x, y)."""
        return [(x, y)
                for x in range(self.n)
                for y in range(self.n)
                if self.rows[x] >> y & 1]

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def column(self, y: int) -> int:
        """The predecessors of y packed as a bit mask over x."""
        return column_words(self.rows)[y]

    def successors(self, x: int) -> set[int]:
        """{y : x R y}"""
        if not 0 <= x < self.n:
            raise ValueError(f"element {x} outside universe of size {self.n}")
        return {y for y in range(self.n) if self.rows[x] >> y & 1}

    def predecessors(self, y: int) -> set[int]:
        """{x : x R y}"""
        if not 0 <= y < self.n:
            raise ValueError(f"element {y} outside universe of size {self.n}")
        return {x for x in range(self.n) if self.rows[x] >> y & 1}

    # -- derived relations -------------------------------------------------

    def converse(self) -> "Relation":
        """The transpose: x R' y iff y R x."""
        return Relation(self.n, tuple(column_words(self.rows)))

    def restrict(self, subset) -> "Relation":
        """Induced relation on the given elements, in the order listed."""
        subset = list(subset)
        if not subset:
            raise ValueError("restriction subset must be nonempty")
        if len(set(subset)) != len(subset):
            raise ValueError("restriction subset has duplicates")
        for x in subset:
            if not 0 <= x < self.n:
                raise ValueError(
                    f"element {x} outside universe of size {self.n}")
        rows = []
        for x in subset:
            row = 0
            for j, y in enumerate(subset):
                if self.rows[x] >> y & 1:
                    row |= 1 << j
            rows.append(row)
        return Relation(len(subset), tuple(rows))

    def permute(self, perm) -> "Relation":
        """Simultaneous row/column reorder: result[i][j] = self[perm[i]][perm[j]].

        perm lists old indices in their new order, so it is the inverse image
        map. Relabeling elements never changes any of the properties here.
        """
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        return self.restrict(perm)

    # -- encodings ---------------------------------------------------------

    def to_code(self) -> int:
        """Inverse of `from_code`; the bit reversal is its own inverse."""
        n, rev = self.n, _reversal(self.n)
        code = 0
        for x, row in enumerate(self.rows):
            code |= int(rev[row]) << n * (n - 1 - x)
        return code

    def to_text(self) -> str:
        """Matrix text form, one line per row, '1' related and '.' not."""
        return "\n".join(
            "".join("1" if self.rows[x] >> y & 1 else "."
                    for y in range(self.n))
            for x in range(self.n))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ",".join(f"{r:0{self.n}b}"[::-1] for r in self.rows)
        return f"Relation({self.n}, <{body}>)"


def element_names(n: int) -> list[str]:
    """Default display labels a, b, c, ... for a universe of size n."""
    check_n(n)
    return list(_LETTERS[:n])
