"""Mining non-occurring property combinations into law suggestions.

The search space is the 24-bit vector space of a census. A vector is "off"
when some visited relation produced it (the combination exists, so no law),
and "on" when no relation did. An implicant (mask, value) names the cube
of all vectors u with u & mask == value; level = popcount(mask). The miner
scans levels top-down (coarsest cubes first) and inside a level scans
masks in ascending numeric order, values in ascending numeric order. A
cube that covers no off vector and at least one still-on vector is prime:
it is reported as a law and its whole cube becomes don't-care, so later
(smaller) cubes inside it are not reported again.

A reported law is the complement clause of its implicant: implicant
ASym=1, Irrefl=0 reads "no relation is asymmetric and not irreflexive",
i.e. the law ASym -> Irrefl. `format_law` prints implicant polarity
("ASym ~Irrefl"), literals ascending by bit position.

The state is one bitset, `words`, over the whole space: off vectors and
don't-cares are cleared. It is packed 64 vectors to a uint64 word, vector
u at bit u & 63 of word u >> 6, and the words are viewed as n_props - 6
axes of length 2 (one word, with its low 2^n_props bits in use, when
n_props < 6). A cube is then two parts: its literals at bits 6 and up
pick a slice of that view, and its literals below bit 6 pick the bits j
of each word with j & mask == value, a 64-bit in-word pattern. A cube
is tested by ANDing the pattern with the OR of the slice's words and
absorbed by clearing the pattern in the slice in place, so a test reads
one bit in 64 of the space where a bool array would read one byte per
vector, and neither copies the slice. Which cubes get
tested comes from whichever is fewer at the level, its masks or its
still-on vectors, and both sources are exact:

* from the masks, each value whose cube avoids off while every parent
  cube (one literal dropped) hits off, the Quine-McCluskey prime
  condition. A cube with an off-free parent lies inside a cube the scan
  of the level before either reported or found without on vectors, so
  it can never be reported. The masks are taken in batches: each off
  vector is projected onto each mask's k bits as a k-bit pattern, the
  hit patterns are marked in one (batch, 2^k) table, and a pattern is
  kept when it is not hit while its k neighbours (one bit flipped) are;
  the kept patterns are deposited back into the mask bits.
* from the on vectors, each on u paired with every mask m that meets
  every difference set u ^ o of an off o: the cubes (m, u & m) that hold
  u and avoid off, i.e. the transversals of that hypergraph. A mask that
  meets a set meets every superset of it, so only the inclusion-minimal
  difference sets are tested, smallest first; they are a handful of the
  off count. A cube with no on vector at the start of the level cannot
  gain one.

Both feed one loop that tests and absorbs candidates in (mask, value)
order, so the laws are those of the plain scan. Once a level starts with
no vector on, no cube at any deeper level can be prime, and the scan stops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence, TextIO

import numpy as np

from .census import VectorCensus
from .properties import MINED_PROPERTIES, VECTOR_BITS, PropertyId

_BY_BIT = {p.value: p for p in MINED_PROPERTIES}


@dataclass(frozen=True)
class Implicant:
    """A cube (mask, value): the vectors u with u & mask == value."""

    mask: int
    value: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << VECTOR_BITS:
            raise ValueError(f"mask 0x{self.mask:x} is not a 24-bit word")
        if self.value & ~self.mask:
            raise ValueError(
                f"value 0x{self.value:x} has bits outside mask 0x{self.mask:x}")

    @property
    def level(self) -> int:
        return self.mask.bit_count()

    def covers(self, vector: int) -> bool:
        return vector & self.mask == self.value

    def literals(self) -> list[tuple[PropertyId, bool]]:
        """(property, polarity) pairs, ascending by bit."""
        out = []
        for bit in range(VECTOR_BITS):
            if self.mask >> bit & 1:
                out.append((_BY_BIT[bit], bool(self.value >> bit & 1)))
        return out


@dataclass(frozen=True)
class Law:
    seq: int
    implicant: Implicant

    @property
    def level(self) -> int:
        return self.implicant.level

    @property
    def text(self) -> str:
        return format_law(self)


def format_law(law) -> str:
    """Law text: literals ascending by bit, '~' for negative polarity."""
    imp = law.implicant if isinstance(law, Law) else law
    parts = []
    for prop, positive in imp.literals():
        parts.append(prop.name if positive else "~" + prop.name)
    return " ".join(parts)


def law_line(law: Law) -> str:
    return f"{law.seq:03d}: {law.text}"


def parse_law_text(text: str) -> Implicant:
    """Inverse of format_law."""
    mask = value = 0
    for token in text.split():
        positive = not token.startswith("~")
        name = token.lstrip("~")
        try:
            prop = PropertyId[name]
        except KeyError:
            raise ValueError(f"unknown property {name!r}") from None
        if prop.bit is None:
            raise ValueError(f"property {name} has no vector bit")
        if mask >> prop.bit & 1:
            raise ValueError(f"property {name} named twice")
        mask |= 1 << prop.bit
        if positive:
            value |= 1 << prop.bit
    if not mask:
        raise ValueError("law text holds no literals")
    return Implicant(mask, value)


@dataclass(frozen=True)
class LevelStats:
    level: int
    on_at_start: int
    off_count: int
    dontcare_at_start: int


@dataclass
class MineResult:
    laws: list[Law]
    level_stats: list[LevelStats]
    max_level: int
    n_props: int

    def per_level_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for law in self.laws:
            counts[law.level] = counts.get(law.level, 0) + 1
        return counts


def _masks_of_popcount(n_bits: int, k: int) -> np.ndarray:
    """All k-of-n_bits masks in ascending numeric order, as uint32."""
    # by[j]: the masks of popcount j over the low bits so far, ascending;
    # each mask holding the next bit exceeds each mask without it
    by = [np.zeros(1, dtype=np.uint32)] + [np.zeros(0, dtype=np.uint32)] * k
    for b in range(n_bits):
        bit = np.uint32(1 << b)
        by = [by[0]] + [np.concatenate([by[j], by[j - 1] | bit])
                        for j in range(1, k + 1)]
    return by[k]


_WORD_BITS = 6  # vector u is bit u & 63 of word u >> 6


@lru_cache(maxsize=None)
def _pattern(mask_lo: int, value_lo: int) -> np.uint64:
    """The bits j of a word with j & mask_lo == value_lo."""
    return np.uint64(sum(1 << j for j in range(64) if j & mask_lo == value_lo))


def _cube(mask: int, value: int, n_props: int) -> tuple[tuple, np.uint64]:
    """The cube (mask, value) as a slice of the word view and an in-word pattern."""
    # axis i of the view is bit n_props-1-i of the vector
    idx = tuple(value >> b & 1 if mask >> b & 1 else slice(None)
                for b in reversed(range(_WORD_BITS, n_props)))
    return idx, _pattern(mask & 63, value & 63)


def _on_vectors(words: np.ndarray) -> np.ndarray:
    """The vectors whose bits are set, ascending."""
    at = np.flatnonzero(words)
    bits = np.unpackbits(words[at].astype("<u8").view(np.uint8), bitorder="little")
    pos = np.flatnonzero(bits)
    return (at[pos >> _WORD_BITS] << _WORD_BITS | pos & 63).astype(np.uint32)


_BATCH_CELLS = 1 << 16  # cells of the (masks, off) and (masks, 2^k) tables per batch


def _mask_candidates(off: np.ndarray, n_props: int,
                     level: int) -> Iterator[tuple[int, int]]:
    """Cubes that avoid off while every scanned parent cube hits it."""
    masks = _masks_of_popcount(n_props, level)
    # pos[i]: the level bit positions of masks[i], ascending
    pos = np.nonzero(masks[:, None] >> np.arange(n_props, dtype=np.uint32) & 1)[1]
    pos = pos.reshape(masks.size, level).astype(np.uint32)
    patterns = 1 << level
    dtype = np.min_scalar_type(patterns - 1)
    batch = max(1, _BATCH_CELLS // max(off.size, patterns))
    for start in range(0, masks.size, batch):
        at = pos[start:start + batch]
        # q[i, o]: off vector o projected onto the bits of mask i; bit j of
        # the pattern is bit at[i, j] of the vector
        q = np.zeros((at.shape[0], off.size), dtype=dtype)
        for j in range(level):
            q |= (off >> at[:, j, None] & 1).astype(dtype) << j
        hit = np.zeros((at.shape[0], patterns), dtype=bool)
        np.put_along_axis(hit, q, True, axis=1)
        keep = ~hit
        if level > 1:  # level 0 is never scanned
            for j in range(level):
                # the parent without literal j hits off iff q ^ 1 << j is hit
                flip = (at.shape[0], patterns >> j + 1, 2, 1 << j)
                parents = keep.reshape(flip)
                parents &= hit.reshape(flip)[:, :, ::-1]
        rows, kept = np.nonzero(keep)
        # deposit each kept pattern back into its mask's bits; the deposit
        # keeps the order of patterns, so values ascend within each mask
        values = np.zeros(kept.size, dtype=np.uint32)
        for j in range(level):
            values |= (kept >> j & 1).astype(np.uint32) << at[rows, j]
        yield from zip(masks[start + rows].tolist(), values.tolist())


def _vector_candidates(off: np.ndarray, on: np.ndarray, n_props: int,
                       level: int) -> Iterator[tuple[int, int]]:
    """The off-free cubes of the level around each on vector, ascending."""
    masks = _masks_of_popcount(n_props, level)
    keys = []
    for u in on.tolist():
        # (m, u & m) avoids off iff m meets every difference set u ^ o,
        # i.e. every minimal one; the smallest set left is always minimal
        diffs = off ^ np.uint32(u)
        diffs = diffs[np.argsort(np.bitwise_count(diffs), kind="stable")]
        fit = masks
        while diffs.size:
            least = diffs[0]
            fit = fit[fit & least != 0]
            diffs = diffs[diffs & least != least]  # least and its supersets
        keys.append(fit.astype(np.uint64) << np.uint64(n_props) | (fit & np.uint32(u)))
    for key in np.unique(np.concatenate(keys)).tolist():
        yield key >> n_props, key & ((1 << n_props) - 1)


def mine(census: VectorCensus, max_level: int = 8,
         n_props: int = VECTOR_BITS) -> MineResult:
    """Scan cubes of level 1..max_level; return the prime laws in order.

    Off vectors are the census keys (count > 0); every other vector in the
    n_props-bit space starts on. Laws come out numbered from 1 in the scan
    order (level, then mask, then value, all ascending).
    """
    if not 1 <= n_props <= VECTOR_BITS:
        raise ValueError(f"n_props must be 1..{VECTOR_BITS}, got {n_props}")
    if not 1 <= max_level <= n_props:
        raise ValueError(f"max_level must be 1..{n_props}, got {max_level}")
    bad = [v for v in census.counts if v >> n_props]
    if bad:
        raise ValueError(
            f"census vector 0x{bad[0]:x} exceeds the {n_props}-bit space")
    off = np.array(list(census.counts), dtype=np.uint32)
    space = 1 << n_props
    high = max(n_props - _WORD_BITS, 0)
    words = np.full(1 << high, (1 << min(space, 64)) - 1, dtype=np.uint64)
    np.bitwise_and.at(words, off >> _WORD_BITS,
                      ~(np.uint64(1) << (off & 63).astype(np.uint64)))
    view = words.reshape((2,) * high)

    laws: list[Law] = []
    stats: list[LevelStats] = []
    for level in range(1, max_level + 1):
        on_now = int(np.bitwise_count(words).sum())
        stats.append(LevelStats(level, on_now, off.size, space - off.size - on_now))
        if on_now == 0:
            break  # nothing below can be prime any more
        if comb(n_props, level) <= on_now:
            candidates = _mask_candidates(off, n_props, level)
        else:
            candidates = _vector_candidates(off, _on_vectors(words), n_props, level)
        for mask, value in candidates:
            idx, pattern = _cube(mask, value, n_props)
            cube = view[idx + (...,)]  # a view, 0-d when idx picks every axis
            if np.bitwise_or.reduce(cube, axis=None) & pattern:
                laws.append(Law(len(laws) + 1, Implicant(mask, value)))
                np.bitwise_and(cube, ~pattern, out=cube)
    return MineResult(laws, stats, max_level, n_props)


# -- law persistence -----------------------------------------------------------

_CSV_FIELDS = ["seq", "level", "mask_hex", "value_hex", "law_text"]


def _csv_row(law: Law) -> list:
    return [f"{law.seq:03d}", law.level,
            f"{law.implicant.mask:06x}", f"{law.implicant.value:06x}", law.text]


def laws_to_csv(laws: Sequence[Law], fp: TextIO) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for law in laws:
        writer.writerow(_csv_row(law))


def laws_from_csv(fp: TextIO) -> list[Law]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:5]] != _CSV_FIELDS:
        raise ValueError(f"not a law CSV (header {header!r})")
    laws = []
    for row in reader:
        if not row:
            continue
        seq, level, mask_hex, value_hex, text = row[:5]
        imp = Implicant(int(mask_hex, 16), int(value_hex, 16))
        if imp.level != int(level):
            raise ValueError(f"law {seq}: level {level} does not match mask")
        if parse_law_text(text) != imp:
            raise ValueError(f"law {seq}: text does not match mask/value")
        laws.append(Law(int(seq), imp))
    return laws
