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

The state is one bitset, `on`, over the whole space: off vectors and
don't-cares are cleared, and viewed as an array of n_props axes of length
2 a cube is a slice, tested with `any()` and absorbed by assigning False.
Which cubes get tested comes from whichever is fewer at the level, its
masks or its still-on vectors, and both sources are exact:

* from the masks, each value whose cube avoids off while every parent
  cube (one literal dropped) hits off, the Quine-McCluskey prime
  condition. A cube with an off-free parent lies inside a cube the scan
  of the level before either reported or found without on vectors, so
  it can never be reported.
* from the on vectors, each on u paired with every mask m that meets
  every difference set u ^ o of an off o: the cubes (m, u & m) that hold
  u and avoid off, i.e. the transversals of that hypergraph. A cube with
  no on vector at the start of the level cannot gain one.

Both feed one loop that tests and absorbs candidates in (mask, value)
order, so the laws are those of the plain scan. Once a level starts with
no vector on, no cube at any deeper level can be prime, and the scan stops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence, TextIO

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


def _masks_of_popcount(n_bits: int, k: int) -> Iterable[int]:
    """All k-of-n_bits masks in ascending numeric order (Gosper's hack)."""
    if k == 0 or k > n_bits:
        return
    mask = (1 << k) - 1
    limit = 1 << n_bits
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


def _cube(mask: int, value: int, n_props: int) -> tuple:
    """Index of the cube (mask, value) in the (2,)*n_props view of the space."""
    # axis i of the view is bit n_props-1-i of the vector
    return tuple(value >> b & 1 if mask >> b & 1 else slice(None)
                 for b in reversed(range(n_props)))


def _mask_candidates(off: np.ndarray, n_props: int,
                     level: int) -> Iterator[tuple[int, int]]:
    """Cubes that avoid off while every scanned parent cube hits it."""
    for mask in _masks_of_popcount(n_props, level):
        hit = np.unique(off & np.uint32(mask))
        if level == 1:  # level 0 is never scanned
            values = np.array([0, mask], dtype=np.uint32)
        else:
            # for a value outside hit, the parent without literal b hits
            # off iff value ^ b is in hit: keep values with all k such b
            bits = np.array([1 << b for b in range(n_props) if mask >> b & 1],
                            dtype=np.uint32)
            values, parents_hit = np.unique(hit[:, None] ^ bits, return_counts=True)
            values = values[parents_hit == level]
        for value in values[~np.isin(values, hit)].tolist():
            yield mask, value


def _vector_candidates(off: np.ndarray, on: np.ndarray, n_props: int,
                       level: int) -> Iterator[tuple[int, int]]:
    """The off-free cubes of the level around each on vector, ascending."""
    masks = np.fromiter(_masks_of_popcount(n_props, level), dtype=np.uint32,
                        count=comb(n_props, level))
    keys = []
    for u in on.tolist():
        # (m, u & m) avoids off iff m meets every difference set u ^ o
        fit = masks
        for diff in off ^ np.uint32(u):
            fit = fit[fit & diff != 0]
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
    on = np.ones(1 << n_props, dtype=bool)
    on[off] = False
    view = on.reshape((2,) * n_props)

    laws: list[Law] = []
    stats: list[LevelStats] = []
    for level in range(1, max_level + 1):
        on_now = int(np.count_nonzero(on))
        stats.append(LevelStats(level, on_now, off.size, on.size - off.size - on_now))
        if on_now == 0:
            break  # nothing below can be prime any more
        if comb(n_props, level) <= on_now:
            candidates = _mask_candidates(off, n_props, level)
        else:
            candidates = _vector_candidates(off, np.flatnonzero(on), n_props, level)
        for mask, value in candidates:
            cube = _cube(mask, value, n_props)
            if view[cube].any():
                laws.append(Law(len(laws) + 1, Implicant(mask, value)))
                view[cube] = False
    return MineResult(laws, stats, max_level, n_props)


# -- law persistence -----------------------------------------------------------

_CSV_FIELDS = ["seq", "level", "mask_hex", "value_hex", "law_text"]


def laws_to_csv(laws: Sequence[Law], fp: TextIO) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for law in laws:
        writer.writerow([
            f"{law.seq:03d}", law.level,
            f"{law.implicant.mask:06x}", f"{law.implicant.value:06x}",
            law.text,
        ])


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
