"""The 26 relation properties, their bit encoding, and relation kinds.

Every predicate is quantified over the whole universe with no distinctness
assumptions; degenerate instantiations (x = y and so on) are deliberately
included because several familiar consequences depend on them, e.g. a left
Euclidean relation forces x R x for every x that has a successor.

24 of the properties carry a fixed bit position used by property vectors,
censuses, and law mining. The positions order the properties by how many of
the 2^25 relations on a 5-element universe satisfy them, ascending, which is
what makes mined law text read from the rarest property to the commonest.
The two one-sided quasi-reflexivity predicates have no bit of their own
(only their conjunction QuasiRefl does) but are still checkable and usable
in witness queries.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .relation import Relation, column_words


class PropertyId(enum.Enum):
    # bit-carrying properties, value = bit position
    Empty = 0
    Univ = 1
    CoRefl = 2
    LfEucl = 3
    RgEucl = 4
    LfUnique = 5
    RgUnique = 6
    Sym = 7
    AntiTrans = 8
    ASym = 9
    Connex = 10
    Trans = 11
    SemiOrd1 = 12
    Irrefl = 13
    Refl = 14
    QuasiRefl = 15
    AntiSym = 16
    SemiConnex = 17
    IncTrans = 18
    SemiOrd2 = 19
    QuasiTrans = 20
    Dense = 21
    LfSerial = 22
    RgSerial = 23
    # checkable but not part of the 24-bit vector
    LfQuasiRefl = 24
    RgQuasiRefl = 25

    @property
    def bit(self) -> int | None:
        return self.value if self.value < 24 else None

    @property
    def mask(self) -> int | None:
        return 1 << self.value if self.value < 24 else None


#: the 24 vector properties in bit order
MINED_PROPERTIES: tuple[PropertyId, ...] = tuple(
    p for p in PropertyId if p.value < 24)

VECTOR_BITS = 24

#: converse duality: holds(R, p) == holds(converse(R), DUAL[p])
DUAL = {p: p for p in PropertyId}
DUAL[PropertyId.LfEucl] = PropertyId.RgEucl
DUAL[PropertyId.RgEucl] = PropertyId.LfEucl
DUAL[PropertyId.LfUnique] = PropertyId.RgUnique
DUAL[PropertyId.RgUnique] = PropertyId.LfUnique
DUAL[PropertyId.LfSerial] = PropertyId.RgSerial
DUAL[PropertyId.RgSerial] = PropertyId.LfSerial
DUAL[PropertyId.LfQuasiRefl] = PropertyId.RgQuasiRefl
DUAL[PropertyId.RgQuasiRefl] = PropertyId.LfQuasiRefl


_BY_LOWER_NAME = {p.name.lower(): p for p in PropertyId}


def parse_property(name: str) -> PropertyId:
    """Property by name, case-insensitively."""
    try:
        return _BY_LOWER_NAME[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown property {name!r}") from None


# -- predicates as violation words ---------------------------------------------
#
# Each predicate is written once, as a generator of violation words over the
# row words rows[x] (bit y set iff x R y) and the column words cols[y] (bit x
# set iff x R y); full has one bit per element. The predicate holds iff every
# word is zero, and the total popcount of the words counts its violating
# instances. The words use only & | ^ ~, shifts by an int, non-negative int
# constants and -bit as an all-ones mask, so the same code runs on Python
# ints (one relation) and on numpy uint8 arrays holding one word per
# relation (a census chunk).

def _product(a, b):
    """Relational product: out[x] is the union of b[y] over the bits y of a[x]."""
    out = []
    for ax in a:
        acc = 0
        for y, by in enumerate(b):
            acc |= by & -(ax >> y & 1)
        out.append(acc)
    return out


def _union(words):
    acc = 0
    for w in words:
        acc |= w
    return acc


def _diagonal(rows):
    # bit x set iff x R x
    acc = 0
    for x, r in enumerate(rows):
        acc |= r & (1 << x)
    return acc


def _above(x: int, full: int) -> int:
    # the elements after x; symmetric conditions count each pair once
    return full >> (x + 1) << (x + 1)


def _incomparable(rows, cols, full):
    # inc[x] has bit x whenever not x R x
    return [full & ~(r | c) for r, c in zip(rows, cols)]


def _transitivity(rel):
    for r, reach in zip(rel, _product(rel, rel)):
        yield reach & ~r


def _empty(rows, cols, full):
    yield from rows


def _univ(rows, cols, full):
    for r in rows:
        yield full & ~r


def _corefl(rows, cols, full):
    for x, r in enumerate(rows):
        yield r & (full ^ (1 << x))


def _lf_eucl(rows, cols, full):
    # y R x and z R x imply y R z: a common successor forces an edge
    for r, reach in zip(rows, _product(rows, cols)):
        yield reach & ~r


def _rg_eucl(rows, cols, full):
    # x R y and x R z imply y R z: a common predecessor forces an edge
    for r, reach in zip(rows, _product(cols, rows)):
        yield reach & ~r


def _lf_unique(rows, cols, full):
    # one bit fewer than the predecessors of each element
    for c in cols:
        yield c & (c - 1)


def _rg_unique(rows, cols, full):
    for r in rows:
        yield r & (r - 1)


def _sym(rows, cols, full):
    for x, (r, c) in enumerate(zip(rows, cols)):
        yield (r ^ c) & _above(x, full)


def _antitrans(rows, cols, full):
    for r, reach in zip(rows, _product(rows, rows)):
        yield reach & r


def _asym(rows, cols, full):
    for r, c in zip(rows, cols):
        yield r & c


def _connex(rows, cols, full):
    for r, c in zip(rows, cols):
        yield full & ~(r | c)


def _trans(rows, cols, full):
    return _transitivity(rows)


def _semiord1(rows, cols, full):
    # w R x, x and y incomparable, y R z imply w R z
    reach = _product(_product(rows, _incomparable(rows, cols, full)), rows)
    for r, t in zip(rows, reach):
        yield t & ~r


def _irrefl(rows, cols, full):
    for x, r in enumerate(rows):
        yield r & (1 << x)


def _refl(rows, cols, full):
    for x, r in enumerate(rows):
        yield ~r & (1 << x)


def _lf_quasirefl(rows, cols, full):
    # x R y implies x R x: the elements with a successor and no loop
    yield _union(cols) & ~_diagonal(rows)


def _rg_quasirefl(rows, cols, full):
    # x R y implies y R y: the elements with a predecessor and no loop
    yield _union(rows) & ~_diagonal(rows)


def _quasirefl(rows, cols, full):
    yield from _lf_quasirefl(rows, cols, full)
    yield from _rg_quasirefl(rows, cols, full)


def _antisym(rows, cols, full):
    for x, (r, c) in enumerate(zip(rows, cols)):
        yield r & c & _above(x, full)


def _semiconnex(rows, cols, full):
    for x, (r, c) in enumerate(zip(rows, cols)):
        yield ~(r | c) & _above(x, full)


def _inctrans(rows, cols, full):
    # incomparability is transitive
    return _transitivity(_incomparable(rows, cols, full))


def _semiord2(rows, cols, full):
    # whenever x R y R z, every w is comparable to x, y, or z; one word
    # over z per (x, y)
    inc = _incomparable(rows, cols, full)
    for x, (ix, rx) in enumerate(zip(inc, rows)):
        for y in range(x, len(rows)):
            iy, ry = inc[y], rows[y]
            # the z that share an incomparable w with both x and y; the set
            # is symmetric in x and y, so it serves (x, y) and (y, x)
            both = ix & iy
            lonely = _union(iw & -(both >> w & 1) for w, iw in enumerate(inc))
            yield ry & lonely & -(rx >> y & 1)
            if y != x:
                yield rx & lonely & -(ry >> x & 1)


def _quasitrans(rows, cols, full):
    # the one-directional part of R is transitive
    return _transitivity([r & ~c for r, c in zip(rows, cols)])


def _dense(rows, cols, full):
    # x R z implies some y (possibly x or z) with x R y and y R z
    for r, reach in zip(rows, _product(rows, rows)):
        yield r & ~reach


def _lf_serial(rows, cols, full):
    # the elements without a predecessor
    yield full & ~_union(rows)


def _rg_serial(rows, cols, full):
    yield full & ~_union(cols)


_PREDICATES = {
    PropertyId.Empty: _empty,
    PropertyId.Univ: _univ,
    PropertyId.CoRefl: _corefl,
    PropertyId.LfEucl: _lf_eucl,
    PropertyId.RgEucl: _rg_eucl,
    PropertyId.LfUnique: _lf_unique,
    PropertyId.RgUnique: _rg_unique,
    PropertyId.Sym: _sym,
    PropertyId.AntiTrans: _antitrans,
    PropertyId.ASym: _asym,
    PropertyId.Connex: _connex,
    PropertyId.Trans: _trans,
    PropertyId.SemiOrd1: _semiord1,
    PropertyId.Irrefl: _irrefl,
    PropertyId.Refl: _refl,
    PropertyId.QuasiRefl: _quasirefl,
    PropertyId.AntiSym: _antisym,
    PropertyId.SemiConnex: _semiconnex,
    PropertyId.IncTrans: _inctrans,
    PropertyId.SemiOrd2: _semiord2,
    PropertyId.QuasiTrans: _quasitrans,
    PropertyId.Dense: _dense,
    PropertyId.LfSerial: _lf_serial,
    PropertyId.RgSerial: _rg_serial,
    PropertyId.LfQuasiRefl: _lf_quasirefl,
    PropertyId.RgQuasiRefl: _rg_quasirefl,
}


def violation_words(p: PropertyId, rows, cols, full: int) -> Iterator:
    """The violation words of p over row and column words; all zero iff p holds."""
    return _PREDICATES[p](rows, cols, full)


def holds(r: Relation, p: PropertyId) -> bool:
    """Does relation r satisfy property p? Total for all 26 properties."""
    return not any(_PREDICATES[p](r.rows, column_words(r.rows), (1 << r.n) - 1))


def violations(rows, cols, p: PropertyId) -> int:
    """Number of violating instances of p in the relation with these row
    words and their `column_words`; zero iff p holds."""
    words = _PREDICATES[p](rows, cols, (1 << len(rows)) - 1)
    return sum(w.bit_count() for w in words)


def property_vector(r: Relation) -> int:
    """24-bit word with bit p.bit set iff the bit-carrying property p holds."""
    cols, full = column_words(r.rows), (1 << r.n) - 1
    vec = 0
    for p in MINED_PROPERTIES:
        if not any(_PREDICATES[p](r.rows, cols, full)):
            vec |= 1 << p.value
    return vec


class RelationKind(enum.Enum):
    Equivalence = "equivalence"
    PartialEquivalence = "partial equivalence"
    Tolerance = "tolerance"
    Idempotent = "idempotent"
    Trichotomous = "trichotomous"
    NonStrictPartialOrder = "non-strict partial order"
    StrictPartialOrder = "strict partial order"
    SemiOrder = "semi-order"
    Preorder = "preorder"
    WeakOrdering = "weak ordering"
    PartialFunction = "partial function"
    TotalFunction = "total function"
    InjectiveFunction = "injective function"
    SurjectiveFunction = "surjective function"
    BijectiveFunction = "bijective function"


P = PropertyId
KIND_REQUIREMENTS: dict[RelationKind, frozenset[PropertyId]] = {
    RelationKind.Equivalence: frozenset({P.Refl, P.Sym, P.Trans}),
    RelationKind.PartialEquivalence: frozenset({P.Sym, P.Trans}),
    RelationKind.Tolerance: frozenset({P.Refl, P.Sym}),
    RelationKind.Idempotent: frozenset({P.Dense, P.Trans}),
    RelationKind.Trichotomous: frozenset({P.Irrefl, P.ASym, P.SemiConnex}),
    RelationKind.NonStrictPartialOrder: frozenset({P.Refl, P.AntiSym, P.Trans}),
    RelationKind.StrictPartialOrder: frozenset({P.Irrefl, P.ASym, P.Trans}),
    RelationKind.SemiOrder: frozenset({P.ASym, P.SemiOrd1, P.SemiOrd2}),
    RelationKind.Preorder: frozenset({P.Refl, P.Trans}),
    RelationKind.WeakOrdering: frozenset({P.Irrefl, P.ASym, P.Trans, P.IncTrans}),
    RelationKind.PartialFunction: frozenset({P.RgUnique}),
    RelationKind.TotalFunction: frozenset({P.RgUnique, P.RgSerial}),
    RelationKind.InjectiveFunction: frozenset({P.LfUnique, P.RgUnique, P.RgSerial}),
    RelationKind.SurjectiveFunction: frozenset({P.RgUnique, P.LfSerial, P.RgSerial}),
    RelationKind.BijectiveFunction: frozenset(
        {P.LfUnique, P.RgUnique, P.LfSerial, P.RgSerial}),
}
del P


def classify_kinds(r: Relation) -> set[RelationKind]:
    """Every named kind whose defining property conjunction holds for r.

    Every property a kind needs carries a vector bit, so the kinds are read
    off `property_vector(r)`.
    """
    vec = property_vector(r)
    return {kind for kind, needs in KIND_REQUIREMENTS.items()
            if all(vec >> p.value & 1 for p in needs)}
