"""Propositional redundancy of mined laws.

Each law is the complement clause of its implicant: implicant (mask, value)
forbids the cube u & mask == value, so as a clause over the 24 property
variables it says "some mask bit differs from value". A law is redundant
when the other laws already entail it by propositional logic alone, i.e.
when (conjunction of the others) AND (the law's forbidden cube) is
unsatisfiable. That is decided exactly: fix the cube's bits, then unit
propagation plus branching over the remaining free variables.

Redundant does not mean wrong, and the flag says nothing about whether the
law follows from the property definitions semantically; it only reports
propositional consequence within the mined set.
"""

from __future__ import annotations

import csv
from typing import Sequence, TextIO

from .mining import Implicant, Law, _CSV_FIELDS, _csv_row, laws_from_csv


def _as_implicant(law) -> Implicant:
    return law.implicant if isinstance(law, Law) else law


def _sat(clauses: list[tuple[int, int]], assigned: int, values: int) -> bool:
    """Is some total extension of the partial assignment a model of all clauses?

    A clause (m, v) is violated by a total assignment u iff u & m == v.
    """
    while True:
        unit = None
        for m, v in clauses:
            fixed = m & assigned
            if (values ^ v) & fixed:
                continue  # some assigned bit already differs: clause satisfied
            free = m & ~assigned
            if free == 0:
                return False  # clause fully matches the forbidden cube
            if free & (free - 1) == 0:
                unit = (free, v)
                break
        if unit is None:
            break
        bit, v = unit
        assigned |= bit
        values |= bit & ~v  # force the variable opposite to the cube bit

    # branch on a variable from some still-undecided clause
    for m, v in clauses:
        fixed = m & assigned
        if (values ^ v) & fixed:
            continue
        free = m & ~assigned
        bit = free & -free
        return (_sat(clauses, assigned | bit, values)
                or _sat(clauses, assigned | bit, values | bit))
    return True  # every clause satisfied


def entails(others: Sequence[Implicant | Law], target: Implicant | Law) -> bool:
    """Do the other laws propositionally entail the target law?

    True iff others AND NOT target is unsatisfiable. NOT target is the
    target's implicant cube, so its bits are fixed up front.
    """
    tgt = _as_implicant(target)
    clauses = [( _as_implicant(o).mask, _as_implicant(o).value) for o in others]
    return not _sat(clauses, tgt.mask, tgt.value)


def star_redundant(laws: Sequence[Law]) -> list[bool]:
    """Redundancy flag per law, each judged against all the other laws.

    Non-iterative by design: every law is tested against the full original
    set, so flags do not depend on the order laws are considered, and the
    flagged subset is not necessarily safe to delete all at once.
    """
    imps = [law.implicant for law in laws]
    flags = []
    for i in range(len(imps)):
        others = imps[:i] + imps[i + 1:]
        flags.append(entails(others, imps[i]))
    return flags


# -- CSV round trip -------------------------------------------------------------

def flag_csv(fp_in: TextIO, fp_out: TextIO) -> list[bool]:
    """Read a law CSV as `laws_from_csv` does, and write it back out in the
    form `laws_to_csv` writes, with a 'redundant' 0/1 column appended."""
    laws = laws_from_csv(fp_in)
    flags = star_redundant(laws)
    writer = csv.writer(fp_out, lineterminator="\n")
    writer.writerow(_CSV_FIELDS + ["redundant"])
    for law, flag in zip(laws, flags):
        writer.writerow(_csv_row(law) + ["1" if flag else "0"])
    return flags
