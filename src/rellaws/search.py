"""Witness search: find a relation satisfying a conjunction of property literals.

Two modes with very different claims:

* exhaustive: scans every normal-form relation (properties are invariant
  under simultaneous permutation and every relation has a normal form, so
  this covers the full space). Returning None is a completeness claim:
  no relation of that cardinality satisfies the conjunction, and a witness
  is the first one in `iter_normal_codes` order. A size whose whole
  normal-form stream fits in one chunk (n <= 4, 6 322 codes together) is
  evaluated once per process into a read-only table of codes and 26-bit
  property vectors; larger sizes are scanned chunk by chunk, evaluating
  only the query's properties. Either way the query's (mask, value) cube
  is tested on each block of vectors. Rejected for n >= 7, where the
  normal-form space itself is in the hundreds of billions.
* heuristic: seeded random fills that bake the query's structural literals
  (diagonal state, pair orientation) into the sampled shape, plus greedy
  repair of near misses, under a score-evaluation budget. Finding a witness
  is a proof (it is re-validated with the scalar predicates before being
  returned); giving up claims nothing.

The DOT export for found witnesses lives here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .census import bulk_vectors
from .enumeration import DEFAULT_CHUNK, NORMAL_MAX_N, iter_normal_codes, normal_form_count
from .properties import DUAL, PropertyId, holds, parse_property, violations
from .relation import Relation, check_n, column_words, element_names

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class LiteralConjunction:
    """Required (positive) and forbidden (negated) properties."""

    pos: frozenset = field(default_factory=frozenset)
    neg: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        overlap = self.pos & self.neg
        if overlap:
            names = ", ".join(sorted(p.name for p in overlap))
            raise ValueError(f"contradictory literals: {names}")
        if not self.pos and not self.neg:
            raise ValueError("empty query")

    @classmethod
    def from_names(cls, require: Iterable[str] = (),
                   forbid: Iterable[str] = ()) -> "LiteralConjunction":
        return cls(frozenset(parse_property(s) for s in require),
                   frozenset(parse_property(s) for s in forbid))

    def properties(self) -> list[PropertyId]:
        return sorted(self.pos | self.neg, key=lambda p: p.value)

    @property
    def mask(self) -> int:
        """Bits of the query's properties: u satisfies it iff u & mask == value."""
        return sum(1 << p.value for p in self.pos | self.neg)

    @property
    def value(self) -> int:
        return sum(1 << p.value for p in self.pos)

    def dual(self) -> "LiteralConjunction":
        """The query satisfied by exactly the converses of this query's witnesses."""
        return LiteralConjunction(frozenset(DUAL[p] for p in self.pos),
                                  frozenset(DUAL[p] for p in self.neg))

    def satisfied_by(self, r: Relation) -> bool:
        return (all(holds(r, p) for p in self.pos)
                and not any(holds(r, p) for p in self.neg))


def _check_witness(r: Relation, query: LiteralConjunction) -> Relation:
    # candidates from the code scan or the repair loop are checked with
    # `holds` on the Relation they stand for before anyone sees them
    if not query.satisfied_by(r):
        raise RuntimeError(
            f"search produced a non-witness for {query}: {r!r}")
    return r


class _Table(NamedTuple):
    codes: np.ndarray    # uint64 normal-form codes, in iter_normal_codes order
    vectors: np.ndarray  # uint32: bit p.value set iff p holds, all 26 properties


@lru_cache(maxsize=None)
def _table(n: int) -> _Table:
    """Every normal form of a size whose stream is one chunk, with the
    vector of all 26 properties; read-only, since every query shares it."""
    (codes,) = iter_normal_codes(n)
    vectors = bulk_vectors(codes, n, PropertyId)
    codes.setflags(write=False)
    vectors.setflags(write=False)
    return _Table(codes, vectors)


def _first_code(n: int, query: LiteralConjunction) -> int | None:
    """The first normal-form code of n, in stream order, that satisfies the
    query by the bulk predicates, or None."""
    if normal_form_count(n) <= DEFAULT_CHUNK:
        blocks = [_table(n)]
    else:
        props = query.properties()
        blocks = ((chunk, bulk_vectors(chunk, n, props))
                  for chunk in iter_normal_codes(n))
    mask, value = query.mask, query.value
    for codes, vectors in blocks:
        hits = np.flatnonzero((vectors & mask) == value)
        if hits.size:
            return int(codes[hits[0]])
        del codes, vectors  # free this block before the next one is built
    return None


def _exhaustive(n: int, query: LiteralConjunction) -> Relation | None:
    if n > NORMAL_MAX_N:
        raise ValueError(
            f"exhaustive mode supports n <= {NORMAL_MAX_N}, got {n}; "
            "use heuristic mode for larger universes")
    code = _first_code(n, query)
    if code is None:
        return None
    return _check_witness(Relation.from_code(n, code), query)


# -- heuristic mode ------------------------------------------------------------

def _score(rows: list[int], query: LiteralConjunction) -> int:
    cols = column_words(rows)
    score = 0
    for p in query.pos:
        score += violations(rows, cols, p)
    for p in query.neg:
        if violations(rows, cols, p) == 0:
            score += 1  # property still holds and must be broken
    return score


def _query_structure(query: LiteralConjunction) -> tuple[int | None, tuple[int, ...]]:
    """Structure the positive literals force on every witness: the diagonal
    bit (None when free) and the allowed states of each off-diagonal pair,
    encoded as bit 0 = forward cell, bit 1 = backward cell. Fills and repair
    moves stay inside this shape, so such literals are satisfied by
    construction. Contradictory pins fall back to the unconstrained shape;
    the score then simply never reaches zero."""
    P = PropertyId
    pos = query.pos
    diag = None
    if P.Refl in pos or P.Univ in pos:
        diag = 1
    if P.Irrefl in pos or P.ASym in pos or P.Empty in pos:
        diag = None if diag == 1 else 0
    states = {0, 1, 2, 3}
    if P.ASym in pos or P.AntiSym in pos:
        states.discard(3)
    if P.Sym in pos:
        states &= {0, 3}
    if P.CoRefl in pos or P.Empty in pos:
        states &= {0}
    if P.Univ in pos:
        states &= {3}
    if not states:
        states = {0, 1, 2, 3}
    return diag, tuple(sorted(states))


def _pair_state(rows: list[int], x: int, y: int) -> int:
    return (rows[x] >> y & 1) | (rows[y] >> x & 1) << 1


def _set_pair(rows: list[int], x: int, y: int, state: int) -> None:
    rows[x] = rows[x] & ~(1 << y) | (state & 1) << y
    rows[y] = rows[y] & ~(1 << x) | (state >> 1 & 1) << x


def _fill(rng: random.Random, n: int, density: float, diag: int | None,
          states: tuple[int, ...], maximal: bool = False) -> list[int]:
    rows = [0] * n
    occupied = [s for s in states if s] or [0]
    if maximal:
        widest = max(s.bit_count() for s in occupied)
        occupied = [s for s in occupied if s.bit_count() == widest]
    for x in range(n):
        if diag is not None:
            bit = diag
        elif maximal:
            bit = 1
        else:
            bit = rng.random() < density
        rows[x] |= bit << x
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                _set_pair(rows, x, y, rng.choice(occupied))
    return rows


def _descend(rows: list[int], n: int, query: LiteralConjunction, score: int,
             diag: int | None, states: tuple[int, ...], max_evals: int) -> tuple[int, int]:
    """Steepest-descent repair over single-site changes (one pair state or
    one free diagonal bit). Stops at a local minimum or when max_evals
    score evaluations are used; returns (final score, evaluations)."""
    evals = 0
    improved = True
    while improved and score > 0 and evals < max_evals:
        improved = False
        best = None
        for x in range(n):
            for y in range(x + 1, n):
                old = _pair_state(rows, x, y)
                for state in states:
                    if state == old:
                        continue
                    _set_pair(rows, x, y, state)
                    s = _score(rows, query)
                    evals += 1
                    if s < score and (best is None or s < best[0]):
                        best = (s, x, y, state)
                _set_pair(rows, x, y, old)
        if diag is None:
            for x in range(n):
                rows[x] ^= 1 << x
                s = _score(rows, query)
                evals += 1
                if s < score and (best is None or s < best[0]):
                    best = (s, x, x, None)
                rows[x] ^= 1 << x
        if best is not None:
            s, x, y, state = best
            if state is None:
                rows[x] ^= 1 << x
            else:
                _set_pair(rows, x, y, state)
            score = s
            improved = True
    return score, evals


def _heuristic(n: int, query: LiteralConjunction, seed: int,
               budget: int) -> Relation | None:
    """Randomized fills inside the query's forced structure, with greedy
    repair on near misses. The budget counts score evaluations; fills
    dominate by design because near-feasible starts are what make the
    rigid instances (sparse solution sets) reachable at all."""
    rng = random.Random(seed)
    diag, states = _query_structure(query)
    threshold = 2 + len(query.neg)
    spent = 0
    restart = 0
    while spent < budget:
        regime = restart % 4
        restart += 1
        if regime == 0:  # every allowed cell set: universal, total orders
            rows = _fill(rng, n, 1.0, diag, states, maximal=True)
        elif regime == 1:  # saturated random states: tournaments
            rows = _fill(rng, n, 1.0, diag, states)
        elif regime == 2:  # sparse
            rows = _fill(rng, n, rng.random() * 0.3, diag, states)
        else:
            rows = _fill(rng, n, rng.random(), diag, states)
        score = _score(rows, query)
        spent += 1
        if score > threshold:
            continue
        if score > 0:
            score, evals = _descend(rows, n, query, score, diag, states,
                                    budget - spent)
            spent += evals
        if score == 0:
            return _check_witness(Relation(n, tuple(rows)), query)
    return None


def find_witness(n: int, query: LiteralConjunction, mode: str = "exhaustive",
                 *, seed: int = 0, budget: int = DEFAULT_BUDGET) -> Relation | None:
    """A relation on n elements satisfying the conjunction, or None.

    mode="exhaustive" (n <= 6): first witness in iter_normal_codes order;
    None means provably no relation qualifies. For n <= 4 the answer is
    read from a table of every normal form's properties, built once per
    process and size; the claims are the same. mode="heuristic" (any n up
    to 8): randomized search under a budget of `budget` score evaluations,
    reproducible via `seed`; None just means the search gave up. A budget
    below 1 is refused in either mode, since no search could run on it.
    """
    check_n(n)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if mode == "exhaustive":
        return _exhaustive(n, query)
    if mode == "heuristic":
        return _heuristic(n, query, seed, budget)
    raise ValueError(f"unknown mode {mode!r}")


def min_universe(query: LiteralConjunction, n_max: int) -> int | None:
    """Smallest universe size 1..n_max admitting a witness, or None.

    Exhaustive at every size, so None is a completeness claim for the whole
    range. n_max is capped where exhaustive search is. Sizes up to 4 are
    answered from the per-process tables `find_witness` reads, so repeated
    queries there cost one mask test per size.
    """
    if not 1 <= n_max <= NORMAL_MAX_N:
        raise ValueError(
            f"n_max must be between 1 and {NORMAL_MAX_N}, got {n_max}")
    for n in range(1, n_max + 1):
        if _exhaustive(n, query) is not None:
            return n
    return None


def export_dot(r: Relation, labels: list[str] | None = None) -> str:
    """Graphviz digraph text; nodes and edges in ascending index order."""
    if labels is None:
        labels = element_names(r.n)
    if len(labels) != r.n:
        raise ValueError(f"expected {r.n} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    lines = ["digraph relation {"]
    for x in range(r.n):
        lines.append(f'  "{labels[x]}";')
    for x, y in r.pairs():
        lines.append(f'  "{labels[x]}" -> "{labels[y]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
