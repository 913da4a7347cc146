"""Independent oracle: every property predicate restated as a direct
quantifier sweep over element tuples.

Nothing here shares code with the package's bit-parallel predicates; the
point is that two implementations written from the same prose definitions
agree. Relations are taken as (n, set of pairs). All quantifiers range
over the full universe, degenerate tuples included, unless the definition
itself says otherwise (the "distinct" properties).

`mine` is the same kind of oracle for the miner: its definition, run
cube by cube over Python sets.
"""

from itertools import product

from rellaws import PropertyId as P


def _inc(pairs, x, y):
    # incomparable: related in neither direction (x == y allowed)
    return (x, y) not in pairs and (y, x) not in pairs


def empty(n, pairs):
    return not pairs


def univ(n, pairs):
    return all((x, y) in pairs for x, y in product(range(n), repeat=2))


def corefl(n, pairs):
    return all(x == y for x, y in pairs)


def lf_eucl(n, pairs):
    return all((y, z) in pairs
               for x, y, z in product(range(n), repeat=3)
               if (y, x) in pairs and (z, x) in pairs)


def rg_eucl(n, pairs):
    return all((y, z) in pairs
               for x, y, z in product(range(n), repeat=3)
               if (x, y) in pairs and (x, z) in pairs)


def lf_unique(n, pairs):
    return all(x == y
               for x, y, z in product(range(n), repeat=3)
               if (x, z) in pairs and (y, z) in pairs)


def rg_unique(n, pairs):
    return all(x == y
               for z, x, y in product(range(n), repeat=3)
               if (z, x) in pairs and (z, y) in pairs)


def sym(n, pairs):
    return all((y, x) in pairs for x, y in pairs)


def anti_trans(n, pairs):
    return all((x, z) not in pairs
               for x, y, z in product(range(n), repeat=3)
               if (x, y) in pairs and (y, z) in pairs)


def asym(n, pairs):
    return all((y, x) not in pairs for x, y in pairs)


def connex(n, pairs):
    return all((x, y) in pairs or (y, x) in pairs
               for x, y in product(range(n), repeat=2))


def trans(n, pairs):
    return all((x, z) in pairs
               for x, y, z in product(range(n), repeat=3)
               if (x, y) in pairs and (y, z) in pairs)


def semi_ord1(n, pairs):
    return all((x, z) in pairs
               for x, a, b, z in product(range(n), repeat=4)
               if (x, a) in pairs and _inc(pairs, a, b) and (b, z) in pairs)


def irrefl(n, pairs):
    return all((x, x) not in pairs for x in range(n))


def refl(n, pairs):
    return all((x, x) in pairs for x in range(n))


def quasi_refl(n, pairs):
    return all((x, x) in pairs and (y, y) in pairs for x, y in pairs)


def lf_quasi_refl(n, pairs):
    return all((x, x) in pairs for x, y in pairs)


def rg_quasi_refl(n, pairs):
    return all((y, y) in pairs for x, y in pairs)


def anti_sym(n, pairs):
    return all(x == y or (y, x) not in pairs for x, y in pairs)


def semi_connex(n, pairs):
    return all(x == y or (x, y) in pairs or (y, x) in pairs
               for x, y in product(range(n), repeat=2))


def inc_trans(n, pairs):
    return all(_inc(pairs, x, z)
               for x, y, z in product(range(n), repeat=3)
               if _inc(pairs, x, y) and _inc(pairs, y, z))


def semi_ord2(n, pairs):
    return all(not ((x, y) in pairs and (y, z) in pairs
                    and _inc(pairs, w, x) and _inc(pairs, w, y)
                    and _inc(pairs, w, z))
               for x, y, z, w in product(range(n), repeat=4))


def quasi_trans(n, pairs):
    strict = {(x, y) for x, y in pairs if (y, x) not in pairs}
    return trans(n, strict)


def dense(n, pairs):
    return all(any((x, z) in pairs and (z, y) in pairs for z in range(n))
               for x, y in pairs)


def lf_serial(n, pairs):
    return all(any((x, y) in pairs for x in range(n)) for y in range(n))


def rg_serial(n, pairs):
    return all(any((x, y) in pairs for y in range(n)) for x in range(n))


NAIVE = {
    P.Empty: empty,
    P.Univ: univ,
    P.CoRefl: corefl,
    P.LfEucl: lf_eucl,
    P.RgEucl: rg_eucl,
    P.LfUnique: lf_unique,
    P.RgUnique: rg_unique,
    P.Sym: sym,
    P.AntiTrans: anti_trans,
    P.ASym: asym,
    P.Connex: connex,
    P.Trans: trans,
    P.SemiOrd1: semi_ord1,
    P.Irrefl: irrefl,
    P.Refl: refl,
    P.QuasiRefl: quasi_refl,
    P.AntiSym: anti_sym,
    P.SemiConnex: semi_connex,
    P.IncTrans: inc_trans,
    P.SemiOrd2: semi_ord2,
    P.QuasiTrans: quasi_trans,
    P.Dense: dense,
    P.LfSerial: lf_serial,
    P.RgSerial: rg_serial,
    P.LfQuasiRefl: lf_quasi_refl,
    P.RgQuasiRefl: rg_quasi_refl,
}


def naive_holds(r, p):
    return NAIVE[p](r.n, set(r.pairs()))


def mine(off, n_props, max_level):
    """The miner restated sequentially over Python sets.

    Levels ascend, masks ascend inside a level and values ascend inside a
    mask. A cube is reported when it holds no off vector and some vector
    that is neither off nor covered by an earlier law. Returns the laws as
    (seq, mask, value) and, per level scanned, (level, on, off, covered)
    counts taken at its start; the scan stops at a level that opens with
    nothing on.
    """
    off = set(off)
    space = range(1 << n_props)
    covered = set()
    laws, stats = [], []
    for level in range(1, max_level + 1):
        on = [u for u in space if u not in off and u not in covered]
        stats.append((level, len(on), len(off), len(covered)))
        if not on:
            break
        for mask in space:
            if bin(mask).count("1") != level:
                continue
            free = [u for u in space if not u & mask]
            for value in space:
                if value & ~mask:
                    continue
                cube = {value | u for u in free}
                if cube & off or cube <= covered:
                    continue
                laws.append((len(laws) + 1, mask, value))
                covered |= cube
    return laws, stats
