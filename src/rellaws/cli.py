"""Command line front end.

Subcommands: props, count, census, mine, star, witness, mincard, verify.
Exit status 0 on success, 1 when `verify` finds a mismatch, 2 on usage
errors. All output is deterministic for fixed inputs and flags.

Nothing is cached: `census` computes the census and writes it to --out,
which is the file `mine --census` reads, and `verify` computes everything
it reports: both n = 5 censuses, their vector occupancy and the full mine.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import golden
from .census import VectorCensus, load_census, save_census, vector_census
from .enumeration import NORMAL_MAX_N, iter_normal_codes, normal_form_count
from .mining import Law, law_line, laws_to_csv, mine
from .properties import (
    MINED_PROPERTIES,
    PropertyId,
    classify_kinds,
    holds,
    property_vector,
)
from .redundancy import flag_csv
from .relation import Relation, check_n
from .search import (
    DEFAULT_BUDGET,
    LiteralConjunction,
    export_dot,
    find_witness,
    min_universe,
)


# -- commands ---------------------------------------------------------------------

def _read_relation(path: str) -> Relation:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return Relation.from_text(text)


def _cmd_props(args) -> int:
    r = _read_relation(args.file)
    vec = property_vector(r)
    names = [p.name for p in MINED_PROPERTIES if vec >> p.value & 1]
    extra = [p.name for p in (PropertyId.LfQuasiRefl, PropertyId.RgQuasiRefl)
             if holds(r, p)]
    kinds = sorted(k.value for k in classify_kinds(r))
    print(f"n {r.n}")
    print(f"vector {vec:06x}")
    print("properties:", " ".join(names) if names else "(none)")
    print("also:", " ".join(extra) if extra else "(none)")
    print("kinds:", ", ".join(kinds) if kinds else "(none)")
    return 0


def _cmd_count(args) -> int:
    n = args.n
    check_n(n)
    print(normal_form_count(n) if args.pruned else 1 << n * n)
    return 0


def _cmd_census(args) -> int:
    if args.n > NORMAL_MAX_N:
        raise ValueError(f"refusing a census of n = {args.n}: "
                         f"{normal_form_count(args.n):,} normal forms; "
                         f"the limit is n <= {NORMAL_MAX_N}")
    census = vector_census(args.n, args.pruned)
    if args.out == "-":
        save_census(census, sys.stdout)
    else:
        with open(args.out, "w") as fp:
            save_census(census, fp)
    print(f"census n={args.n} pruned={1 if args.pruned else 0}: "
          f"{census.inhabited()} vectors, {census.total()} relations",
          file=sys.stderr)
    return 0


def _cmd_mine(args) -> int:
    with open(args.census) as fp:
        census = load_census(fp)
    result = mine(census, args.max_level)
    if args.csv:
        laws_to_csv(result.laws, sys.stdout)
    else:
        for law in result.laws:
            print(law_line(law))
    return 0


def _cmd_star(args) -> int:
    # --out is written only once the laws have been read and flagged
    buf = io.StringIO()
    with open(args.laws) as fp:
        flags = flag_csv(fp, buf)
    if args.out == "-":
        sys.stdout.write(buf.getvalue())
    else:
        with open(args.out, "w") as fp:
            fp.write(buf.getvalue())
    print(f"{sum(flags)} of {len(flags)} laws redundant", file=sys.stderr)
    return 0


def _parse_query(args) -> LiteralConjunction:
    require = [s for part in args.require for s in part.split(",") if s]
    forbid = [s for part in args.forbid for s in part.split(",") if s]
    return LiteralConjunction.from_names(require, forbid)


def _cmd_witness(args) -> int:
    query = _parse_query(args)
    r = find_witness(args.n, query, args.mode, seed=args.seed,
                     budget=args.budget)
    if r is None:
        # exhaustive exhaustion proves absence; a heuristic give-up proves nothing
        print("none" if args.mode == "exhaustive" else "unknown")
        return 0
    print(r.to_text())
    if args.dot:
        print(export_dot(r), end="")
    return 0


def _cmd_mincard(args) -> int:
    query = _parse_query(args)
    n = min_universe(query, args.max)
    print("none" if n is None else n)
    return 0


# -- verify -----------------------------------------------------------------------

class _Report:
    def __init__(self, csv_mode: bool):
        self.csv = csv_mode
        self.failed = 0
        self.rows: list[tuple[str, str, str, str, str]] = []
        if csv_mode:
            print("table,item,expected,actual,status")

    def item(self, table: str, item: str, expected, actual) -> bool:
        ok = expected == actual
        if self.csv:
            print(f"{table},{item},{expected},{actual},{'ok' if ok else 'MISMATCH'}")
        elif not ok:
            print(f"  {table} / {item}: expected {expected}, got {actual}")
        if not ok:
            self.failed += 1
        return ok

    def table(self, name: str, ok: bool, note: str = "") -> None:
        if not self.csv:
            status = "PASS" if ok else "FAIL"
            suffix = f" ({note})" if note else ""
            print(f"{name}: {status}{suffix}")


def _verify_counts(rep: _Report) -> bool:
    ok = True
    for n in range(1, 5):
        ok &= rep.item("counts-unpruned", f"n={n}",
                       golden.UNPRUNED_COUNTS[n], 1 << n * n)
        ok &= rep.item("counts-pruned", f"n={n}", golden.PRUNED_COUNTS[n],
                       sum(chunk.size for chunk in iter_normal_codes(n)))
    rep.table("relation counts n<=4", ok)
    return ok


def _verify_census(rep: _Report, census: VectorCensus, expected, name: str) -> bool:
    ok = True
    actual = census.property_counts()
    for p in MINED_PROPERTIES:
        ok &= rep.item(name, p.name, expected[p], actual[p])
    rep.table(f"property census {name}", ok, "24 properties")
    return ok


def _verify_occupancy(rep: _Report, full: VectorCensus, pruned: VectorCensus) -> bool:
    ok = rep.item("occupancy", "inhabited", golden.INHABITED_VECTORS_N5,
                  full.inhabited())
    ok &= rep.item("occupancy", "on-count", golden.ON_VECTORS_N5,
                   full.uninhabited())
    ok &= rep.item("occupancy", "pruned-keys-match", True,
                   set(full.counts) == set(pruned.counts))
    rep.table("vector census occupancy", ok)
    return ok


def _verify_mine(rep: _Report, census: VectorCensus) -> bool:
    result = mine(census, max_level=24)
    per_level = result.per_level_counts()
    ok = True
    for level in range(1, 25):
        expected = golden.LEVEL_LAW_COUNTS.get(level, 0)
        if expected or level in per_level:
            ok &= rep.item("mine-level-counts", f"level={level}",
                           expected, per_level.get(level, 0))
    ok &= rep.item("mine-level-counts", "total", golden.TOTAL_LAWS,
                   len(result.laws))
    for stats in result.level_stats:
        expected_on = golden.LEVEL_ON_AT_START.get(stats.level)
        if expected_on is not None:
            ok &= rep.item("mine-state", f"on-at-level-{stats.level}",
                           expected_on, stats.on_at_start)
    rep.table("mining level counts", ok)

    texts = {2: golden.LAW_TEXTS_LEVEL2, 3: golden.LAW_TEXTS_LEVEL3}
    seq_ok = True
    for level, expected_texts in texts.items():
        mined = [law.text for law in result.laws if law.level == level]
        set_ok = rep.item(f"laws-level-{level}", "set-equal",
                          True, set(mined) == set(expected_texts))
        order_ok = rep.item(f"laws-level-{level}", "sequence-equal",
                            True, mined == expected_texts)
        if not set_ok and not rep.csv:
            missing = sorted(set(expected_texts) - set(mined))
            extra = sorted(set(mined) - set(expected_texts))
            for t in missing:
                print(f"  laws-level-{level}: missing {t!r}")
            for t in extra:
                print(f"  laws-level-{level}: unexpected {t!r}")
        seq_ok &= set_ok & order_ok
    rep.table("law texts levels 2-3", seq_ok)
    return ok and seq_ok


def _cmd_verify(args) -> int:
    rep = _Report(args.csv)
    all_ok = _verify_counts(rep)
    full = vector_census(5, pruned=False)
    pruned = vector_census(5, pruned=True)
    all_ok &= _verify_census(rep, full,
                             golden.PROPERTY_CENSUS_UNPRUNED_N5, "unpruned-n5")
    all_ok &= _verify_census(rep, pruned,
                             golden.PROPERTY_CENSUS_PRUNED_N5, "pruned-n5")
    all_ok &= _verify_occupancy(rep, full, pruned)
    all_ok &= _verify_mine(rep, full)

    if not rep.csv:
        print(f"VERIFY: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


# -- parser ------------------------------------------------------------------------

def _add_query_flags(sub) -> None:
    sub.add_argument("--require", action="append", default=[],
                     help="comma-separated property names that must hold")
    sub.add_argument("--forbid", action="append", default=[],
                     help="comma-separated property names that must not hold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rellaws",
        description="Exhaustive-search toolkit for binary relations on "
                    "small finite sets.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("props", help="properties and kinds of one relation")
    p.add_argument("file", help="relation text file, or - for stdin")
    p.set_defaults(func=_cmd_props)

    p = subs.add_parser("count", help="count relations of one cardinality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pruned", action="store_true",
                   help="count normal forms only")
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("census", help="compute a vector census file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pruned", action="store_true")
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("mine", help="mine laws from a census file")
    p.add_argument("--census", required=True)
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_mine)

    p = subs.add_parser("star", help="flag propositionally redundant laws")
    p.add_argument("--laws", required=True, help="law CSV from mine --csv")
    p.add_argument("--out", default="-", help="output path, default stdout")
    p.set_defaults(func=_cmd_star)

    p = subs.add_parser("witness", help="find a relation satisfying literals")
    p.add_argument("--n", type=int, required=True)
    _add_query_flags(p)
    p.add_argument("--mode", choices=["exhaustive", "heuristic"],
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="heuristic repair step budget")
    p.add_argument("--dot", action="store_true",
                   help="also print the witness as Graphviz DOT")
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("mincard", help="smallest universe with a witness")
    _add_query_flags(p)
    p.add_argument("--max", type=int, default=NORMAL_MAX_N)
    p.set_defaults(func=_cmd_mincard)

    p = subs.add_parser("verify", help="check computed results against "
                                       "the published reference values")
    p.add_argument("--csv", action="store_true",
                   help="machine-readable per-item diff")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
