"""Command line front door.

Subcommands: count, enumerate, family, optimize-family, search, verify.
Exit status: 0 on success, 1 when a check fails (bound violation or oracle
mismatch), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .domination import brute_force_domination, count_min_dominating_sets, enumerate_min_dominating_sets
from .family import balanced_partition, build_family_tree, closed_form_count, family_tree_text, optimize_k, trend_row
from .forest import parse_forest
from .independence import brute_force_independence, count_max_independent_sets, enumerate_max_independent_sets
from .limits import FAMILY_MAX_GAMMA, oracle_max_order
from .search import CSV_HEADER, report_text, search_extremal
from .treegen import generate_trees


def sci4(value: int) -> str:
    """Mantissa.e-exponent rendering with four significant digits, truncated."""
    if value < 0:
        raise ValueError("sci4 expects a nonnegative integer")
    if value == 0:
        return "0.000e0"
    digits = str(value)
    return f"{digits[0]}.{digits[1:4].ljust(3, '0')}e{len(digits) - 1}"


def _read_forest(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_forest(handle.read())


def _cmd_count(args) -> int:
    forest = _read_forest(args.input)
    dom = count_min_dominating_sets(forest)
    ind = count_max_independent_sets(forest)
    if args.format == "csv":
        print("n,components,gamma,mds_count,mds_count_sci,alpha,mis_count,mis_count_sci")
        print(",".join(map(str, [forest.n, forest.component_count, dom.gamma, dom.mds_count,
                                 sci4(dom.mds_count), ind.alpha, ind.mis_count, sci4(ind.mis_count)])))
    else:
        print(f"n={forest.n} components={forest.component_count}")
        print(f"gamma={dom.gamma}")
        print(f"mds_count={dom.mds_count} ({sci4(dom.mds_count)})")
        print(f"alpha={ind.alpha}")
        print(f"mis_count={ind.mis_count} ({sci4(ind.mis_count)})")
    return 0


def _cmd_enumerate(args) -> int:
    forest = _read_forest(args.input)
    mis = args.set == "mis"
    enumerate_sets = enumerate_max_independent_sets if mis else enumerate_min_dominating_sets
    sets = enumerate_sets(forest, limit=args.limit)
    if args.format == "csv":
        print("index,size,vertices")
        for i, s in enumerate(sets):
            print(f"{i},{len(s)},{' '.join(map(str, sorted(s)))}")
    else:
        if mis:
            ind = count_max_independent_sets(forest)
            header = f"alpha={ind.alpha} count={ind.mis_count}"
        else:
            dom = count_min_dominating_sets(forest)
            header = f"gamma={dom.gamma} count={dom.mds_count}"
        print(f"{header} shown={len(sets)}")
        for s in sets:
            print(" ".join(map(str, sorted(s))))
    return 0


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _check_family_gamma(gamma: int) -> None:
    if gamma > FAMILY_MAX_GAMMA:
        raise ValueError(f"gamma {gamma} exceeds the family limit {FAMILY_MAX_GAMMA}")


def _cmd_family(args) -> int:
    if args.p is not None:
        parts = _parse_ints("--p", args.p)
        _check_family_gamma(sum(parts) + 1)
    elif args.gamma is not None and args.k is not None:
        _check_family_gamma(args.gamma)
        parts = balanced_partition(args.gamma, args.k)
    else:
        raise ValueError("family needs either --p or both --gamma and --k")
    tree = build_family_tree(parts)
    dom = count_min_dominating_sets(tree.forest)
    k = len(parts)
    balanced = parts == balanced_partition(dom.gamma, k)
    closed = closed_form_count(dom.gamma, k) if balanced else None
    if args.format == "csv":
        print("order,gamma,k,p,mds_count,mds_count_sci,closed_form")
        closed_field = "" if closed is None else str(closed)
        print(",".join(map(str, [tree.forest.n, dom.gamma, k, " ".join(map(str, parts)),
                                 dom.mds_count, sci4(dom.mds_count), closed_field])))
    else:
        sys.stdout.write(family_tree_text(tree))
        line = (f"order={tree.forest.n} gamma={dom.gamma} k={k} "
                f"mds_count={dom.mds_count} ({sci4(dom.mds_count)})")
        if closed is not None:
            line += f" closed_form={closed}"
        print(line)
    return 0


def _cmd_optimize_family(args) -> int:
    gammas = _parse_ints("--gamma", args.gamma)
    for g in gammas:
        _check_family_gamma(g)
    rows = [optimize_k(g) for g in gammas]
    if args.format == "csv":
        header = "gamma,best_k,formula_value,formula_sci,table_value,table_sci"
        if args.trend:
            header += ",ratio_to_reference,k_scaled"
        print(header)
        for row in rows:
            fields = [row.gamma, row.best_k, row.formula_value, sci4(row.formula_value),
                      row.table_interpretation_value, sci4(row.table_interpretation_value)]
            if args.trend:
                t = trend_row(row)
                fields.extend([f"{t.ratio_to_reference:.4f}", f"{t.k_scaled:.4f}"])
            print(",".join(map(str, fields)))
    else:
        for row in rows:
            line = (f"gamma={row.gamma} best_k={row.best_k} "
                    f"formula_value={row.formula_value} ({sci4(row.formula_value)}) "
                    f"table_value={row.table_interpretation_value} "
                    f"({sci4(row.table_interpretation_value)})")
            if args.trend:
                t = trend_row(row)
                line += f" ratio_to_reference={t.ratio_to_reference:.4f} k_scaled={t.k_scaled:.4f}"
            print(line)
    return 0


def _cmd_search(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and the CPU count {cpus}, got {args.jobs}")
    # Rows are written as each task's CSV text arrives, and never held.
    report = search_extremal(args.min_order, args.max_order, jobs=args.jobs,
                             write=sys.stdout.write if args.emit_all else None)
    if args.format == "csv" and not args.emit_all:
        sys.stdout.write(CSV_HEADER + "\n")
    (sys.stderr if args.format == "csv" else sys.stdout).write(report_text(report))
    return 1 if report.violation_count else 0


def _cmd_verify(args) -> int:
    cap = oracle_max_order()
    if not 1 <= args.max_order <= cap:
        raise ValueError(f"--max-order must be between 1 and the brute-force cap {cap}, "
                         f"got {args.max_order}")
    failures = 0
    total = 0
    for n in range(1, args.max_order + 1):
        trees = 0
        for code in generate_trees(n):
            forest = code.decode()
            dom, dom_oracle = count_min_dominating_sets(forest), brute_force_domination(forest)
            ind, ind_oracle = count_max_independent_sets(forest), brute_force_independence(forest)
            if dom != dom_oracle:
                print(f"mismatch (domination) {code.to_string()}: dp={dom} oracle={dom_oracle}")
                failures += 1
            if ind != ind_oracle:
                print(f"mismatch (independence) {code.to_string()}: dp={ind} oracle={ind_oracle}")
                failures += 1
            trees += 1
        total += trees
        print(f"order {n}: {trees} trees checked")
    if failures:
        print(f"verify FAILED: {failures} mismatches over {total} trees")
        return 1
    print(f"verify ok: orders 1..{args.max_order}, {total} trees, dp == brute force")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcount",
        description="Exact minimum-dominating-set and maximum-independent-set "
                    "counting on forests, with exhaustive bound checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="gamma, MDS count, alpha, MIS count of a forest file")
    p_count.add_argument("--input", required=True, help="forest file")
    p_count.add_argument("--format", choices=("csv", "text"), default="text")
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list minimum dominating or maximum independent sets")
    p_enum.add_argument("--input", required=True, help="forest file")
    p_enum.add_argument("--set", choices=("mds", "mis"), default="mds")
    p_enum.add_argument("--limit", type=int, default=None)
    p_enum.add_argument("--format", choices=("csv", "text"), default="text")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_family = sub.add_parser("family", help="build and evaluate a two-level spider family tree")
    p_family.add_argument("--p", help="comma-separated hub part sizes, e.g. 3,3,3")
    p_family.add_argument("--gamma", type=int, help="target domination number (with --k)")
    p_family.add_argument("--k", type=int, help="hub count for the balanced partition")
    p_family.add_argument("--format", choices=("csv", "text"), default="text")
    p_family.set_defaults(func=_cmd_family)

    p_opt = sub.add_parser("optimize-family", help="best hub count and counts per gamma")
    p_opt.add_argument("--gamma", required=True, help="gamma value or comma-separated list")
    p_opt.add_argument("--trend", action="store_true",
                       help="add ratio columns against gamma*2^gamma/ln(gamma)")
    p_opt.add_argument("--format", choices=("csv", "text"), default="text")
    p_opt.set_defaults(func=_cmd_optimize_family)

    p_search = sub.add_parser("search", help="exhaustive sweep with bound checks")
    p_search.add_argument("--min-order", type=int, default=1)
    p_search.add_argument("--max-order", type=int, default=10)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--emit-all", action="store_true",
                          help="emit one CSV row per processed tree")
    p_search.add_argument("--format", choices=("csv", "text"), default="text")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="dynamic program vs brute force, all trees up to an order")
    p_verify.add_argument("--max-order", type=int, default=10)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Counts run to tens of thousands of digits and are printed in full.
    # Lift the int/str conversion cap for this call only, so a caller that
    # runs main in-process keeps its own setting.
    saved_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(saved_digits)


if __name__ == "__main__":
    sys.exit(main())
