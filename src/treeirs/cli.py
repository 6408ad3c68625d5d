"""Batch command-line interface: verification sweeps, simulations, censuses,
classification and bounds tables, all with deterministic output.

Every command is a pure function of its flags: the default seed is the fixed
constant 1729 (never the clock), row order is canonical, and floats are
written with repr so reruns are byte-identical.  CSV outputs get a JSON
mirror with the same basename.  Exit codes: 0 all checks pass, 1 a
counterexample was found, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from fractions import Fraction
from math import exp

from . import bounds as bnd
from . import montecarlo as mc
from .canon import ColourSchemeMismatch, orbit_census
from .classify import classify_case, in_Pi, profile
from .irs import (
    transporters,
    uniform_conjugate_measure,
    verify_E1,
    verify_E2,
    verify_index,
)
from .perm import (
    enumerate_subgroups,
    load_group,
    product_of_symmetric,
    subgroups_of,
    symmetric_group,
)
from .tree import ColourScheme, scheme_from_json

DEFAULT_SEED = 1729


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _write_rows(path: str, fmt: str, header: list[str], rows: list[list]) -> None:
    rows = [[_fmt(x) for x in row] for row in rows]
    payload = {"header": header, "rows": rows}
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())
    mirror = os.path.splitext(path)[0] + ".json"
    with open(mirror, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _pts(points) -> str:
    return ";".join(str(x) for x in points)


def _disjoint_pairs(degree: int):
    pts = range(degree)
    out = []
    for ru in range(1, degree):
        for U in itertools.combinations(pts, ru):
            rest = [x for x in pts if x not in set(U)]
            for rv in range(1, len(rest) + 1):
                for V in itertools.combinations(rest, rv):
                    out.append((U, V))
    return out


def counting_rows(degree: int, cap: int) -> list[list]:
    """E1 and transporter-index rows for all subgroups of Sym(degree), plus
    conjugacy-class-size rows over the fixed Sym(2) x Sym(3) product.

    Conjugate subgroups have the same uniform conjugate measure, so one
    measure serves a whole conjugacy class and is dropped after its last
    member's rows."""
    rows = []
    ambient = symmetric_group(degree, cap=max(cap, 720))
    subs, classes = enumerate_subgroups(degree, cap=max(cap, 720))
    class_of = {gid: cls for cls in classes for gid in cls}
    measures = {}
    by_U = [(U, [V for _, V in UV]) for U, UV in
            itertools.groupby(_disjoint_pairs(degree), key=lambda pair: pair[0])]
    for gid, gamma in enumerate(subs):
        cls = class_of[gid]
        mu = measures.pop(cls, None) or uniform_conjugate_measure(gamma, ambient)
        if gid != cls[-1]:
            measures[cls] = mu
        emitted = False
        for U, Vs in by_U:
            own = transporters(gamma, U)
            for V in Vs:
                tv = own.get(V)
                if tv is None:
                    continue
                emitted = True
                res = verify_E1(mu, U, V, tv.restrictions)
                rows.append(["E1", degree, gid, _pts(U), _pts(V),
                             res.lhs.numerator, res.lhs.denominator,
                             res.rhs.numerator, res.rhs.denominator,
                             f"|A|={len(tv.restrictions)}", res.holds])
                res = verify_index(mu, tv.elements, U, V)
                rows.append(["index", degree, gid, _pts(U), _pts(V),
                             res.lhs.numerator, res.lhs.denominator,
                             res.rhs.numerator, res.rhs.denominator,
                             f"|Q|={len(tv.elements)}", res.holds])
        if not emitted:
            rows.append(["E1", degree, gid, "", "", 0, 1, 0, 1, "vacuous", True])
    product = product_of_symmetric([2, 3])
    side1, side2 = (0, 1), (2, 3, 4)
    for lid, lam in enumerate(subgroups_of(product)):
        mu = uniform_conjugate_measure(lam, product)
        for b in lam.elements:
            res = verify_E2(mu, side1, side2, [b])
            rows.append(["E2", product.degree, lid, _pts(side1), _pts(side2),
                         res.lhs.numerator, res.lhs.denominator,
                         res.rhs.numerator, res.rhs.denominator,
                         f"B={_pts(b)}", res.holds])
    return rows


def cmd_verify_counting(args) -> int:
    if args.degree > 5:
        print("verify-counting supports --degree <= 5", file=sys.stderr)
        return 2
    rows = counting_rows(args.degree, args.cap)
    header = ["lemma", "degree", "gamma_id", "U", "V",
              "lhs_num", "lhs_den", "rhs_num", "rhs_den", "detail", "holds"]
    _write_rows(args.out, args.format, header, rows)
    bad = [r for r in rows if r[-1] is not True]
    if bad:
        print(f"counterexample: {bad[0]}", file=sys.stderr)
        return 1
    print(f"verified {len(rows)} instances, all hold")
    return 0


def _load_scheme(path: str | None) -> ColourScheme | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return scheme_from_json(json.load(fh))


def cmd_simulate(args) -> int:
    scheme = _load_scheme(args.scheme)
    if scheme is not None and scheme.d != args.d:
        raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {args.d}")
    params = None
    if args.cc_C is not None and args.cc_c is not None:
        params = bnd.BoundParams(d=args.d, q=args.q, C=args.cc_C, c=args.cc_c)
    name = args.experiment
    if name == "treematch":
        est = mc.estimate_treematch(args.d, args.n, args.k, args.trials,
                                    args.seed, scheme=scheme)
    elif name == "cut1":
        est = mc.estimate_cut1(args.d, args.q, args.n, args.k, args.trials,
                               args.seed)
    elif name == "cut2":
        est = mc.estimate_cut2(args.d, args.q, args.n, args.k, args.trials,
                               args.seed)
    elif name == "colormatch":
        if scheme is None:
            print("colormatch needs --scheme", file=sys.stderr)
            return 2
        est = mc.estimate_colormatch(scheme, args.n, args.k, args.orbit,
                                     args.trials, args.seed,
                                     root_label=args.root_label)
    else:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    bound = None if params is None else params.C * exp(-params.c * args.k ** params.alpha)
    scheme_txt = "" if scheme is None else json.dumps(
        {"d": scheme.d, "generators": [list(g) for g in scheme.F.generators]},
        separators=(",", ":"))
    header = ["experiment", "d", "q", "n", "k", "scheme", "trials", "seed",
              "successes", "p_hat", "stderr", "bound_value"]
    rows = [[name, args.d, args.q, args.n, args.k, scheme_txt, est.trials,
             est.seed, est.successes, est.p_hat, est.stderr, bound]]
    _write_rows(args.out, args.format, header, rows)
    print(f"{name}: p_hat={est.p_hat} stderr={est.stderr}")
    return 0


def cmd_classify(args) -> int:
    G = load_group(args.group_file, cap=args.cap)
    scheme = _load_scheme(args.scheme)
    if scheme is not None and scheme.d != args.d:
        raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {args.d}")
    rep = classify_case(G, args.q, args.delta)
    xi_ok, wit = rep.case == "Xi", rep.witness
    bound_log = None
    if args.cc_C is not None and args.cc_c is not None and rep.case in ("I", "II", "III"):
        params = bnd.BoundParams(d=args.d, q=args.q, C=args.cc_C, c=args.cc_c)
        bound_log = bnd.case_bound_log(rep.case, params, float(G.degree),
                                       t_gamma=float(rep.t_max))
    pi_txt = None
    if scheme is not None:
        from .classify import root_colours
        labels = []
        block = G.degree // args.q
        rc = root_colours(scheme, args.q)
        from .tree import cone_leaf_labels
        for x in range(args.q):
            labels.extend(cone_leaf_labels(scheme, rc[x],
                                           _int_log(block, args.d)))
        pi_txt = in_Pi(G, tuple(labels), args.delta)[0]
    header = ["group_id", "degree", "t_max", "case", "in_Xi", "in_Pi",
              "delta", "witness_size", "bound_log"]
    rows = [[os.path.basename(args.group_file), G.degree, rep.t_max, rep.case,
             xi_ok, pi_txt, args.delta,
             len(wit.U) if wit else None, bound_log]]
    _write_rows(args.out, args.format, header, rows)
    print(f"case {rep.case}, t_max={rep.t_max}")
    return 0


def _int_log(block: int, d: int) -> int:
    n = 0
    while d ** n < block:
        n += 1
    if d ** n != block:
        raise ValueError(f"degree/q = {block} is not a power of d = {d}")
    return n


def cmd_bounds(args) -> int:
    if args.n_lo < 1 or args.n_hi < args.n_lo:
        print(f"bounds needs 1 <= --n-lo <= --n-hi; got --n-lo {args.n_lo}, "
              f"--n-hi {args.n_hi}", file=sys.stderr)
        return 2
    params = bnd.BoundParams(d=args.d, q=args.q, C=args.cc_C, c=args.cc_c)
    try:
        float(bnd.k_n(params, args.n_hi))
    except OverflowError:
        print(f"bounds needs k_n = q*d^n to fit a float; --n-hi {args.n_hi} "
              f"is too large", file=sys.stderr)
        return 2
    print(f"alpha = {params.alpha}")
    header = ["n", "k_n", "delta_n", "case", "bound_value_log", "partial_sum_log"]
    rows = []
    partial = -float("inf")
    for n in range(args.n_lo, args.n_hi + 1):
        kn = bnd.k_n(params, n)
        dn = bnd.delta_n(params, n)
        agg6 = bnd.aggregate_bound_log(params, n, 6)
        partial = bnd.logaddexp(partial, agg6)
        for case, val in (
                ("I", bnd.case_bound_log("I", params, float(kn), t_gamma=kn - dn)),
                ("II", bnd.case_bound_log("II", params, float(kn))),
                ("III", bnd.case_bound_log("III", params, float(kn))),
                ("aggregate6", agg6),
                ("aggregate3", bnd.aggregate_bound_log(params, n, 3)),
        ):
            rows.append([n, kn, dn, case, val,
                         partial if case == "aggregate6" else None])
    _write_rows(args.out, args.format, header, rows)
    return 0


def cmd_census(args) -> int:
    scheme = _load_scheme(args.scheme)
    leaves = args.d ** args.depth
    if args.k > leaves:
        # orbit_census counts no subsets here; a header-only table is no answer
        raise mc.KTooLarge(f"k={args.k} exceeds {leaves} leaves")
    census = orbit_census(args.d, args.depth, args.k, scheme,
                          parent_colour=args.parent_colour, budget=args.budget)
    header = ["d", "depth", "k", "mode", "class_id", "count"]
    rows = [[args.d, args.depth, args.k, census.mode, form, cnt]
            for form, cnt in census.counts]
    _write_rows(args.out, args.format, header, rows)
    prob = census.match_probability()
    print(f"{len(census.counts)} classes over {census.total} subsets; "
          f"match probability {prob.numerator}/{prob.denominator}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="treeirs", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for simulate's trials; the other commands "
                            "accept and ignore it")

    p = sub.add_parser("verify-counting", help="exhaustive counting-lemma sweeps")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=10_000)
    common(p)
    p.set_defaults(fn=cmd_verify_counting)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimators")
    p.add_argument("--experiment", required=True,
                   choices=("treematch", "cut1", "cut2", "colormatch"))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--scheme", help="colour scheme JSON file")
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--root-label", type=int, default=0)
    p.add_argument("--cc-C", type=float, default=None)
    p.add_argument("--cc-c", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("classify", help="case classification of a level subgroup")
    p.add_argument("--group-file", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--scheme", help="colour scheme JSON file")
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--cc-C", type=float, default=None)
    p.add_argument("--cc-c", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("bounds", help="per-level bound table and series sums")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--cc-C", type=float, required=True)
    p.add_argument("--cc-c", type=float, required=True)
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("census", help="exact orbit census of k-subsets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scheme", help="colour scheme JSON file")
    p.add_argument("--parent-colour", type=int, default=None)
    p.add_argument("--budget", type=int, default=2_000_000)
    common(p)
    p.set_defaults(fn=cmd_census)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
