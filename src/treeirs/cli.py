"""Batch command-line interface: verification sweeps, simulations, censuses,
classification and bounds tables, all with deterministic output.

Every command is a pure function of its flags: the default seed is the fixed
constant 1729 (never the clock), row order is canonical, and floats are
written with repr so reruns are byte-identical.  CSV outputs get a JSON
mirror with the same basename.  Exit codes: 0 all checks pass, 1 a
counterexample was found, 2 a usage error or a refused input or computation
(a ``ValueError``, an ``OSError`` or an exceeded closure cap), 3 an internal
fault (any other ``RuntimeError``, printed as "internal error: ..."), such as
a conjugator that fails its check in ``verify-counting``.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from math import exp
from operator import itemgetter

from . import bounds as bnd
from . import montecarlo as mc
from .canon import orbit_census
from .classify import classify_case, in_Pi, profile, root_colours
from .irs import (
    kept_transporters,
    uniform_conjugate_measure,
    verify_E1,
    verify_E2,
    verify_index,
)
from .perm import (
    DEFAULT_CAP,
    ClosureExceedsCap,
    conjugate,
    enumerate_subgroups,
    load_group,
    product_of_symmetric,
    subgroup_classes,
    subgroups_of,
    symmetric_group,
)
from .tree import (ColourScheme, check_scheme, check_tree, cone_leaf_labels, level_depth,
                   scheme_from_json)

DEFAULT_SEED = 1729


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _write_rows(path: str, fmt: str, header: list[str], rows: list[list]) -> None:
    rows = [[_fmt(x) for x in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
        path = os.path.splitext(path)[0] + ".json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"header": header, "rows": rows}, fh, indent=1, sort_keys=True)
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


def _cells(res, detail: str) -> list:
    """The lhs, rhs, detail and holds columns of a verified row."""
    return [res.lhs.numerator, res.lhs.denominator,
            res.rhs.numerator, res.rhs.denominator, detail, res.holds]


def _class_table(mu, degree: int) -> list:
    """The E1 and index rows of the first member R of ``mu``'s support, less
    their first five columns, as (U, V, E1 cells, index cells) for each pair
    (U, V) with a non-empty U -> V transporter, in ``_disjoint_pairs``
    order.  R's transporters are the ones ``mu``'s E1 profile relabels onto
    the other members (``irs.kept_transporters``)."""
    R = mu.support[0][0]
    table = []
    for U, Vs in itertools.groupby(_disjoint_pairs(degree), key=lambda pair: pair[0]):
        own = kept_transporters(R, U)
        for _, V in Vs:
            tv = own.get(V)
            if tv is None:
                continue
            table.append((U, V,
                          _cells(verify_E1(mu, U, V, tv.restrictions),
                                 f"|A|={len(tv.restrictions)}"),
                          _cells(verify_index(mu, tv.elements, U, V),
                                 f"|Q|={len(tv.elements)}")))
    return table


def class_tables(degree: int):
    """The E1 and index rows of one subgroup per conjugacy class of
    subgroups of Sym(degree), for 1 <= degree <= 7.

    Yields (mu, table) one class at a time: mu is the uniform measure on the
    class (``irs.uniform_conjugate_measure``), whose first support member R,
    the class's least member by sorted element list, is the representative,
    and table is R's ``_class_table``.  Classes come in order of R (by
    order, then sorted element list), as in ``perm.enumerate_subgroups``,
    whose cached walk degrees up to 6 reuse; degree 7 walks
    ``perm.subgroup_classes``.  Each conjugator g of mu's one class
    (``ConjInvariantMeasure.classes``) is checked to carry R onto its member
    H before R's rows are verified, since the E1 profile reads the other
    members through them: g^-1 R g is generated by R's generators
    conjugated by g, so it equals H exactly when those lie in H and
    |H| = |R|."""
    if degree <= 6:
        subs, classes = enumerate_subgroups(degree)
        reps = [subs[cls[0]] for cls in classes]
    else:
        reps = sorted((cls[0] for cls in subgroup_classes(degree)),
                      key=lambda G: (G.order, G.elements))
    ambient = symmetric_group(degree)
    for c, gamma in enumerate(reps):
        mu = uniform_conjugate_measure(gamma, ambient)
        (R, _, members), = mu.classes()
        for i, (H, g) in enumerate(members):
            if H.order != R.order or not all(conjugate(a, g) in H for a in R.generators):
                raise RuntimeError(f"no conjugator carries subgroup 0 of class {c} "
                                   f"onto subgroup {i} of class {c}")
        yield mu, _class_table(mu, degree)


def counting_rows(degree: int, cap: int) -> list[list]:
    """E1 and transporter-index rows for all subgroups of Sym(degree), plus
    conjugacy-class-size rows over the fixed Sym(2) x Sym(3) product
    (``product_E2_rows``).

    The rows are verified once per conjugacy class, on its first member R
    (``class_tables``).  Every row's measure mu is uniform on R's
    conjugates, so it is invariant under conjugation by Sym(degree).  A
    member gamma = g^-1 R g carries U onto V through g^-1 r g exactly when r
    carries g^-1 U onto g^-1 V, so conjugation by g maps R's transporter at
    (g^-1 U, g^-1 V) onto gamma's at (U, V), keeping |A| and |Q|, and both
    sides of each inequality are the mu-measures of events that conjugation
    by g carries onto each other.  So gamma's row at (U, V) is R's row at
    (g^-1 U, g^-1 V), read off R's table.  Each conjugator g is the one mu
    keeps for gamma in its class, checked in ``class_tables``.  Each
    member's images of its table's point sets are computed once, and each
    pair's text once.  ``cap`` has no effect: Sym(degree), degree <= 6, is
    within ``DEFAULT_CAP``."""
    rows = []
    subs, _ = enumerate_subgroups(degree)
    gid_of = {G.elements: gid for gid, G in enumerate(subs)}
    pairs = _disjoint_pairs(degree)
    pair_id = {pair: i for i, pair in enumerate(pairs)}
    pair_txt = [(_pts(U), _pts(V)) for U, V in pairs]
    placed = {}
    for mu, table in class_tables(degree):
        sets = {S for U, V, _, _ in table for S in (U, V)}
        for H, g in mu.classes()[0][2]:
            placed[gid_of[H.elements]] = (table, sets, g)
    for gid in range(len(subs)):
        table, sets, g = placed[gid]
        image = {S: tuple(sorted(g[x] for x in S)) for S in sets}
        moved = sorted(((pair_id[image[U], image[V]], e1, ix) for U, V, e1, ix in table),
                       key=itemgetter(0))
        for i, e1, ix in moved:
            U_txt, V_txt = pair_txt[i]
            rows.append(["E1", degree, gid, U_txt, V_txt, *e1])
            rows.append(["index", degree, gid, U_txt, V_txt, *ix])
        if not moved:
            rows.append(["E1", degree, gid, "", "", 0, 1, 0, 1, "vacuous", True])
    return rows + product_E2_rows(2, 3)


def product_E2_rows(a: int, b: int) -> list[list]:
    """Conjugacy-class-size rows over Sym(a) x Sym(b), on the points
    0..a-1 and a..a+b-1: one per subgroup lambda (numbered as
    ``perm.subgroups_of`` orders them) and element x of lambda, checking
    ``verify_E2`` for B = {x} under the uniform measure on lambda's
    conjugates."""
    product = product_of_symmetric([a, b])
    side1, side2 = tuple(range(a)), tuple(range(a, a + b))
    rows = []
    for lid, lam in enumerate(subgroups_of(product)):
        mu = uniform_conjugate_measure(lam, product)
        for x in lam.elements:
            res = verify_E2(mu, side1, side2, [x])
            rows.append(["E2", product.degree, lid, _pts(side1), _pts(side2),
                         *_cells(res, f"B={_pts(x)}")])
    return rows


def cmd_verify_counting(args) -> int:
    if args.degree > 6:
        print("verify-counting supports --degree <= 6", file=sys.stderr)
        return 2
    rows = counting_rows(args.degree, DEFAULT_CAP)
    header = ["lemma", "degree", "gamma_id", "U", "V",
              "lhs_num", "lhs_den", "rhs_num", "rhs_den", "detail", "holds"]
    _write_rows(args.out, args.format, header, rows)
    bad = [r for r in rows if r[-1] is not True]
    if bad:
        print(f"counterexample: {bad[0]}", file=sys.stderr)
        return 1
    print(f"verified {len(rows)} instances, all hold")
    return 0


def _load_scheme(path: str | None, d: int) -> ColourScheme | None:
    """The scheme in the JSON file at ``path`` (None without one), refused
    unless it is for branching ``d``."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return check_scheme(scheme_from_json(json.load(fh)), d)


def cmd_simulate(args) -> int:
    scheme = _load_scheme(args.scheme, args.d)
    check_tree(args.d, args.q)  # every experiment writes the q column
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
    else:  # colormatch, the last of the parser's choices
        if scheme is None:
            print("colormatch needs --scheme", file=sys.stderr)
            return 2
        est = mc.estimate_colormatch(scheme, args.n, args.k, args.orbit,
                                     args.trials, args.seed,
                                     root_label=args.root_label)
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
    n = level_depth(G.degree, args.d, args.q)
    scheme = _load_scheme(args.scheme, args.d)
    rep = classify_case(G, args.q, args.delta)
    xi_ok, wit = rep.case == "Xi", rep.witness
    bound_log = None
    if args.cc_C is not None and args.cc_c is not None and rep.case in ("I", "II", "III"):
        params = bnd.BoundParams(d=args.d, q=args.q, C=args.cc_C, c=args.cc_c)
        bound_log = bnd.case_bound_log(rep.case, params, float(G.degree),
                                       t_gamma=float(rep.t_max))
    pi_txt = None
    if scheme is not None:
        labels = tuple(label for colour in root_colours(scheme, args.q)
                       for label in cone_leaf_labels(scheme, colour, n))
        pi_txt = in_Pi(G, labels, args.delta)[0]
    header = ["group_id", "degree", "t_max", "case", "in_Xi", "in_Pi",
              "delta", "witness_size", "bound_log"]
    rows = [[os.path.basename(args.group_file), G.degree, rep.t_max, rep.case,
             xi_ok, pi_txt, args.delta,
             len(wit.U) if wit else None, bound_log]]
    _write_rows(args.out, args.format, header, rows)
    print(f"case {rep.case}, t_max={rep.t_max}")
    return 0


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
    scheme = _load_scheme(args.scheme, args.d)
    census = orbit_census(args.d, args.depth, args.k, scheme,
                          parent_colour=args.parent_colour, budget=args.budget)
    if not census.total:
        # no k-subset exists when k > leaves; a header-only table is no answer
        raise mc.KTooLarge(f"k={args.k} exceeds {args.d ** args.depth} leaves")
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

    p = sub.add_parser("verify-counting", help="exhaustive counting-lemma sweeps")
    p.add_argument("--degree", type=int, required=True)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the trials")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("classify", help="case classification of a level subgroup")
    p.add_argument("--group-file", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--scheme", help="colour scheme JSON file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
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
    except (ValueError, OSError, ClosureExceedsCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
