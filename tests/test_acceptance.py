"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Frozen regression values (the decay-curve constants, the exact match
probabilities) were computed from the enumeration oracles or from the first
seeded runs and are pinned here.
"""

import ast
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_label_preserving_pair, random_tree_pair
from treeirs import bounds as bnd
from treeirs import montecarlo as mc
from treeirs.canon import canon_full, enumerate_cone_maps
from treeirs.classify import (
    boundary_quotient_elements,
    classify_case,
    in_Xi,
    praeger_saxl_check,
    root_colours,
    theta_event,
)
from treeirs.cli import main as cli_main
from treeirs.irs import (
    transporter,
    uniform_conjugate_measure,
    verify_E1,
    verify_E2,
    verify_index,
)
from treeirs.perm import (
    GeneratedGroup,
    enumerate_subgroups,
    from_cycles,
    group_to_json,
    is_even,
    product_of_symmetric,
    subgroups_of,
    symmetric_group,
)
from treeirs.thompson import TreePair, compose, inverse, is_label_preserving, reduce_pair
from treeirs.tree import ColourScheme, level_counts, level_counts_direct


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# criterion 1: counting lemmas, exhaustively at degree <= 4 plus the product
# ---------------------------------------------------------------------------

def _disjoint_nonempty_pairs(degree):
    pts = range(degree)
    for ru in range(1, degree):
        for U in itertools.combinations(pts, ru):
            rest = [x for x in pts if x not in set(U)]
            for rv in range(1, len(rest) + 1):
                for V in itertools.combinations(rest, rv):
                    yield U, V


def test_c1_counting_lemma_exhaustiveness():
    t0 = time.time()
    checked = 0
    for degree in (1, 2, 3, 4):
        ambient = symmetric_group(degree)
        subs, _ = enumerate_subgroups(degree)
        pairs = list(_disjoint_nonempty_pairs(degree))
        for gamma in subs:
            mu = uniform_conjugate_measure(gamma, ambient)
            for U, V in pairs:
                tv = transporter(gamma, U, V)
                if not tv.elements:
                    continue
                r1 = verify_E1(mu, U, V, tv.restrictions)
                r2 = verify_index(mu, tv.elements, U, V)
                assert r1.holds, ("E1", degree, gamma.generators, U, V, r1)
                assert r2.holds, ("index", degree, gamma.generators, U, V, r2)
                checked += 2
    product = product_of_symmetric([2, 3])
    for lam in subgroups_of(product):
        mu = uniform_conjugate_measure(lam, product)
        for b in lam.elements:
            res = verify_E2(mu, (0, 1), [b])
            assert res.holds, ("E2", lam.generators, b, res)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes: {elapsed:.1f}s"
    report(f"C1 counting-lemma exhaustiveness: PASS "
           f"({checked} instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: exact hypergeometric tails never exceed the entropy bound
# ---------------------------------------------------------------------------

def test_c2_chernoff_dominance():
    t0 = time.time()
    checked = 0
    for x in range(2, 11):
        for u in range(1, x):
            for k in range(1, x + 1):
                p = Fraction(u, x)
                for t in range(math.ceil(p * k), k + 1):
                    assert bnd.chernoff_dominates(x, u, k, t, "upper"), (x, u, k, t)
                    checked += 1
                for t in range(0, math.floor(p * k) + 1):
                    assert bnd.chernoff_dominates(x, u, k, t, "lower"), (x, u, k, t)
                    checked += 1
    report(f"C2 Chernoff dominance (exact rationals): PASS "
           f"({checked} tails, {time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: canonical forms agree with brute force
# ---------------------------------------------------------------------------

def _all_subsets(n):
    return [E for k in range(n + 1) for E in itertools.combinations(range(n), k)]


def _partition_key(classes):
    return sorted(tuple(sorted(v)) for v in classes.values())


def _check_full_mode_against_maps(d, depth):
    subsets = _all_subsets(d ** depth)
    maps = enumerate_cone_maps(depth, d)
    brute, canon = {}, {}
    for E in subsets:
        key = min({tuple(sorted(m[x] for x in E)) for m in maps} | {tuple(E)})
        brute.setdefault(key, []).append(E)
        canon.setdefault(canon_full(E, depth, d), []).append(E)
    assert _partition_key(brute) == _partition_key(canon), (d, depth)
    return len(subsets)


def _wreath_generators_on_leaves(d, depth):
    """Adjacent child transpositions at every internal vertex, as leaf maps."""
    gens = []
    for level in range(depth):          # level of the internal vertex
        block = d ** (depth - level - 1)
        for node in range(d ** level):
            base = node * d * block
            for j in range(d - 1):
                m = list(range(d ** depth))
                for i in range(block):
                    a = base + j * block + i
                    b = base + (j + 1) * block + i
                    m[a], m[b] = m[b], m[a]
                gens.append(tuple(m))
    return gens


def _orbit_partition_by_bfs(subsets, gens):
    seen = {}
    cls = 0
    for E in subsets:
        if E in seen:
            continue
        frontier = [E]
        seen[E] = cls
        while frontier:
            nxt = []
            for S in frontier:
                for g in gens:
                    img = tuple(sorted(g[x] for x in S))
                    if img not in seen:
                        seen[img] = cls
                        nxt.append(img)
            frontier = nxt
        cls += 1
    return seen


def test_c3_canonical_form_correctness():
    t0 = time.time()
    pairs_checked = 0
    # full mode, exhaustive map enumeration: d = 2 depth <= 3, d = 3 depth <= 2
    for d, depth in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        pairs_checked += _check_full_mode_against_maps(d, depth) ** 2
    # full mode d = 3 depth = 3: the map group has 6^13 elements, far past any
    # enumeration cap, so small subset sizes are checked against an
    # independent generator-orbit BFS instead
    d, depth = 3, 3
    gens = _wreath_generators_on_leaves(d, depth)
    for k in (1, 2, 3, 4):
        subsets = list(itertools.combinations(range(d ** depth), k))
        orbit_of = _orbit_partition_by_bfs(subsets, gens)
        canon = {}
        for E in subsets:
            canon.setdefault(canon_full(E, depth, d), []).append(E)
        brute = {}
        for E in subsets:
            brute.setdefault(orbit_of[E], []).append(E)
        assert _partition_key(brute) == _partition_key(canon), k
        pairs_checked += len(subsets) ** 2
    # coloured mode at d + 1 = 3: every F <= Sym(3), depths 1..3, all root
    # colour pairs within one orbit: for each source subset, the set of
    # brute-force images must equal the set of canonically equivalent targets
    from treeirs.canon import canon_coloured
    subs3, _ = enumerate_subgroups(3)
    for F in subs3:
        scheme = ColourScheme(2, F)
        for depth in (1, 2, 3):
            subsets = _all_subsets(2 ** depth)
            forms = {c: {E: canon_coloured(E, depth, scheme, c) for E in subsets}
                     for c in range(3)}
            for c_e in range(3):
                for c_f in range(3):
                    if scheme.orbit_index[c_e] != scheme.orbit_index[c_f]:
                        continue
                    maps = enumerate_cone_maps(depth, 2, scheme, c_e, c_f)
                    by_form: dict[int, set] = {}
                    for F2 in subsets:
                        by_form.setdefault(forms[c_f][F2], set()).add(F2)
                    for E in subsets:
                        images = {tuple(sorted(m[x] for x in E)) for m in maps}
                        matches = by_form.get(forms[c_e][E], set())
                        assert images == matches, (F.generators, depth, c_e, c_f, E)
                        pairs_checked += len(subsets)
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 3 exceeded 10 minutes: {elapsed:.1f}s"
    report(f"C3 canonical-form correctness: PASS "
           f"(~{pairs_checked} pairs, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: exact match probabilities and Monte Carlo agreement
# ---------------------------------------------------------------------------

def test_c4_exact_points_and_monte_carlo():
    t0 = time.time()
    assert mc.exact_treematch(2, 2, 2) == Fraction(5, 9)
    est = mc.estimate_treematch(2, 2, 2, trials=100_000, seed=7)
    assert abs(est.p_hat - 5 / 9) <= 3 * est.stderr

    assert mc.exact_cut1(2, 2, 2, 2) == Fraction(4, 7)
    est = mc.estimate_cut1(2, 2, 2, 2, trials=60_000, seed=11)
    assert abs(est.p_hat - 4 / 7) <= 3 * est.stderr

    assert mc.exact_cut2(2, 2, 2, 2) == Fraction(10, 21)
    est = mc.estimate_cut2(2, 2, 2, 2, trials=60_000, seed=13)
    assert abs(est.p_hat - 10 / 21) <= 3 * est.stderr

    scheme = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    assert mc.exact_colormatch(scheme, 2, 1, 0) == Fraction(5, 9)
    est = mc.estimate_colormatch(scheme, 2, 1, 0, trials=60_000, seed=17)
    assert abs(est.p_hat - 5 / 9) <= 3 * est.stderr
    report(f"C4 exact points vs Monte Carlo (treematch 5/9, cut1 4/7, "
           f"cut2 10/21, colormatch 5/9): PASS ({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: qualitative decay of the match probability at depth 8
# ---------------------------------------------------------------------------

# regression constants fixed from the first run (seed 1729, 20000 trials):
# p_hat = 0.07990, 0.00285, 0.0, 0.0 for k = 4, 8, 16, 32
DECAY_SEED = 1729
DECAY_TRIALS = 20_000
CURVE_C = 3.5e14
CURVE_c = 30.0


def test_c5_treematch_decay():
    t0 = time.time()
    ks = (4, 8, 16, 32)
    ests = [mc.estimate_treematch(2, 8, k, trials=DECAY_TRIALS, seed=DECAY_SEED)
            for k in ks]
    for a, b in zip(ests, ests[1:]):
        noise = 3 * math.hypot(a.stderr, b.stderr)
        assert b.p_hat <= a.p_hat + noise, (a, b)
    exponent = 1 / 8 - 0.01
    for k, est in zip(ks, ests):
        curve = CURVE_C * math.exp(-CURVE_c * k ** exponent)
        assert est.p_hat <= curve, (k, est.p_hat, curve)
    report(f"C5 treematch decay at n=8: PASS "
           f"(p_hat={[round(e.p_hat, 5) for e in ests]}, {time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: label-count matrix formula equals direct traversal
# ---------------------------------------------------------------------------

def test_c6_level_count_oracle_equality():
    t0 = time.time()
    checked = 0
    for d in (2, 3):
        subs, _ = enumerate_subgroups(d + 1)
        for F in subs:
            scheme = ColourScheme(d, F)
            for colour in range(d + 1):
                lab = scheme.orbit_index[colour]
                for n in range(1, 7):
                    expect = level_counts(scheme, n, lab)
                    for policy in ("value", "orbit"):
                        got = level_counts_direct(scheme, n, colour, policy)
                        assert got == expect, (d, F.generators, colour, n, policy)
                        checked += 1
    report(f"C6 level-count matrix vs traversal: PASS "
           f"({checked} exact equalities, {time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: Praeger-Saxl order bound at degree <= 7
# ---------------------------------------------------------------------------

def test_c7_praeger_saxl():
    t0 = time.time()
    rep = praeger_saxl_check(7)
    assert rep.ok, rep.violations
    assert any(r.degree == 5 and r.order == 20 for r in rep.rows)
    assert any(r.degree == 7 and r.order == 42 for r in rep.rows)
    assert any(r.degree == 7 and r.order == 168 for r in rep.rows)
    assert 0 < rep.max_ratio <= 1
    report(f"C7 Praeger-Saxl audit (degree <= 7): PASS "
           f"({len(rep.rows)} primitive non-Alt groups, max |L|/4^m = "
           f"{rep.max_ratio:.5f}, {time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: classifier soundness against definitional brute force
# ---------------------------------------------------------------------------

def _xi_witness_sizes_unpruned(G):
    """Subset sizes |U| admitting Alt(U) x {id} <= G <= Sym(U) x Sym(U^c)."""
    sizes = set()
    for r in range(G.degree - 2, G.degree + 1):
        for U in itertools.combinations(range(G.degree), r):
            Uset = set(U)
            if any({g[x] for x in U} != Uset for g in G.generators):
                continue
            ok = True
            for imgs in itertools.permutations(U):
                p = list(range(G.degree))
                for xx, yy in zip(U, imgs):
                    p[xx] = yy
                p = tuple(p)
                if is_even(p) and p not in G:
                    ok = False
                    break
            if ok:
                sizes.add(r)
                break
    return sizes


def test_c8_classifier_soundness():
    t0 = time.time()
    subs6, _ = enumerate_subgroups(6)
    for G in subs6:
        sizes = _xi_witness_sizes_unpruned(G)
        for delta in (0, 1, 2):
            expect = any(s >= 6 - delta for s in sizes)
            assert in_Xi(G, delta)[0] == expect, (G.generators, delta)
    n_xi = 3 * len(subs6)

    # integration: the case assignment is exclusive and exhaustive on the toy
    # level (q = 3, d = 2, k_n = 6): no group lands outside Xi/I/II/III
    for G in subs6:
        for delta in (0, 1, 2):
            rep = classify_case(G, q=3, delta=delta)
            assert rep.case in ("Xi", "I", "II", "III"), (G.generators, delta)

    # theta events vs brute-force search over the boundary quotient, depth 1
    subs4, _ = enumerate_subgroups(4)
    subs3, _ = enumerate_subgroups(3)
    n_theta = 0
    for F in subs3:
        scheme = ColourScheme(2, F)
        rc = root_colours(scheme, 2)
        if scheme.orbit_index[rc[0]] != scheme.orbit_index[rc[1]]:
            continue
        block = 2
        movers = [h for h in boundary_quotient_elements(2, 1, scheme)
                  if {h[i] for i in range(block)} == set(range(block, 2 * block))]
        for G in subs4:
            expect = any(h in G.element_set for h in movers)
            assert theta_event(G, 0, 1, 2, scheme) == expect
            n_theta += 1

    # depth 2: seeded sample of subgroups of Sym(8), plus structured cases
    rng = random.Random(20240511)
    block = 4
    cone_swap = tuple(list(range(4, 8)) + list(range(4)))
    groups = [GeneratedGroup(8, [cone_swap]),
              GeneratedGroup(8, [from_cycles(8, (0, 4))]),
              GeneratedGroup(8, [])]
    for F in subs3:
        scheme = ColourScheme(2, F)
        pool = boundary_quotient_elements(2, 2, scheme)
        for _ in range(10):
            gens = [pool[rng.randrange(len(pool))]]
            if rng.random() < 0.5:
                a, b = rng.sample(range(8), 2)
                gens.append(from_cycles(8, (a, b)))
            try:
                groups.append(GeneratedGroup(8, gens, cap=5000))
                groups[-1].elements
            except Exception:
                groups.pop()
    for F in subs3:
        scheme = ColourScheme(2, F)
        rc = root_colours(scheme, 2)
        if scheme.orbit_index[rc[0]] != scheme.orbit_index[rc[1]]:
            continue
        movers = [h for h in boundary_quotient_elements(2, 2, scheme)
                  if {h[i] for i in range(block)} == set(range(block, 2 * block))]
        for G in groups:
            expect = any(h in G.element_set for h in movers)
            assert theta_event(G, 0, 1, 2, scheme) == expect
            n_theta += 1
    elapsed = time.time() - t0
    report(f"C8 classifier soundness: PASS ({n_xi} Xi checks over Sym(6), "
           f"{n_theta} theta checks, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 9: summability of the aggregate bound series
# ---------------------------------------------------------------------------

def test_c9_series_summability():
    t0 = time.time()
    params = bnd.BoundParams(d=2, q=4, C=1.0, c=1.0)
    horizon = 1_100_000
    rep = bnd.summability_scan(params, horizon, tol=1e-12)
    # Cauchy within the scan: past this index every increment is < 1e-12, and
    # the Delta-term tail past the horizon is bounded analytically by C/N
    assert rep.cauchy
    assert rep.first_n_all_small == 1_000_001
    assert rep.tail_bound_term1 < 1e-6
    # the partial sums have genuinely settled: the largest term sits early
    assert rep.argmax_n == 1454
    assert rep.log_sum == pytest.approx(821.3537445965192, rel=1e-9)
    report(f"C9 series summability (C=c=1, d=2, q=4): PASS "
           f"(increments < 1e-12 from n={rep.first_n_all_small}, "
           f"log sum {rep.log_sum:.4f}, {time.time() - t0:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "the stated 'tail increments < 1e-12 by n = 200' is unattainable: the "
    "Delta-term alone is C/n^2 = 2.5e-5 at n = 200, and the k_n term is "
    "still growing there (log value ~ +138); increments only stay below "
    "1e-12 from n = 1,000,001 (see the passing summability test)"))
def test_c9_literal_n200_reading():
    params = bnd.BoundParams(d=2, q=4, C=1.0, c=1.0)
    assert bnd.aggregate_bound_log(params, 200) < math.log(1e-12)


# ---------------------------------------------------------------------------
# criterion 10: tree-pair group axioms and label-preserving closure
# ---------------------------------------------------------------------------

def test_c10_tree_pair_axioms():
    t0 = time.time()
    rng = random.Random(1009)
    for d, q in ((2, 2), (2, 3), (3, 2)):
        e = TreePair.identity(d, q)
        pairs = [random_tree_pair(rng, d, q) for _ in range(1000)]
        for p in pairs:
            assert reduce_pair(p) == p
            assert compose(p, inverse(p)) == e
            assert compose(e, p) == p
        for i in range(0, 999, 3):
            p1, p2, p3 = pairs[i], pairs[i + 1], pairs[i + 2]
            assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))
    subs3, _ = enumerate_subgroups(3)
    for F in subs3:
        scheme = ColourScheme(2, F)
        for _ in range(1000):
            p1 = random_label_preserving_pair(rng, scheme, 2, 3)
            p2 = random_label_preserving_pair(rng, scheme, 2, 3)
            assert is_label_preserving(compose(p1, p2), scheme)
    report(f"C10 tree-pair axioms and label-preserving closure: PASS "
           f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism across worker counts
# ---------------------------------------------------------------------------

def test_c11_cli_determinism(tmp_path):
    t0 = time.time()
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps({"d": 2, "generators": [[1, 0, 2]]}))
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    commands = [
        ["verify-counting", "--degree", "3"],
        ["simulate", "--experiment", "treematch", "--d", "2", "--n", "3",
         "--k", "2", "--trials", "3000", "--seed", "5"],
        ["simulate", "--experiment", "colormatch", "--d", "2", "--n", "2",
         "--k", "1", "--trials", "2000", "--seed", "5",
         "--scheme", str(scheme_path)],
        ["classify", "--group-file", str(gfile), "--delta", "1", "--q", "2"],
        ["bounds", "--d", "2", "--q", "4", "--n-hi", "10",
         "--cc-C", "1.0", "--cc-c", "1.0"],
        ["census", "--d", "2", "--depth", "3", "--k", "3"],
    ]
    for i, argv in enumerate(commands):
        outs = []
        for run, workers in enumerate(("1", "4")):
            out = tmp_path / f"cmd{i}_run{run}.csv"
            assert cli_main(argv + ["--out", str(out), "--workers", workers]) == 0
            outs.append(out.read_bytes()
                        + (tmp_path / f"cmd{i}_run{run}.json").read_bytes())
        assert outs[0] == outs[1], argv
    report(f"C11 CLI determinism across worker counts: PASS "
           f"({len(commands)} commands, {time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# tooling: every import in src/ and tests/ is read
# ---------------------------------------------------------------------------

def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, as "file:line: name".
    An import line marked ``# noqa: F401`` is a deliberate re-export."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in read]


def test_unused_import_scan_flags_only_unread_names(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "import json as js\n"
                   "from math import (\n"
                   "    comb,\n"
                   "    exp,  # noqa: F401\n"
                   "    log,\n"
                   ")\n"
                   "from fractions import Fraction  # noqa: F401\n"
                   "from itertools import chain\n"
                   "print(os.path.sep, log(2), 'chain')\n")
    assert _unused_imports(mod) == ["mod.py:3: js", "mod.py:5: comb", "mod.py:10: chain"]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "treeirs").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []
    report(f"tooling: no unused imports in {len(files)} modules: PASS")


def _dead_helpers(modules, searched) -> list[str]:
    """The private module-level functions and classes of ``modules`` named
    nowhere in the ``searched`` files but inside their own definitions, as
    "file:line: name"."""
    texts = {path: path.read_text() for path in searched}
    dead = []
    for path in modules:
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text, str(path)).body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
            own = "".join(lines[first - 1:node.end_lineno])
            word = re.compile(rf"\b{node.name}\b")
            uses = sum(len(word.findall(t)) for t in texts.values())
            if uses == len(word.findall(own)):
                dead.append(f"{path.name}:{node.lineno}: {node.name}")
    return dead


def test_dead_helper_scan_flags_only_orphans(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _orphan(n):\n"
                   "    return _orphan(n - 1) if n else 0\n\n\n"
                   "class _Used:\n"
                   "    pass\n\n\n"
                   "def _named_in_a_test():\n"
                   "    pass\n\n\n"
                   "def public():\n"
                   "    return _Used()\n")
    test = tmp_path / "test_mod.py"
    test.write_text("from mod import _named_in_a_test\n")
    assert _dead_helpers([mod], [mod, test]) == ["mod.py:1: _orphan"]


def test_no_dead_private_helpers():
    # a private helper that a change leaves without any caller, test or
    # mention fails here; the benchmark and CI steps count as callers
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "treeirs").glob("*.py"))
    searched = (modules + sorted((root / "tests").glob("*.py"))
                + sorted((root / "perfbench").rglob("*.py"))
                + [root / ".github" / "workflows" / "tier1.yml"])
    assert len(modules) > 8
    assert _dead_helpers(modules, searched) == []
    report(f"tooling: no orphaned private helper in {len(modules)} modules: PASS")
