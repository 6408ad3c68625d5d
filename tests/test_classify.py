import hashlib
import itertools
import random
from math import factorial

import pytest

from conftest import level_group, listed_by_elements, theta_vs_boundary_quotient
from treeirs.canon import enumerate_cone_maps
from treeirs.classify import (
    CaseReport,
    IncompatibleChain,
    LabelMismatch,
    LabelPartitionViolated,
    _is_constrained_cone_map,
    boundary_quotient_elements,
    build_alt_wreath_chain,
    children_heredity_check,
    classify_case,
    in_Pi,
    in_Xi,
    praeger_saxl_check,
    profile,
    root_colours,
    theta_event,
)
from treeirs.perm import (
    GeneratedGroup,
    contains_alt_on,
    enumerate_subgroups,
    from_cycles,
    is_even,
    minimal_blocks,
    orbits,
    product_of_symmetric,
    subgroups_of,
    symmetric_group,
)
from treeirs.tree import ColourScheme, ColourSchemeMismatch


def test_profile_examples():
    G = GeneratedGroup(4, [from_cycles(4, (0, 1)), from_cycles(4, (2, 3))])
    assert profile(G).sizes == (2, 2)
    assert profile(symmetric_group(5)).sizes == (5,)
    assert profile(GeneratedGroup(4, [])).sizes == (1, 1, 1, 1)
    assert profile(GeneratedGroup(6, [from_cycles(6, (2, 3, 4))])).giant == (2, 3, 4)


def test_in_xi_examples():
    s8 = symmetric_group(8, cap=50_000)
    ok, wit = in_Xi(s8, 0)
    assert ok and wit.U == tuple(range(8))

    # Alt(6) x {id} inside degree 8
    a6 = GeneratedGroup(8, [from_cycles(8, (i, i + 1, i + 2)) for i in range(4)])
    ok, wit = in_Xi(a6, 2)
    assert ok and wit.U == (0, 1, 2, 3, 4, 5)
    assert not in_Xi(a6, 1)[0]

    small = GeneratedGroup(8, [from_cycles(8, (0, 1))])
    assert not in_Xi(small, 2)[0]


def xi_unpruned(G, delta):
    """Definitional oracle: scan every subset U with |U| >= degree - delta."""
    pts = range(G.degree)
    for r in range(max(G.degree - delta, 0), G.degree + 1):
        for U in itertools.combinations(pts, r):
            Uset = set(U)
            if any({g[x] for x in U} != Uset for g in G.generators):
                continue
            good = True
            for imgs in itertools.permutations(U):
                p = list(range(G.degree))
                for x, y in zip(U, imgs):
                    p[x] = y
                p = tuple(p)
                if is_even(p) and p not in G:
                    good = False
                    break
            if good:
                return True
    return False


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_in_xi_agrees_with_unpruned_search(degree):
    subs, _ = enumerate_subgroups(degree)
    for G in subs:
        for delta in (0, 1, 2):
            assert in_Xi(G, delta)[0] == xi_unpruned(G, delta), (G.generators, delta)


def test_in_xi_order_exit_agrees_with_unpruned_search_degree6():
    # a seeded sample of Sym(6)'s subgroups, where the order bound
    # |G| < (degree - delta)!/2 refuses many before any orbit is scanned
    subs, _ = enumerate_subgroups(6)
    refused_by_order = 0
    for G in random.Random(1729).sample(subs, 200):
        for delta in (0, 1, 2):
            refused_by_order += G.order < factorial(6 - delta) // 2
            assert in_Xi(G, delta)[0] == xi_unpruned(G, delta), (G.generators, delta)
    assert refused_by_order > 100


@pytest.mark.parametrize("degree,sample", [(1, None), (2, None), (3, None), (4, None),
                                           (5, None), (6, 150)])
def test_short_generators_agree_with_element_lists(degree, sample):
    # enumerated subgroups carry short generating sets; every answer must be
    # the one their element-list twins give
    subs, _ = enumerate_subgroups(degree)
    if sample is not None:
        subs = random.Random(1729).sample(subs, sample)
    for G in subs:
        twin = listed_by_elements(G)
        assert orbits(G) == orbits(twin)
        for orb in orbits(G):
            blocks, twin_blocks = minimal_blocks(G, orb), minimal_blocks(twin, orb)
            assert (blocks is None) == (twin_blocks is None)
            if blocks is not None:
                assert blocks.blocks == twin_blocks.blocks
        for delta in (0, 1, 2):
            assert in_Xi(G, delta) == in_Xi(twin, delta)
            assert classify_case(G, 3, delta) == classify_case(twin, 3, delta)


def test_in_pi_examples():
    labels = (0, 0, 0, 1, 1, 1)
    full = product_of_symmetric([3, 3])
    ok, wits = in_Pi(full, labels, 0)
    assert ok and [w.U for w in wits] == [(0, 1, 2), (3, 4, 5)]

    diag = GeneratedGroup(6, [(1, 2, 0, 4, 5, 3)])
    assert not in_Pi(diag, labels, 0)[0]

    alt_alt = GeneratedGroup(6, [from_cycles(6, (0, 1, 2)), from_cycles(6, (3, 4, 5))])
    assert in_Pi(alt_alt, labels, 0)[0]

    with pytest.raises(LabelPartitionViolated):
        in_Pi(GeneratedGroup(6, [from_cycles(6, (2, 3))]), labels, 0)


@pytest.mark.parametrize("refused, message", [
    (lambda: in_Pi(product_of_symmetric([3, 3]), (0, 0, 0, 1, 1), 0),
     "labels must cover every point"),
    (lambda: in_Pi(product_of_symmetric([3, 3]), (0,) * 7, 0), "labels must cover every point"),
    (lambda: theta_event(GeneratedGroup(4, []), 1, 1, 2, 2, 1, ColourScheme.full(2)),
     "u, v must be distinct cone indices"),
    (lambda: theta_event(GeneratedGroup(4, []), 2, 0, 2, 2, 1, ColourScheme.full(2)),
     "u, v must be distinct cone indices"),
    (lambda: theta_event(GeneratedGroup(4, []), 0, -1, 2, 2, 1, ColourScheme.full(2)),
     "u, v must be distinct cone indices"),
    (lambda: boundary_quotient_elements(2, 2, 2, ColourScheme.full(2), cap=100),
     "boundary quotient exceeds cap=100"),
    (lambda: children_heredity_check(symmetric_group(4), symmetric_group(6), d=2, delta=1),
     "level sizes must differ by a factor of d"),
], ids=["in-pi-short", "in-pi-long", "theta-u-is-v", "theta-u-out", "theta-v-out",
        "quotient-cap", "heredity-levels"])
def test_classify_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


def test_in_pi_single_class_is_in_xi():
    subs, _ = enumerate_subgroups(4)
    labels = (0, 0, 0, 0)
    for G in subs:
        for delta in (0, 1):
            assert in_Pi(G, labels, delta)[0] == in_Xi(G, delta)[0]


def test_praeger_saxl_small_degrees():
    rep = praeger_saxl_check(5)
    assert rep.ok
    # the affine group of order 20 shows up at degree 5
    assert any(r.degree == 5 and r.order == 20 for r in rep.rows)
    # Alt and Sym themselves are excluded from the audit set
    assert not any(r.degree == 5 and r.order in (60, 120) for r in rep.rows)
    assert all(r.order <= r.bound for r in rep.rows)
    assert 0 < rep.max_ratio <= 1


def test_praeger_saxl_degree_cap():
    from treeirs.perm import DegreeTooLarge
    with pytest.raises(DegreeTooLarge):
        praeger_saxl_check(8)


def test_theta_event_examples():
    full = ColourScheme.full(2)
    # q = 2, d = 2, n = 1: cones {0,1} and {2,3}
    swap = GeneratedGroup(4, [from_cycles(4, (0, 2), (1, 3))])
    assert theta_event(swap, 0, 1, 2, 2, 1, full)

    half = GeneratedGroup(4, [from_cycles(4, (0, 2))])
    assert not theta_event(half, 0, 1, 2, 2, 1, full)

    assert not theta_event(GeneratedGroup(4, []), 0, 1, 2, 2, 1, full)


@pytest.mark.parametrize("degree,n,message", [
    (5, 1, r"degree 5 is not q\*d\^n for q=2, d=2"),
    (6, 1, r"degree 6 is not q\*d\^n for q=2, d=2"),
    (4, 2, r"degree 4 is not q\*d\^n for q=2, d=2, n=2"),
    (8, 1, r"degree 8 is not q\*d\^n for q=2, d=2, n=1"),
], ids=["degree-5", "degree-6", "level-1-as-n-2", "level-2-as-n-1"])
def test_theta_event_refuses_a_degree_off_the_level(degree, n, message):
    with pytest.raises(ValueError, match=message):
        theta_event(GeneratedGroup(degree, []), 0, 1, 2, 2, n, ColourScheme.full(2))


def test_theta_event_label_mismatch():
    triv = ColourScheme.trivial(2)
    swap = GeneratedGroup(4, [from_cycles(4, (0, 2), (1, 3))])
    with pytest.raises(LabelMismatch):
        theta_event(swap, 0, 1, 2, 2, 1, triv)


def test_theta_event_refuses_scheme_of_other_d():
    # a d = 3 scheme on a binary tree used to raise IndexError here and
    # KeyError in the brute-force oracle
    swap = GeneratedGroup(4, [from_cycles(4, (0, 2), (1, 3))])
    for scheme in (ColourScheme.full(3), ColourScheme.trivial(3)):
        with pytest.raises(ColourSchemeMismatch, match="scheme is for d=3, not 2"):
            theta_event(swap, 0, 1, 2, 2, 1, scheme)
        with pytest.raises(ColourSchemeMismatch, match="scheme is for d=3, not 2"):
            boundary_quotient_elements(2, 2, 1, scheme)


def test_theta_event_vs_bruteforce_depth1():
    subs, _ = enumerate_subgroups(4)
    schemes, _ = enumerate_subgroups(3)
    block = 2
    for F in schemes:
        scheme = ColourScheme(2, F)
        rc = root_colours(scheme, 2)
        if scheme.orbit_index[rc[0]] != scheme.orbit_index[rc[1]]:
            continue
        bqe = boundary_quotient_elements(2, 2, 1, scheme)
        movers = [h for h in bqe
                  if {h[i] for i in range(block)} == set(range(block, 2 * block))]
        for G in subs:
            expect = any(h in G.element_set for h in movers)
            assert theta_event(G, 0, 1, 2, 2, 1, scheme) == expect, \
                (F.generators, G.generators)


@pytest.mark.parametrize("d, q, n, order, checks, true, digest", [
    (2, 3, 1, None, 5_820, 812,
     "29a67abc0432283dc55c3ab7527f3c6177b7e444beb382b8621be3fc1af12da9"),
    (2, 2, 2, 128, 2_304, 398,
     "00cc0629f58608647a94264524c023dfea531cafbd1b75d9f1d82fc3f8c45ced"),
    (3, 2, 1, 72, 2_688, 546,
     "e4baaf91666dc0382edb349361d31f586c9658a24ded37cd57244f8411c6db6a"),
], ids=["Sym(6)", "W(2,2,2)", "W(3,2,1)"])
def test_theta_event_vs_boundary_quotient_exhaustive(d, q, n, order, checks, true, digest):
    # every subgroup of Sym(6), or of the level group W(d,q,n), against
    # every F whose root colours 0 and 1 share a label; the digest pins
    # each answer in order
    if order is None:
        subgroups = enumerate_subgroups(q * d ** n)[0]
    else:
        W = level_group(d, q, n)
        assert W.order == order == factorial(q) * factorial(d) ** (q * (d ** n - 1) // (d - 1))
        subgroups = subgroups_of(W)
    results = theta_vs_boundary_quotient(subgroups, d, q, n)
    assert (len(results), sum(results)) == (checks, true)
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


def _constrained_map_mismatches(d, depth, candidates):
    """(F, a, b, m) for each candidate m on which the constrained-map
    predicate and the map enumerator disagree, over every F <= Sym(d+1) and
    every colour pair, and the number of checks made."""
    bad, checks = [], 0
    for F in enumerate_subgroups(d + 1)[0]:
        scheme = ColourScheme(d, F)
        for a in range(d + 1):
            for b in range(d + 1):
                maps = set(enumerate_cone_maps(depth, d, scheme, a, b))
                for m in candidates(maps):
                    checks += 1
                    if _is_constrained_cone_map(m, depth, scheme, a, b) != (m in maps):
                        bad.append((F.generators, a, b, m))
    return bad, checks


@pytest.mark.parametrize("d,depth,n_checks", [(2, 1, 6 * 9 * 2), (2, 2, 6 * 9 * 24),
                                              (3, 1, 30 * 16 * 6)])
def test_constrained_map_predicate_vs_enumerator_every_permutation(d, depth, n_checks):
    perms = list(itertools.permutations(range(d ** depth)))
    assert _constrained_map_mismatches(d, depth, lambda maps: perms) == ([], n_checks)


def test_constrained_map_predicate_vs_enumerator_depth3():
    # the 128 rooted automorphisms of the binary depth-3 cone hold every
    # constrained map and every such map with two sibling leaves swapped;
    # the seeded permutations are almost never tree-structured
    rng = random.Random(29)
    wreath = enumerate_cone_maps(3, 2)
    assert len(wreath) == 128

    def candidates(maps):
        assert maps <= set(wreath)
        return list(wreath) + [tuple(rng.sample(range(8), 8)) for _ in range(100)]

    assert _constrained_map_mismatches(2, 3, candidates) == ([], 6 * 9 * 228)


def test_boundary_quotient_size_depth1_full():
    # q = 2, d = 2, n = 1, F = Sym(3): 2 cone permutations x 2 x 2 local swaps
    full = ColourScheme.full(2)
    els = boundary_quotient_elements(2, 2, 1, full)
    assert len(set(els)) == len(els) == 8
    for h in els:
        assert sorted(h) == list(range(4))


@pytest.mark.parametrize("q", [1, 0])
def test_boundary_quotient_refuses_fewer_than_two_root_cones(q):
    # q = 1 used to give the 2 permutations of one cone, and q = 0 one
    # permutation of no points
    with pytest.raises(ValueError, match=f"need q >= 2, not {q}"):
        boundary_quotient_elements(2, q, 1, ColourScheme.full(2))


def test_classify_case_refuses_q_below_one():
    # the case I threshold (1 - 1/2q) k_n used to divide by zero
    G = GeneratedGroup(4, [from_cycles(4, (0, 1))])
    with pytest.raises(ValueError, match="need q >= 1, not 0"):
        classify_case(G, 0, 0)


def test_classify_case_matrix():
    s6 = symmetric_group(6)
    rep = classify_case(s6, q=3, delta=0)
    assert rep.case == "Xi" and rep.witness.U == tuple(range(6))

    c6 = GeneratedGroup(6, [from_cycles(6, tuple(range(6)))])
    rep = classify_case(c6, q=3, delta=0)
    assert rep.case == "III"

    triv = GeneratedGroup(6, [])
    rep = classify_case(triv, q=3, delta=0)
    assert rep.case == "I" and rep.t_max == 1

    # PGL(2,5) on the projective line (point 5 = infinity) is primitive
    # without Alt(6): case II.  Generators: x+1, 2x, 1/x.
    pgl = GeneratedGroup(6, [(1, 2, 3, 4, 0, 5), (0, 2, 4, 1, 3, 5), (5, 1, 3, 2, 4, 0)])
    assert pgl.order == 120
    rep = classify_case(pgl, q=3, delta=0)
    assert rep.case == "II"


def classify_case_oracle(G, q, delta):
    """``classify_case`` as it was before the giant projection was kept on
    G's memo: each call restricts G to its giant afresh."""
    ok, wit = in_Xi(G, delta)
    prof = profile(G)
    if ok:
        return CaseReport("Xi", prof.t_max, wit)
    if prof.t_max <= (1 - 1 / (2 * q)) * G.degree:
        return CaseReport("I", prof.t_max, None)
    proj = G.restricted(prof.giant)
    if minimal_blocks(proj) is not None:
        return CaseReport("III", prof.t_max, None)
    if contains_alt_on(proj, range(proj.degree)):
        return CaseReport("alt-giant", prof.t_max, None)
    return CaseReport("II", prof.t_max, None)


def test_classify_case_vs_fresh_restriction_oracle():
    # every subgroup of Sym(1..6), every q that puts the giant cut at or
    # below the whole level, twice each: the second call reads G's memo
    # (for q < 3 the giant need not cover every point, so the restricted
    # projection is kept there) and the oracle works on a cold twin
    restricted = 0
    for degree in range(1, 7):
        for G in enumerate_subgroups(degree)[0]:
            cold = GeneratedGroup(degree, G.generators)
            for q, delta in itertools.product((1, 2, 3), (0, 1, 2)):
                classify_case(G, q, delta)
                assert classify_case(G, q, delta) == classify_case_oracle(cold, q, delta)
            restricted += "classify.giant" in (G._memo or {})
    assert restricted > 100


def test_heredity_good_chain():
    gamma_n, gamma_n1 = build_alt_wreath_chain(6, 2, (0, 1, 2, 3, 4))
    rep = children_heredity_check(gamma_n, gamma_n1, d=2, delta=1)
    assert rep.compatible and rep.holds


def test_heredity_full_alt_chain():
    gamma_n, gamma_n1 = build_alt_wreath_chain(4, 2, (0, 1, 2, 3))
    rep = children_heredity_check(gamma_n, gamma_n1, d=2, delta=0)
    assert rep.compatible and rep.holds


def test_heredity_broken_chain_reported():
    gamma_n, gamma_n1 = build_alt_wreath_chain(4, 2, (0, 1, 2), drop_child=5)
    rep = children_heredity_check(gamma_n, gamma_n1, d=2, delta=1)
    assert not rep.wreath_ok          # dropping a child breaks compatibility
    assert not rep.holds
    assert 2 in rep.parent_to_children_failures  # parent of the dropped child
    with pytest.raises(IncompatibleChain):
        children_heredity_check(gamma_n, gamma_n1, d=2, delta=1, strict=True)


def test_heredity_d3_chain():
    gamma_n, gamma_n1 = build_alt_wreath_chain(4, 3, (0, 1, 2))
    rep = children_heredity_check(gamma_n, gamma_n1, d=3, delta=1)
    assert rep.compatible and rep.holds
