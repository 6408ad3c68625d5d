import hashlib
import itertools
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coloured_image, random_full_image
from treeirs import tree
from treeirs.canon import (
    BudgetExceeded,
    Census,
    ColourSchemeMismatch,
    DepthMismatch,
    Matcher,
    brute_force_equivalent,
    canon_coloured,
    canon_full,
    enumerate_cone_maps,
    equivalent,
    form_str,
    orbit_census,
)
from treeirs.classify import boundary_quotient_elements
from treeirs.perm import ClosureExceedsCap, enumerate_subgroups, from_cycles
from treeirs.tree import ColourScheme, cone_leaf_labels


def all_schemes(d):
    """A colour scheme for every subgroup F of Sym(d + 1)."""
    subs, _ = enumerate_subgroups(d + 1)
    return [ColourScheme(d, G) for G in subs]


def test_canon_full_siblings_vs_nonsiblings():
    # depth-2 binary cone: {00,01} ~ {10,11}, but {00,01} !~ {00,10}
    assert canon_full((0, 1), 2, 2) == canon_full((2, 3), 2, 2)
    assert canon_full((0, 1), 2, 2) != canon_full((0, 2), 2, 2)
    # {00,11} ~ {01,10}: swap the children of vertex 0
    assert canon_full((0, 3), 2, 2) == canon_full((1, 2), 2, 2)


def test_equivalent_basic():
    assert equivalent((0, 3), (1, 2), 2, 2)
    assert equivalent((0, 1), (0, 1), 2, 2)
    assert not equivalent((0, 1), (0,), 2, 2)  # cardinality differs


@pytest.mark.parametrize("colours", [(7, 9), (7, None), (None, 0)],
                         ids=["both", "colour_e", "colour_f"])
def test_equivalent_refuses_colours_without_scheme(colours):
    # colours 7 and 9 exist on no binary tree; full mode used to ignore them
    with pytest.raises(ValueError, match="parent_colour needs a colour scheme"):
        equivalent((0,), (1,), 2, 2, None, *colours)


@pytest.mark.parametrize("colours", [(-1, 0), (0, -1), (7, 0), (0, 7), (3, 3)])
def test_equivalent_refuses_colours_outside_the_scheme(colours):
    # colour -1 used to be read as the last colour and the pair called
    # inequivalent; colour 7 raised IndexError
    s = ColourScheme.from_generators(2, [(1, 0, 2)])
    bad = next(c for c in colours if not 0 <= c <= 2)
    with pytest.raises(ColourSchemeMismatch, match=f"colour {bad} outside 0..2"):
        equivalent((0,), (1,), 2, 2, s, *colours)
    with pytest.raises(ColourSchemeMismatch, match=f"colour {bad} outside 0..2"):
        enumerate_cone_maps(2, 2, s, *colours)


def test_mismatch_classes_live_in_tree():
    # canon imports the cone-context refusals back, so either import works
    assert ColourSchemeMismatch is tree.ColourSchemeMismatch
    assert DepthMismatch is tree.DepthMismatch


def test_canon_full_invariance_random():
    # 10^4 random (subset, group element) pairs at depth <= 8
    rng = random.Random(20240817)
    for _ in range(5000):
        d = rng.choice((2, 3))
        depth = rng.randint(1, 8 if d == 2 else 5)
        k = rng.randint(0, min(16, d ** depth))
        E = tuple(sorted(rng.sample(range(d ** depth), k)))
        g_image = random_full_image(rng, E, depth, d)
        assert canon_full(E, depth, d) == canon_full(g_image, depth, d)


def test_canon_coloured_invariance_random():
    rng = random.Random(915)
    schemes = all_schemes(2)
    for _ in range(5000):
        scheme = rng.choice(schemes)
        depth = rng.randint(1, 8)
        colour = rng.randrange(3)
        k = rng.randint(0, min(10, 2 ** depth))
        E = tuple(sorted(rng.sample(range(2 ** depth), k)))
        image = random_coloured_image(rng, E, depth, scheme, colour)
        assert canon_coloured(E, depth, scheme, colour) == \
            canon_coloured(image, depth, scheme, colour)


def test_coloured_full_scheme_matches_full_mode():
    full = ColourScheme.full(2)
    for depth in (1, 2, 3):
        classes_full = {}
        classes_col = {}
        for E in itertools.chain.from_iterable(
                itertools.combinations(range(2 ** depth), k)
                for k in range(2 ** depth + 1)):
            classes_full.setdefault(canon_full(E, depth, 2), set()).add(E)
            classes_col.setdefault(canon_coloured(E, depth, full, 0), set()).add(E)
        assert sorted(map(sorted, classes_full.values())) == \
            sorted(map(sorted, classes_col.values()))


def test_coloured_trivial_scheme_is_equality():
    triv = ColourScheme.trivial(2)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(4), k) for k in range(5)))
    for E in subsets:
        for F2 in subsets:
            assert equivalent(E, F2, 2, 2, triv, 0, 0) == (E == F2)


def test_coloured_label_mismatch_is_inequivalent():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    # colour 0 has label 0; colour 2 has label 1: never equivalent
    assert not equivalent((0,), (0,), 2, 2, s, 0, 2)
    # colours 0 and 1 share an orbit: equivalence is possible
    assert equivalent((0, 1, 2, 3), (0, 1, 2, 3), 2, 2, s, 0, 1)


def _partition_from(pairs_equal, subsets):
    classes = {}
    for E in subsets:
        placed = False
        for rep in classes:
            if pairs_equal(rep, E):
                classes[rep].append(E)
                placed = True
                break
        if not placed:
            classes[E] = [E]
    return sorted(sorted(v) for v in classes.values())


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_full_mode_agrees_with_brute_force(d, depth):
    n = d ** depth
    maps = enumerate_cone_maps(depth, d)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)))
    # orbit partition from explicit map enumeration
    brute = {}
    for E in subsets:
        key = min({tuple(sorted(m[x] for x in E)) for m in maps} | {tuple(E)})
        brute.setdefault(key, []).append(E)
    canon_classes = {}
    for E in subsets:
        canon_classes.setdefault(canon_full(E, depth, d), []).append(E)
    assert sorted(map(sorted, brute.values())) == \
        sorted(map(sorted, canon_classes.values()))


@pytest.mark.parametrize("depth", [1, 2])
def test_coloured_mode_agrees_with_brute_force_cross_colours(depth):
    for scheme in all_schemes(2):
        n = 2 ** depth
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)))
        for c_e in range(3):
            for c_f in range(3):
                if scheme.orbit_index[c_e] != scheme.orbit_index[c_f]:
                    continue
                maps = enumerate_cone_maps(depth, 2, scheme, c_e, c_f)
                for E in subsets:
                    images = {tuple(sorted(m[x] for x in E)) for m in maps}
                    for F2 in subsets:
                        assert equivalent(E, F2, depth, 2, scheme, c_e, c_f) == \
                            (tuple(F2) in images), (scheme.F.generators, c_e, c_f, E, F2)


def test_wreath_group_order():
    # full automorphism group of the depth-n cone has order prod d!^(levels)
    assert len(enumerate_cone_maps(1, 2)) == 2
    assert len(enumerate_cone_maps(2, 2)) == 8
    assert len(enumerate_cone_maps(3, 2)) == 128
    assert len(enumerate_cone_maps(1, 3)) == 6
    assert len(enumerate_cone_maps(2, 3)) == 6 ** 4


def test_enumerate_cone_maps_cap():
    with pytest.raises(ClosureExceedsCap):
        enumerate_cone_maps(3, 3, cap=1000)


@pytest.mark.parametrize("E, F2", [((0, 1), (2,)), ((), (3,)), ((0, 1, 2), (0, 1, 2, 3))],
                         ids=["2-1", "0-1", "3-4"])
def test_brute_force_equivalent_on_sets_of_different_sizes(E, F2):
    # the answer comes before any map is listed: a cap of 1 map would refuse
    for scheme, colour in ((None, None), (ColourScheme.full(2), 0)):
        assert not brute_force_equivalent(E, F2, 2, 2, scheme, colour, colour, cap=1)
        assert not brute_force_equivalent(F2, E, 2, 2, scheme, colour, colour, cap=1)
        assert not equivalent(E, F2, 2, 2, scheme, colour, colour)


def test_census_examples():
    c = orbit_census(2, 2, 2)
    assert sorted(cnt for _, cnt in c.counts) == [2, 4]
    assert c.total == 6
    assert c.match_probability() == Fraction(5, 9)

    c0 = orbit_census(2, 2, 0)
    assert len(c0.counts) == 1 and c0.total == 1

    cfull = orbit_census(2, 2, 4)
    assert len(cfull.counts) == 1 and cfull.total == 1


def test_census_totals_binomial():
    for d, depth in ((2, 3), (3, 2)):
        for k in range(d ** depth + 1):
            c = orbit_census(d, depth, k)
            assert c.total == comb(d ** depth, k)


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        orbit_census(2, 5, 16, budget=100)


def test_census_match_probability_vs_pair_enumeration():
    # depth 2, d = 2: P(E ~ F) over independent uniform pairs, enumerated
    for k in (1, 2, 3):
        census = orbit_census(2, 2, k)
        subsets = list(itertools.combinations(range(4), k))
        hits = sum(1 for E in subsets for F2 in subsets
                   if canon_full(E, 2, 2) == canon_full(F2, 2, 2))
        assert census.match_probability() == Fraction(hits, len(subsets) ** 2)


def test_coloured_census_hand_example():
    # F = <(0 1)>, cone root colour 0, depth 2: ground slots for label 0 are
    # leaves {0, 2, 3}; classes of singletons are {0} and {2, 3}
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    forms = {E: canon_coloured((E,), 2, s, 0) for E in (0, 2, 3)}
    assert forms[2] == forms[3] != forms[0]


def test_brute_force_equivalent_matches_equivalent():
    rng = random.Random(4242)
    schemes = all_schemes(2)
    for _ in range(150):
        depth = rng.randint(1, 3)
        n = 2 ** depth
        k = rng.randint(0, n)
        E = tuple(sorted(rng.sample(range(n), k)))
        F2 = tuple(sorted(rng.sample(range(n), k)))
        assert brute_force_equivalent(E, F2, depth, 2) == equivalent(E, F2, depth, 2)
        scheme = rng.choice(schemes)
        assert brute_force_equivalent(E, F2, depth, 2, scheme, 0, 0) == \
            equivalent(E, F2, depth, 2, scheme, 0, 0)


def test_interner_concurrent_insert_or_get():
    # many threads canonicalizing the same subsets must agree on form ids
    import threading
    rng = random.Random(8)
    jobs = [(tuple(sorted(rng.sample(range(256), 12))), 8) for _ in range(200)]
    results = [None] * 8

    def work(slot):
        results[slot] = [canon_full(E, depth, 2) for E, depth in jobs]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_form_str_stable_and_readable():
    fid = canon_full((0, 1), 2, 2)
    assert form_str(fid) == "((1,1),(0,0))" or form_str(fid).count("1") == 2


# (d, depth, subset, canonical string): census exports and cross-process
# comparisons read these exact bytes
GOLDEN_FULL_FORMS = [
    (2, 0, (), "0"),
    (2, 0, (0,), "1"),
    (2, 1, (1,), "(0,1)"),
    (2, 2, (0, 3), "((0,1),(0,1))"),
    (2, 2, (0, 1), "((0,0),(1,1))"),
    (2, 3, (0, 1, 6), "(((0,0),(0,1)),((0,0),(1,1)))"),
    (2, 3, (2, 5), "(((0,0),(0,1)),((0,0),(0,1)))"),
    (3, 1, (0, 2), "(0,1,1)"),
    (3, 2, (0, 4, 8), "((0,0,1),(0,0,1),(0,0,1))"),
    (3, 2, (1, 2, 5), "((0,0,0),(0,0,1),(0,1,1))"),
    (3, 3, (0, 13, 26),
     "(((0,0,0),(0,0,0),(0,0,1)),((0,0,0),(0,0,0),(0,0,1)),((0,0,0),(0,0,0),(0,0,1)))"),
    (3, 3, (3, 4, 5, 9),
     "(((0,0,0),(0,0,0),(0,0,0)),((0,0,0),(0,0,0),(0,0,1)),((0,0,0),(0,0,0),(1,1,1)))"),
]

# coloured forms of these (depth, subset) pairs, binary cones ...
GOLDEN_COLOURED_SUBSETS = [(0, (0,)), (1, (0,)), (2, (0, 3)), (3, (0, 1, 6)), (3, (2, 7))]
# ... under F = <transposition>, per (transposition, parent colour)
GOLDEN_COLOURED_FORMS = {
    ((0, 1), 0): ("1", "(1,0)", "((1,0),(0,1))", "(((1,1),(0,0)),((0,0),(1,0)))",
                  "(((0,0),(0,1)),((0,0),(0,1)))"),
    ((0, 1), 1): ("1", "(1,0)", "((1,0),(0,1))", "(((1,1),(0,0)),((0,0),(1,0)))",
                  "(((0,0),(0,1)),((0,0),(0,1)))"),
    ((0, 1), 2): ("1", "(0,1)", "((0,1),(1,0))", "(((0,0),(0,1)),((1,1),(0,0)))",
                  "(((0,0),(0,1)),((0,0),(0,1)))"),
    ((0, 2), 0): ("1", "(0,1)", "((0,1),(1,0))", "(((0,0),(1,0)),((1,1),(0,0)))",
                  "(((0,0),(0,1)),((0,0),(0,1)))"),
    ((0, 2), 1): ("1", "(0,1)", "((0,1),(0,1))", "(((0,0),(1,1)),((0,0),(0,1)))",
                  "(((0,1),(0,0)),((0,0),(0,1)))"),
    ((0, 2), 2): ("1", "(0,1)", "((0,1),(1,0))", "(((0,0),(1,0)),((1,1),(0,0)))",
                  "(((0,0),(0,1)),((0,0),(0,1)))"),
}


def test_form_strings_golden():
    for d, depth, E, text in GOLDEN_FULL_FORMS:
        assert form_str(canon_full(E, depth, d)) == text, (d, depth, E)
    for (swap, colour), texts in GOLDEN_COLOURED_FORMS.items():
        scheme = ColourScheme.from_generators(2, [from_cycles(3, swap)])
        got = tuple(form_str(canon_coloured(E, depth, scheme, colour))
                    for depth, E in GOLDEN_COLOURED_SUBSETS)
        assert got == texts, (swap, colour)


def _digest(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def sum_of_squares(census) -> Fraction:
    """Oracle: the match probability as a sum of squared Fractions."""
    t = census.total
    return sum((Fraction(c, t) ** 2 for _, c in census.counts), Fraction(0))


def test_coloured_census_digest_over_every_scheme():
    censuses = [orbit_census(d, depth, k, scheme, c)
                for d, depth in ((2, 4), (3, 2)) for scheme in all_schemes(d)
                for c in range(d + 1) for k in range(d ** depth + 1)]
    for c in censuses:
        assert c.match_probability() == sum_of_squares(c), c
    counts = [c.counts for c in censuses]
    assert len(counts) == 1506
    assert _digest(counts) == "918af75e0686a60eef3d8f72aa9db7d46103692c732561de510dadf5db4927f9"


def test_cone_maps_digest_over_every_scheme():
    # pins the order of the maps, not only their set
    results = []
    for d, top in ((2, 3), (3, 1)):
        for depth in range(top + 1):
            results.append(enumerate_cone_maps(depth, d))
            results += [enumerate_cone_maps(depth, d, scheme, a, b) for scheme in all_schemes(d)
                        for a in range(d + 1) for b in range(d + 1)]
    results += [boundary_quotient_elements(q, n, scheme) for scheme in all_schemes(2)
                for q in (2, 3) for n in (0, 1, 2)]
    assert len(results) == 1218
    assert _digest(results) == "b561aa4d0a39b506153c9e6456c629616c6ccf0f63173c416ea1c1acd24ef460"


@pytest.mark.parametrize("build", [Matcher, lambda depth, d: orbit_census(d, depth, 0),
                                   lambda depth, d: canon_full((), depth, d),
                                   lambda depth, d: canon_full((0,), depth, d),
                                   lambda depth, d: enumerate_cone_maps(depth, d)],
                         ids=["Matcher", "orbit_census", "canon_full", "canon_full_one_leaf",
                              "enumerate_cone_maps"])
def test_cone_refuses_bad_shape(build):
    # orbit_census used to crash at d = -2 or depth -1, and to count one
    # empty class at d = 0 or 1
    for d in (-2, 0, 1):
        with pytest.raises(ValueError, match=f"need d >= 2, not {d}"):
            build(2, d)
    with pytest.raises(DepthMismatch):
        build(-1, 2)


def test_canon_coloured_refuses_bad_cone():
    # a negative depth used to give the leaf form "0", a colour outside D
    # was refused already
    s = ColourScheme.from_generators(2, [(1, 0, 2)])
    with pytest.raises(DepthMismatch):
        canon_coloured((), -1, s, 0)
    with pytest.raises(ColourSchemeMismatch):
        canon_coloured((), 1, s, 3)
    assert canon_coloured((), 0, s, None) == canon_coloured((), 0, s, s.reps[0])


def test_orbit_census_refuses_scheme_of_other_d():
    # a d=3 scheme on a binary cone used to be canonicalized as a ternary one
    with pytest.raises(ColourSchemeMismatch):
        orbit_census(2, 3, 2, ColourScheme.full(3))


# ---------------------------------------------------------------------------
# the level-profile prefilter in front of the canonical forms
# ---------------------------------------------------------------------------

def _profile(matcher, E):
    """The level profile ``Matcher.same`` compares, as a tuple of tuples."""
    return tuple(tuple(level) for level in matcher._profile(sorted(set(E))))


def _subsets_up_to(n_leaves, k_max):
    return [list(itertools.combinations(range(n_leaves), k)) for k in range(k_max + 1)]


def _check_prefilter(matcher, form, subsets, all_pairs, rng=None, sampled=0):
    """Profiles separate no two subsets with equal forms, and ``same`` equals
    the forms-only decision.  ``same`` is tried on every pair, or (``all_pairs``
    false) on each subset against one member of every orbit that shares its
    profile, plus ``sampled`` random pairs."""
    forms = {E: form(E) for E in subsets}
    profiles = {E: _profile(matcher, E) for E in subsets}
    profile_of_form = {}
    for E in subsets:
        assert profile_of_form.setdefault(forms[E], profiles[E]) == profiles[E], E
    if all_pairs:
        pairs = itertools.product(subsets, repeat=2)
    else:
        orbit_reps = {}
        for E in subsets:
            orbit_reps.setdefault(profiles[E], {}).setdefault(forms[E], E)
        pairs = itertools.chain(
            ((E, F2) for E in subsets for F2 in orbit_reps[profiles[E]].values()),
            ((rng.choice(subsets), rng.choice(subsets)) for _ in range(sampled)))
    for E, F2 in pairs:
        assert matcher.same(E, F2) == (forms[E] == forms[F2]), (E, F2)


@pytest.mark.parametrize("d,depth", [(2, 3), (3, 2), (2, 4)])
def test_matcher_full_mode_agrees_with_forms(d, depth):
    matcher = Matcher(depth, d)
    rng = random.Random(d * 10 + depth)
    for subsets in _subsets_up_to(d ** depth, 4):
        _check_prefilter(matcher, lambda E: canon_full(E, depth, d), subsets,
                         all_pairs=depth < 4, rng=rng, sampled=5000)


def _orbits_by_maps(maps, subsets):
    """Oracle that builds no forms: {subset: its orbit} for subsets of one
    size, the orbits being those of every map ``enumerate_cone_maps`` lists
    (the maps ``brute_force_equivalent`` tries)."""
    orbits = {}
    for E in subsets:
        if E not in orbits:
            orbit = frozenset(tuple(sorted(m[x] for x in E)) for m in maps)
            assert E in orbit
            orbits.update(dict.fromkeys(orbit, orbit))
    return orbits


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)],
                         ids=["1", "2", "3", "ternary-1", "ternary-2"])
def test_matcher_coloured_mode_agrees_with_forms(d, depth):
    # every F <= Sym(d + 1) and every parent colour; brute force at depth <= 2.
    # Ternary depth-2 cones are tried up to k = 2: each further size takes
    # about 5 s; test_same_under_random_coloured_image draws larger subsets
    n = d ** depth
    k_max = 2 if n == 9 else n if depth < 3 else 4
    rng = random.Random(10 * d + depth)
    for scheme in all_schemes(d):
        for colour in range(d + 1):
            matcher = Matcher(depth, d, scheme, colour)
            for subsets in _subsets_up_to(n, k_max):
                forms = {E: canon_coloured(E, depth, scheme, colour) for E in subsets}
                _check_prefilter(matcher, forms.get, subsets, all_pairs=n <= 4,
                                 rng=rng, sampled=500 if d == 2 else 50)
                if depth > 2:
                    continue
                if n <= 4:
                    for E in subsets:
                        for F2 in subsets:
                            assert matcher.same(E, F2) == brute_force_equivalent(
                                E, F2, depth, d, scheme, colour, colour), \
                                (scheme.F.generators, colour, E, F2)
                    continue
                # too many pairs to try each against every map: the forms
                # (which ``same`` was just checked against) must partition the
                # subsets exactly as the orbits of the maps do
                by_form = {}
                for E in subsets:
                    by_form.setdefault(forms[E], set()).add(E)
                orbits = _orbits_by_maps(
                    enumerate_cone_maps(depth, d, scheme, colour, colour), subsets)
                assert sorted(map(sorted, by_form.values())) == \
                    sorted(map(sorted, set(orbits.values()))), (scheme.F.generators, colour)


def test_matcher_profiles_by_hand():
    # depth-3 binary cone: {0,1,2} lies under one depth-1 vertex; {0,1,4}
    # puts two leaves under one depth-1 vertex and one under the other
    m = Matcher(3, 2)
    assert _profile(m, (0, 1, 2)) == ((3,), (1, 2))
    assert _profile(m, (0, 1, 4)) == ((1, 2), (1, 2))
    assert not m.same((0, 1, 2), (0, 1, 4))
    assert m.same((0, 1, 2), (7, 6, 5))
    # coloured, F = <(0 1)>, parent colour 0: the child edges are coloured
    # 1 (label 0) and 2 (label 1), so a singleton's depth-1 label is its side
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    mc = Matcher(1, 2, s, 0)
    assert _profile(mc, (0,)) == (((0, 1),),)
    assert _profile(mc, (1,)) == (((1, 1),),)
    assert not mc.same((0,), (1,))
    assert Matcher(1, 2).same((0,), (1,))


def test_matcher_refuses_bad_input():
    m = Matcher(2, 2)
    for bad in ((4,), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            m.same(bad, (0,))
        with pytest.raises(ValueError, match="out of range"):
            m.same((0,), bad)
    with pytest.raises(ColourSchemeMismatch):
        Matcher(2, 2, ColourScheme.full(3))
    with pytest.raises(ColourSchemeMismatch):
        Matcher(2, 2, ColourScheme.full(2), 3)
    with pytest.raises(ValueError, match="needs a colour scheme"):
        Matcher(2, 2, None, 7)
    assert Matcher(2, 2, ColourScheme.full(2)).parent_colour == 0


def test_matcher_pickles():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    for m in (Matcher(3, 2), Matcher(3, 2, s, 2)):
        again = pickle.loads(pickle.dumps(m))
        assert again == m and _profile(again, (0, 5)) == _profile(m, (0, 5))
        assert again.same((0, 5), (1, 4)) == m.same((0, 5), (1, 4))


_SCHEMES_D2 = all_schemes(2)


@st.composite
def _cone_subsets(draw, d_choices=(2, 3)):
    d = draw(st.sampled_from(d_choices))
    depth = draw(st.integers(1, 6 if d == 2 else 4))
    E = draw(st.lists(st.integers(0, d ** depth - 1), max_size=12, unique=True))
    return d, depth, tuple(sorted(E))


@settings(max_examples=300, deadline=None)
@given(_cone_subsets(), st.integers(0, 2 ** 32))
def test_profile_invariant_under_random_full_image(case, seed):
    d, depth, E = case
    m = Matcher(depth, d)
    image = random_full_image(random.Random(seed), E, depth, d)
    assert _profile(m, image) == _profile(m, E)


@settings(max_examples=300, deadline=None)
@given(_cone_subsets(d_choices=(2,)), st.integers(0, len(_SCHEMES_D2) - 1),
       st.integers(0, 2), st.integers(0, 2 ** 32))
def test_profile_invariant_under_random_coloured_image(case, which, colour, seed):
    _, depth, E = case
    scheme = _SCHEMES_D2[which]
    m = Matcher(depth, 2, scheme, colour)
    image = random_coloured_image(random.Random(seed), E, depth, scheme, colour)
    assert _profile(m, image) == _profile(m, E)


_SCHEMES = {2: _SCHEMES_D2, 3: all_schemes(3)}


@settings(max_examples=150, deadline=None)
@given(_cone_subsets(), st.integers(0, 2 ** 32))
def test_same_under_random_full_image(case, seed):
    d, depth, E = case
    image = random_full_image(random.Random(seed), E, depth, d)
    assert Matcher(depth, d).same(E, image)


@settings(max_examples=150, deadline=None)
@given(_cone_subsets(), st.data(), st.integers(0, 2 ** 32))
def test_same_under_random_coloured_image(case, data, seed):
    d, depth, E = case
    scheme = data.draw(st.sampled_from(_SCHEMES[d]))
    colour = data.draw(st.integers(0, d))
    image = random_coloured_image(random.Random(seed), E, depth, scheme, colour)
    assert Matcher(depth, d, scheme, colour).same(E, image)


# ---------------------------------------------------------------------------
# the class-table census against canonicalizing every subset
# ---------------------------------------------------------------------------

def census_by_subsets(d, depth, k, scheme=None, parent_colour=None, ground=None):
    """Oracle: the census counts by canonicalizing every k-subset of
    ``ground`` (default: all leaves), sorted by form string."""
    if scheme is not None and parent_colour is None:
        parent_colour = scheme.reps[0]
    counts = {}
    for E in itertools.combinations(range(d ** depth) if ground is None else ground, k):
        if scheme is None:
            fid = canon_full(E, depth, d)
        else:
            fid = canon_coloured(E, depth, scheme, parent_colour)
        counts[fid] = counts.get(fid, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: form_str(kv[0])))


# largest C(d^depth, k) the full-mode oracle visits; every k when d = 2
ORACLE_SUBSETS = 13_000


@pytest.mark.parametrize("d,depth", [(d, depth) for d in (2, 3) for depth in range(5)])
def test_census_equals_subset_loop_full_mode(d, depth):
    n_leaves = d ** depth
    ks = [k for k in range(n_leaves + 1) if comb(n_leaves, k) <= ORACLE_SUBSETS]
    assert ks[:3] == list(range(min(3, n_leaves + 1)))
    for k in ks:
        c = orbit_census(d, depth, k)
        assert (c.d, c.depth, c.k, c.mode) == (d, depth, k, "full")
        assert c.counts == census_by_subsets(d, depth, k), k
        assert c.match_probability() == sum_of_squares(c), k


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_census_equals_subset_loop_coloured_mode(depth):
    for scheme in all_schemes(2):
        for colour in range(3):
            for k in range(2 ** depth + 1):
                c = orbit_census(2, depth, k, scheme, colour)
                assert c.mode == "coloured"
                assert c.counts == census_by_subsets(2, depth, k, scheme, colour), \
                    (scheme.F.generators, colour, k)
                assert c.match_probability() == sum_of_squares(c)


def test_census_equals_subset_loop_coloured_ternary():
    subs, _ = enumerate_subgroups(4)
    for G in subs:
        scheme = ColourScheme(3, G)
        for k in range(10):
            assert orbit_census(3, 2, k, scheme).counts == \
                census_by_subsets(3, 2, k, scheme), (G.generators, k)


def orbit_sizes_by_maps(depth, d, k, scheme=None, colour=None):
    """Oracle that builds no forms: the sizes of the orbits of the k-subsets
    under every map ``enumerate_cone_maps`` lists, sorted."""
    maps = enumerate_cone_maps(depth, d, scheme, colour, colour)
    seen = set()
    sizes = []
    for E in itertools.combinations(range(d ** depth), k):
        if E in seen:
            continue
        orbit = {tuple(sorted(m[x] for x in E)) for m in maps}
        assert E in orbit
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


@pytest.mark.parametrize("d,depth", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_census_equals_orbits_of_maps_full_mode(d, depth):
    for k in range(d ** depth + 1):
        counts = sorted(n for _, n in orbit_census(d, depth, k).counts)
        assert counts == orbit_sizes_by_maps(depth, d, k), k


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_census_equals_orbits_of_maps_coloured_mode(depth):
    for scheme in all_schemes(2):
        for colour in range(3):
            for k in range(2 ** depth + 1):
                counts = sorted(n for _, n in orbit_census(2, depth, k, scheme, colour).counts)
                assert counts == orbit_sizes_by_maps(depth, 2, k, scheme, colour), \
                    (scheme.F.generators, colour, k)


def test_census_leaf_label_equals_subset_loop():
    for scheme in all_schemes(2):
        for colour in range(3):
            for depth in range(4):
                labels = cone_leaf_labels(scheme, colour, depth)
                for label in range(scheme.n_orbits):
                    ground = [i for i, lab in enumerate(labels) if lab == label]
                    for k in range(len(ground) + 2):
                        c = orbit_census(2, depth, k, scheme, colour, leaf_label=label)
                        assert c.total == comb(len(ground), k)
                        assert c.counts == census_by_subsets(
                            2, depth, k, scheme, colour, ground=ground)
                        assert c.match_probability() == sum_of_squares(c)


def test_census_edge_cases():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    for scheme in (None, s):
        # depth 0: the cone is one leaf
        assert [form_str(f) for f, _ in orbit_census(2, 0, 0, scheme).counts] == ["0"]
        assert [form_str(f) for f, _ in orbit_census(2, 0, 1, scheme).counts] == ["1"]
        # k = 0: the empty set alone; k > leaves: nothing to count
        (fid, n), = orbit_census(2, 3, 0, scheme).counts
        assert (form_str(fid), n) == ("(((0,0),(0,0)),((0,0),(0,0)))", 1)
        assert orbit_census(2, 3, 9, scheme).counts == ()
        assert orbit_census(2, 0, 2, scheme).counts == ()
        assert orbit_census(2, 3, 9, scheme).match_probability() == 0
        assert Census(2, 3, 9, "full", ()).match_probability() == 0
    with pytest.raises(ValueError):
        orbit_census(2, 2, 1, leaf_label=0)  # labels need a scheme


@pytest.mark.parametrize("leaf_label", [7, -1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_census_refuses_leaf_label_without_orbit(leaf_label, k):
    # s has two orbits; these used to give an empty census for k >= 1 and one
    # class for k = 0
    s = ColourScheme.from_generators(2, [(1, 0, 2)])
    with pytest.raises(ValueError, match=f"leaf_label {leaf_label} out of range"):
        orbit_census(2, 3, k, s, 0, leaf_label=leaf_label)


def test_census_refusals():
    # the budget caps C(d^depth, k), inclusive
    assert orbit_census(2, 3, 4, budget=70).total == 70
    with pytest.raises(BudgetExceeded):
        orbit_census(2, 3, 4, budget=69)
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    with pytest.raises(BudgetExceeded):
        orbit_census(2, 3, 4, s, budget=69)
    # with a leaf label, the budget caps C(label leaves, k): 5 label-0 leaves
    assert orbit_census(2, 3, 2, s, 0, budget=10, leaf_label=0).total == 10
    with pytest.raises(BudgetExceeded):
        orbit_census(2, 3, 2, s, 0, budget=9, leaf_label=0)
    for colour in (-1, 3):
        for k in (0, 2):
            with pytest.raises(ColourSchemeMismatch):
                orbit_census(2, 3, k, s, colour)
        with pytest.raises(ColourSchemeMismatch):
            orbit_census(2, 3, 2, s, colour, leaf_label=0)
        # checked before the k > leaves shortcut too
        with pytest.raises(ColourSchemeMismatch):
            orbit_census(2, 3, 9, s, colour)
    with pytest.raises(ColourSchemeMismatch):
        orbit_census(3, 2, 2, s)
    # a parent colour means nothing without a scheme
    for k in (1, 9):
        with pytest.raises(ValueError, match="needs a colour scheme"):
            orbit_census(2, 3, k, parent_colour=0)


@pytest.mark.parametrize("refused, error, message", [
    (lambda: Matcher(2, 2.0), ValueError, "bad d 2.0: not an int"),
    (lambda: Matcher(2, 2, ColourScheme.full(2), 1.0), ColourSchemeMismatch,
     "bad colour 1.0: not an int"),
    (lambda: canon_full((0,), 2.0, 2), DepthMismatch, "bad depth 2.0: not an int"),
    (lambda: orbit_census(2, 2.0, 2), DepthMismatch, "bad depth 2.0: not an int"),
    (lambda: orbit_census(2, 2, True), ValueError, "bad k True: not an int"),
    (lambda: orbit_census(2, 2, 1, ColourScheme.full(2), 0, leaf_label=0.0), ValueError,
     "bad leaf_label 0.0: not an int"),
], ids=["matcher-d", "matcher-colour", "canon-full-depth", "census-depth", "census-k",
        "census-leaf-label"])
def test_cone_arguments_that_are_not_ints_are_refused(refused, error, message):
    # Matcher(2, 2.0) matched (0,) with (1,), orbit_census(2, 2, True) and a
    # float leaf label gave a census, and the rest died with a TypeError
    with pytest.raises(error, match=message):
        refused()
