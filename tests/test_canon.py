import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from treeirs.canon import (
    BudgetExceeded,
    Census,
    ColourSchemeMismatch,
    brute_force_equivalent,
    canon_coloured,
    canon_full,
    enumerate_cone_maps,
    equivalent,
    form_str,
    orbit_census,
    random_coloured_image,
    random_full_image,
)
from treeirs.perm import ClosureExceedsCap, enumerate_subgroups, from_cycles
from treeirs.tree import ColourScheme


def all_schemes_d2():
    subs, _ = enumerate_subgroups(3)
    return [ColourScheme(2, G) for G in subs]


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
    schemes = all_schemes_d2()
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
    for scheme in all_schemes_d2():
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
    schemes = all_schemes_d2()
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


def test_orbit_census_refuses_scheme_of_other_d():
    # a d=3 scheme on a binary cone used to be canonicalized as a ternary one
    with pytest.raises(ColourSchemeMismatch):
        orbit_census(2, 3, 2, ColourScheme.full(3))
