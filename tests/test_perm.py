import hashlib
import itertools
import random
import time
from collections import deque
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import alternating_group
from treeirs import cli, perm
from treeirs.classify import _block_lift
from treeirs.irs import restriction_map
from treeirs.perm import (
    DEFAULT_CAP,
    ClosureExceedsCap,
    DegreeTooLarge,
    GeneratedGroup,
    NotTransitive,
    _double_coset_reps,
    _extend,
    close,
    compose,
    composer,
    conjugacy_orbit,
    conjugate,
    conjugator,
    contains_alt_on,
    enumerate_subgroups,
    from_cycles,
    group_from_json,
    group_to_json,
    identity,
    inverse,
    is_even,
    minimal_blocks,
    orbits,
    overgroups_of_cycle,
    product_of_symmetric,
    restrict,
    rigid_stabilizer,
    subgroups_of,
    symmetric_group,
    wreath_join,
    wreath_split,
)

perms5 = st.permutations(range(5)).map(tuple)


@given(perms5)
def test_identity_neutral(p):
    e = identity(5)
    assert compose(e, p) == p
    assert compose(p, e) == p


@given(perms5)
def test_inverse_two_sided(p):
    assert compose(p, inverse(p)) == identity(5)
    assert compose(inverse(p), p) == identity(5)


@given(perms5, perms5, perms5)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_compose_is_apply_first_then_second():
    # (0 1) then (1 2) sends 0 -> 2, 1 -> 0, 2 -> 1
    p = from_cycles(3, (0, 1))
    q = from_cycles(3, (1, 2))
    assert compose(p, q) == (2, 0, 1)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


@given(perms5, perms5)
def test_conjugate_matches_definition(p, g):
    assert conjugate(p, g) == compose(compose(inverse(g), p), g)


@st.composite
def kernel_inputs(draw):
    """Two permutations of one degree 1-7 and a sorted point tuple of
    length 0 to the degree."""
    n = draw(st.integers(1, 7))
    p, g = (draw(st.permutations(range(n)).map(tuple)) for _ in range(2))
    U = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return p, g, tuple(sorted(U))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_product_kernel_vs_comprehensions(inputs):
    # the itemgetter kernel against the loops it replaced, including the
    # degree-1 and empty tuples that itemgetter alone gets wrong
    p, g, U = inputs
    g_inv = tuple(g.index(y) for y in range(len(g)))
    assert compose(p, g) == composer(p)(g) == tuple([g[x] for x in p])
    assert conjugate(p, g) == conjugator(g)(p) == tuple([g[p[x]] for x in g_inv])
    assert restriction_map(p, U) == composer(U)(p) == tuple([p[x] for x in U])


def test_product_kernel_short_tuples():
    # itemgetter() raises and itemgetter(x) returns a bare entry
    assert composer(())((2, 0, 1)) == () == restriction_map((2, 0, 1), ())
    assert composer((1,))((2, 0, 1)) == (0,) == restriction_map((2, 0, 1), (1,))
    assert compose((), ()) == ()
    assert compose((0,), (0,)) == (0,) == conjugator((0,))((0,)) == conjugate((0,), (0,))
    with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
        compose((0,), (1, 0))


def test_parity():
    assert is_even(identity(4))
    assert not is_even(from_cycles(4, (0, 1)))
    assert is_even(from_cycles(4, (0, 1), (2, 3)))
    assert is_even(from_cycles(5, (0, 1, 2)))


def test_close_empty_and_cycles():
    assert close([], degree=3) == (identity(3),)
    assert len(close([from_cycles(3, (0, 1)), from_cycles(3, (1, 2))])) == 6
    assert len(close([from_cycles(4, (0, 1, 2, 3))])) == 4


def test_close_deterministic_bfs_order():
    gens = [from_cycles(3, (0, 1)), from_cycles(3, (1, 2))]
    els = close(gens)
    # identity first, then the two generators, then their products
    assert els[0] == identity(3)
    assert els[1] == gens[0]
    assert els[2] == gens[1]
    assert els == close(gens)


def test_close_cap():
    with pytest.raises(ClosureExceedsCap):
        close([from_cycles(5, (0, 1)), from_cycles(5, tuple(range(5)))], cap=10)


def test_orbits():
    G = GeneratedGroup(3, [from_cycles(3, (0, 1))])
    assert orbits(G) == ((0, 1), (2,))
    assert orbits(symmetric_group(3)) == ((0, 1, 2),)
    G2 = GeneratedGroup(4, [from_cycles(4, (0, 1), (2, 3))])
    assert orbits(G2) == ((0, 1), (2, 3))


def test_orbit_sizes_sum_and_invariance():
    rng = random.Random(7)
    for _ in range(25):
        gens = [tuple(rng.sample(range(6), 6)) for _ in range(2)]
        G = GeneratedGroup(6, gens)
        orbs = orbits(G)
        assert sum(len(o) for o in orbs) == 6
        for o in orbs:
            for g in gens:
                assert {g[x] for x in o} == set(o)


def test_minimal_blocks_c4():
    G = GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))])
    bs = minimal_blocks(G)
    assert bs is not None and bs.block_size == 2
    assert bs.blocks == ((0, 2), (1, 3))


def test_minimal_blocks_s4_primitive():
    assert minimal_blocks(symmetric_group(4)) is None


def test_minimal_blocks_prime_degree_always_primitive():
    subs, _ = enumerate_subgroups(5)
    for G in subs:
        if len(orbits(G)) == 1:
            assert minimal_blocks(G) is None


def test_minimal_blocks_generator_setwise():
    G = GeneratedGroup(6, [from_cycles(6, (0, 1, 2, 3, 4, 5))])
    bs = minimal_blocks(G)
    assert bs is not None and bs.block_size == 2
    blocks = {frozenset(b) for b in bs.blocks}
    for g in G.generators:
        for b in bs.blocks:
            assert frozenset(g[x] for x in b) in blocks


def test_minimal_blocks_not_transitive():
    G = GeneratedGroup(4, [from_cycles(4, (0, 1))])
    with pytest.raises(NotTransitive):
        minimal_blocks(G)


def test_rigid_stabilizer_examples():
    s4 = symmetric_group(4)
    R = rigid_stabilizer(s4, (0, 1))
    assert R.order == 2 and from_cycles(4, (0, 1)) in R

    G = GeneratedGroup(5, [from_cycles(5, (0, 1, 2), (3, 4))])
    assert G.order == 6
    R2 = rigid_stabilizer(G, (0, 1, 2))
    assert R2.element_set == {identity(5), from_cycles(5, (0, 1, 2)), from_cycles(5, (0, 2, 1))}

    assert rigid_stabilizer(s4, ()).order == 1


def test_rigid_stabilizer_fixes_complement():
    rng = random.Random(3)
    subs, _ = enumerate_subgroups(5)
    for G in rng.sample(list(subs), 30):
        U = tuple(sorted(rng.sample(range(5), rng.randint(0, 5))))
        R = rigid_stabilizer(G, U)
        for h in R.elements:
            for x in range(5):
                if x not in U:
                    assert h[x] == x


def test_contains_alt_on_examples():
    a4 = alternating_group(4)
    assert contains_alt_on(a4, (0, 1, 2, 3))

    G = GeneratedGroup(5, [from_cycles(5, (0, 1, 2), (3, 4))])
    assert contains_alt_on(G, (0, 1, 2))

    H = GeneratedGroup(4, [from_cycles(4, (0, 1))])
    assert not contains_alt_on(H, (0, 1, 2))


def test_contains_alt_on_vs_bruteforce():
    # brute force: every even permutation supported on U lies in G
    subs, _ = enumerate_subgroups(4)
    for G in subs:
        for r in range(5):
            for U in itertools.combinations(range(4), r):
                expect = True
                for imgs in itertools.permutations(U):
                    p = list(range(4))
                    for x, y in zip(U, imgs):
                        p[x] = y
                    p = tuple(p)
                    if is_even(p) and p not in G:
                        expect = False
                        break
                assert contains_alt_on(G, U) == expect, (G.generators, U)


def test_contains_alt_on_full_domain():
    def full(G):
        return contains_alt_on(G, range(G.degree))

    assert full(symmetric_group(4))
    assert full(alternating_group(5))
    assert not full(GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))]))
    assert full(GeneratedGroup(2, []))  # vacuous at degree <= 2


def naive_subgroups(degree):
    """Oracle: grow subgroups by closing every set {H, g}; exponential, tiny degrees only."""
    e = identity(degree)
    all_elements = list(itertools.permutations(range(degree)))
    found = {frozenset([e])}
    frontier = [frozenset([e])]
    while frontier:
        fresh = []
        for key in frontier:
            for g in all_elements:
                if g in key:
                    continue
                joined = frozenset(close(tuple(key) + (g,), degree=degree))
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return found


@pytest.mark.parametrize("degree,count,nclasses", [(1, 1, 1), (2, 2, 2), (3, 6, 4), (4, 30, 11)])
def test_enumerate_subgroups_counts(degree, count, nclasses):
    subs, classes = enumerate_subgroups(degree)
    assert len(subs) == count
    assert len(classes) == nclasses
    assert sorted(i for c in classes for i in c) == list(range(count))


def test_enumerate_subgroups_matches_naive_oracle():
    for degree in (2, 3, 4):
        subs, _ = enumerate_subgroups(degree)
        assert {G.element_set for G in subs} == naive_subgroups(degree)


def test_enumerate_subgroups_closed_under_conjugation():
    subs, _ = enumerate_subgroups(4)
    keys = {G.element_set for G in subs}
    for G in subs:
        for g in itertools.permutations(range(4)):
            assert frozenset(conjugate(h, g) for h in G.elements) in keys


def test_enumerate_subgroups_regression_counts():
    # frozen: 156 subgroups of Sym(5) in 19 classes, 1455 of Sym(6) in 56
    subs5, cls5 = enumerate_subgroups(5)
    assert (len(subs5), len(cls5)) == (156, 19)


def test_enumerate_subgroups_digest():
    # SHA-256 of every subgroup's element and generator tuples, and the
    # classes, at degrees 1-6, as the breadth-first double-coset sweep gave them
    data = []
    for degree in range(1, 7):
        subs, classes = enumerate_subgroups(degree)
        data.append((tuple((G.elements, G.generators) for G in subs), classes))
    assert (hashlib.sha256(repr(data).encode()).hexdigest()
            == "09ce5be2a66d9ea8f825106c31c9d7456770c687d89e3a30e82f258de3e6eebf")


def test_enumerate_subgroups_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        enumerate_subgroups(7)


def test_symmetric_class_records_are_the_enumerated_classes():
    for degree in range(1, 7):
        subs, classes = enumerate_subgroups(degree)
        expect = {frozenset((subs[i].elements, subs[i].generators) for i in cls)
                  for cls in classes}
        got = [frozenset((G.elements, G.generators) for G, _ in rec.members)
               for rec in perm.symmetric_class_records(degree)]
        assert len(got) == len(classes) and set(got) == expect
    with pytest.raises(DegreeTooLarge):
        perm.symmetric_class_records(8)
    with pytest.raises(ValueError):
        perm.symmetric_class_records(0)


def test_memoized_invariants_equal_a_cold_group():
    # for every subgroup of Sym(1..6), orbits, minimal_blocks and
    # contains_alt_on on every U, read back from the group's memo, equal
    # those of a group built from the same generators with a cold memo; a
    # minimal_blocks call that raises NotTransitive keeps nothing
    for degree in range(1, 7):
        subsets = [U for r in range(degree + 1) for U in itertools.combinations(range(degree), r)]
        for G in enumerate_subgroups(degree)[0]:
            closed = GeneratedGroup(degree, G.generators).elements

            def cold():
                return GeneratedGroup(degree, G.generators, _elements=closed)

            orbits(G)
            assert "perm.orbits" in G._memo and orbits(G) == orbits(cold())
            if len(orbits(G)) == 1:
                minimal_blocks(G)
                blocks, cold_blocks = minimal_blocks(G), minimal_blocks(cold())
                assert (blocks and blocks.blocks) == (cold_blocks and cold_blocks.blocks)
            else:
                with pytest.raises(NotTransitive):
                    minimal_blocks(G)
                assert "perm.minimal_blocks" not in G._memo
            for U in subsets:
                contains_alt_on(G, U[::-1])
                assert contains_alt_on(G, U) == contains_alt_on(cold(), U)


def test_enumerated_generators_are_short():
    # each subgroup carries the join walk's generators, conjugated from its
    # class representative: they generate it, and each join at least
    # doubled the order, so there are at most floor(log2 |G|) of them
    for degree in range(1, 7):
        for G in enumerate_subgroups(degree)[0]:
            assert frozenset(close(G.generators, degree=degree)) == G.element_set
            assert len(G.generators) <= G.order.bit_length() - 1


def test_enumerated_generators_vs_sympy():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    for degree in range(1, 7):
        for G in enumerate_subgroups(degree)[0]:
            gens = G.generators or (identity(degree),)
            assert PermutationGroup([Permutation(list(g)) for g in gens]).order() == G.order


def test_subgroups_of_product():
    amb = product_of_symmetric([2, 3])
    assert amb.order == 12
    subs = subgroups_of(amb)
    # C2 x Sym(3) is isomorphic to D6, which has 16 subgroups
    assert len(subs) == 16
    assert all(s.element_set <= amb.element_set for s in subs)


def test_overgroups_of_cycle_degree5():
    # transitive subgroups of Sym(5) containing the standard 5-cycle:
    # C5, D5, F20, A5, S5
    over = overgroups_of_cycle(5)
    assert sorted(g.order for g in over) == [5, 10, 20, 60, 120]


@pytest.mark.parametrize("amb", [symmetric_group(4), product_of_symmetric([2, 3]),
                                 product_of_symmetric([2, 2, 2])],
                         ids=["S4", "S2xS3", "S2xS2xS2"])
def test_subgroups_of_equals_closures_of_small_subsets(amb):
    # every subgroup of these ambients is generated by at most 3 elements
    closures = {frozenset(close(gens, degree=amb.degree))
                for r in range(4) for gens in itertools.combinations(amb.elements, r)}
    subs = subgroups_of(amb)
    assert len(subs) == len(closures)
    assert {G.element_set for G in subs} == closures


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_overgroups_of_cycle_equals_lattice_filter(degree):
    cycle = from_cycles(degree, tuple(range(degree)))
    subs, _ = enumerate_subgroups(degree)
    over = overgroups_of_cycle(degree)
    assert len(over) == len({G.element_set for G in over})
    assert ({G.element_set for G in over}
            == {G.element_set for G in subs if cycle in G.element_set})


def proper_divisors(n):
    return [b for b in range(2, n) if n % b == 0]


def block_perms(n, b):
    """Permutations of degree n that permute the blocks {b i, ..., b i + b - 1}."""
    within = st.lists(st.permutations(range(b)), min_size=n // b, max_size=n // b)
    return st.tuples(st.permutations(range(n // b)), within).map(
        lambda sw: tuple(sw[0][x // b] * b + sw[1][x // b][x % b] for x in range(n)))


def generator_perms(n):
    """Permutations of degree n that generate small and large groups alike:
    ones moving at most 4 points, affine maps x -> a x + b (mod n), whose
    groups are transitive and often imprimitive, block permutations, and
    arbitrary ones."""
    def moving(pts, images):
        p = list(range(n))
        for x, y in zip(pts, images):
            p[x] = y
        return tuple(p)

    few_points = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True).flatmap(
        lambda pts: st.permutations(pts).map(lambda images: moving(pts, images)))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    affine = st.tuples(st.sampled_from(units), st.integers(0, n - 1)).map(
        lambda ab: tuple((ab[0] * x + ab[1]) % n for x in range(n)))
    divisors = proper_divisors(n)
    blocks = (st.sampled_from(divisors).flatmap(lambda b: block_perms(n, b))
              if divisors else st.nothing())
    return st.one_of(few_points, affine, blocks, st.permutations(range(n)).map(tuple))


@st.composite
def subgroup_and_element(draw):
    n = draw(st.integers(5, 7))
    gens = tuple(draw(st.lists(generator_perms(n), max_size=2)))
    return n, gens, draw(generator_perms(n))


def check_extend(H, gens, degree, ambient, alt=None):
    """``_extend`` inside ``ambient`` (and with ``alt``) against ``close``:
    the same join, and ``close``'s cap threshold at the join's order (order
    passes, order - 1 raises)."""
    joined = frozenset(close(gens, cap=factorial(degree), degree=degree))
    assert _extend(H, gens, ambient, alt) == joined
    if gens[-1] not in H:  # the join walk extends only by elements outside H
        order = len(joined)
        assert frozenset(close(gens, cap=order, degree=degree)) == joined
        with pytest.raises(ClosureExceedsCap):
            close(gens, cap=order - 1, degree=degree)
    return joined


SYM_SETS = {n: frozenset(itertools.permutations(range(n))) for n in (5, 6, 7)}
ALT_SETS = {n: frozenset(p for p in SYM_SETS[n] if is_even(p)) for n in (5, 6, 7)}


@settings(max_examples=80, deadline=None)
@given(subgroup_and_element(), st.data())
def test_extend_equals_close(case, data):
    n, H_gens, g = case
    gens = H_gens + (g,)
    H = close(H_gens, cap=factorial(n), degree=n)
    # ambients: Sym(n) (small joins never reach the cut, so this is plain
    # Dimino), Sym(n) with Alt(n) given (the (n-1)! cut fires on joins Alt(n)
    # and Sym(n)), Alt(n) when it holds the join, the join itself (the cut
    # fires at the first coset past half of it) and a drawn overgroup
    joined = check_extend(H, gens, n, SYM_SETS[n])
    check_extend(H, gens, n, SYM_SETS[n], ALT_SETS[n])
    if joined <= ALT_SETS[n]:
        check_extend(H, gens, n, ALT_SETS[n])
    check_extend(H, gens, n, joined)
    extra = data.draw(generator_perms(n))
    check_extend(H, gens, n, frozenset(close(gens + (extra,), cap=factorial(n), degree=n)))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_extend_cut_at_index_two(n):
    # with no Alt(n) given, the cut is Lagrange's: the join Alt(n) has index
    # 2 in Sym(n), so built from <(0 1 2)> or from the point stabilizer
    # Alt(n - 1) the cosets reach exactly half of the ambient, where that cut
    # must not fire yet; from Alt(n) and (0 1) the first coset passes half,
    # and the cut returns Sym(n)
    three_cycle = from_cycles(n, (0, 1, 2))
    H = close([three_cycle], degree=n)
    alt = check_extend(H, (three_cycle,) + alternating_group(n).generators, n, SYM_SETS[n])
    assert alt == ALT_SETS[n]
    fixing_last = tuple(from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 3))
    g = from_cycles(n, (n - 3, n - 2, n - 1))
    assert check_extend(close(fixing_last, degree=n), fixing_last + (g,), n, SYM_SETS[n]) == alt
    sym = check_extend(tuple(alt), alternating_group(n).generators + (from_cycles(n, (0, 1)),),
                       n, SYM_SETS[n])
    assert sym == SYM_SETS[n]


def even_and_mixed_cases(n):
    """(H, gens) pairs of degree n whose join is Alt(n) or Sym(n), from a
    small H, a point stabilizer, and Alt(n) itself; gens all even, then
    with one odd generator."""
    three_cycles = tuple(from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 2))
    transposition = from_cycles(n, (0, 1))
    n_cycle = from_cycles(n, tuple(range(n)))
    alt_elements = tuple(ALT_SETS[n])
    return [
        (close(three_cycles[:1], degree=n), three_cycles),
        (close(three_cycles[:-1], degree=n), three_cycles),
        (close([transposition], degree=n), (transposition, n_cycle)),
        (close(three_cycles[:-1], degree=n), three_cycles[:-1] + (n_cycle, transposition)),
        (alt_elements, three_cycles + (transposition,)),
    ]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_extend_cut_at_index_n(n):
    # with Alt(n) given, a join past (n-1)! elements is Alt(n) or Sym(n) by
    # generator parity, returned as the very set passed in
    for H, gens in even_and_mixed_cases(n):
        whole = ALT_SETS[n] if all(map(is_even, gens)) else SYM_SETS[n]
        assert check_extend(H, gens, n, SYM_SETS[n], ALT_SETS[n]) == whole
        assert _extend(H, gens, SYM_SETS[n], ALT_SETS[n]) is whole
    assert any(all(map(is_even, gens)) for _, gens in even_and_mixed_cases(n))
    assert not all(all(map(is_even, gens)) for _, gens in even_and_mixed_cases(n))
    # a point stabilizer Sym(n - 1) has exactly (n-1)! elements: no cut
    transposition = from_cycles(n, (0, 1))
    gens = (transposition, from_cycles(n, tuple(range(n - 1))))
    stabilizer = check_extend(close(gens[:1], degree=n), gens, n, SYM_SETS[n], ALT_SETS[n])
    assert len(stabilizer) == factorial(n - 1)


@pytest.mark.parametrize("ambient", [
    alternating_group(5), product_of_symmetric([2, 3]), symmetric_group(4),
], ids=["A5", "S2xS3", "S4"])
def test_extend_with_ambient_exhaustive(ambient):
    # every subgroup H and every element g of small ambients, two of them
    # not symmetric groups
    eset = ambient.element_set
    for H in subgroups_of(ambient):
        for g in ambient.elements:
            check_extend(H.elements, H.generators + (g,), ambient.degree, eset)


@st.composite
def generator_sets(draw):
    """Generators of degree 7-10; half of the composite-degree draws keep
    one block system, so transitive imprimitive groups come up often."""
    n = draw(st.integers(7, 10))
    family = generator_perms(n)
    if proper_divisors(n) and draw(st.booleans()):
        family = block_perms(n, draw(st.sampled_from(proper_divisors(n))))
    return n, draw(st.lists(family, min_size=1, max_size=3))


def test_perm_layer_vs_sympy():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    @settings(max_examples=100, deadline=None)
    @given(generator_sets())
    def check(case):
        n, gens = case
        oracle = PermutationGroup([Permutation(list(g)) for g in gens])
        order = oracle.order()
        assume(order <= 20_000)
        G = GeneratedGroup(n, gens, cap=20_000)
        assert G.order == order
        assert orbits(G) == tuple(sorted(tuple(sorted(o)) for o in oracle.orbits()))
        transitive = len(orbits(G)) == 1
        assert transitive == oracle.is_transitive()
        if transitive:
            assert (minimal_blocks(G) is None) == oracle.is_primitive(randomized=False)
        # Alt(n) is the only subgroup of Sym(n) of index 2
        assert contains_alt_on(G, range(n)) == (order in (factorial(n) // 2, factorial(n)))

    check()


def test_minimal_blocks_vs_sympy():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    def classes(labels):
        out = {}
        for x, label in enumerate(labels):
            out.setdefault(label, []).append(x)
        return sorted(out.values())

    @settings(max_examples=100, deadline=None)
    @given(generator_sets())
    def check(case):
        n, gens = case
        oracle = PermutationGroup([Permutation(list(g)) for g in gens])
        assume(oracle.is_transitive())
        G = GeneratedGroup(n, gens)  # minimal_blocks needs only the generators
        # sympy's minimal block system with 0 and b in one block, for each b
        seeded = [classes(oracle.minimal_block([0, b])) for b in range(1, n)]
        proper = [c for c in seeded if len(c) > 1]
        bs = minimal_blocks(G)
        assert (bs is None) == (not proper)
        if bs is None:
            return
        size = min(len(c[0]) for c in proper)
        assert bs.block_size == size
        # the first seed b reaching the minimal size gives the same partition
        assert [list(b) for b in bs.blocks] == next(c for c in proper if len(c[0]) == size)
        for block in bs.blocks:
            labels = oracle.minimal_block(list(block))
            assert {x for x in range(n) if labels[x] == labels[block[0]]} == set(block)

    check()


def sym_elements(degree):
    return tuple(sorted(itertools.permutations(range(degree))))


def greedy_generators(G):
    """A short generating set of G: each element not yet generated is added."""
    gens = []
    span = {identity(G.degree)}
    for g in G.elements:
        if g not in span:
            gens.append(g)
            span = set(close(gens, degree=G.degree))
    return tuple(gens)


def double_coset_reps_oracle(H_els, ambient_elements):
    """Brute force: mark all |H|^2 products a g b for each new representative g."""
    visited = set()
    reps = []
    for g in ambient_elements:
        if g in visited:
            continue
        reps.append(g)
        for a in H_els:
            ag = compose(a, g)
            for b in H_els:
                visited.add(compose(ag, b))
    return reps


def double_coset_sweep_oracle(H_gens, ambient_elements):
    """The breadth-first sweep the walk used before cosets: each new
    representative's double coset is closed under left and right
    multiplication by H's generators, 2 |H_gens| products per element."""
    visited = set()
    reps = []
    for g in ambient_elements:
        if g in visited:
            continue
        reps.append(g)
        visited.add(g)
        queue = deque([g])
        while queue:
            x = queue.popleft()
            for h in H_gens:
                for y in (compose(h, x), compose(x, h)):
                    if y not in visited:
                        visited.add(y)
                        queue.append(y)
    return reps


def conjugacy_orbit_oracle(els, ambient_elements):
    """Brute force: conjugate by every element of the ambient group."""
    return {tuple(sorted(conjugate(h, s) for h in els)) for s in ambient_elements}


@pytest.mark.parametrize("degree", [4, 5])
def test_double_coset_reps_vs_bruteforce(degree):
    ambient = sym_elements(degree)
    subs, _ = enumerate_subgroups(degree)
    for H in subs:
        expect = double_coset_reps_oracle(H.elements, ambient)
        # enumerated subgroups carry the join walk's short generating sets,
        # greedy_generators another one (both empty for the trivial group),
        # and the whole element list generates too
        assert _double_coset_reps(H.generators, H.elements, ambient) == expect
        assert _double_coset_reps(greedy_generators(H), H.elements, ambient) == expect
        assert _double_coset_reps(H.elements, H.elements, ambient) == expect
        assert double_coset_sweep_oracle(H.generators, ambient) == expect


def test_double_coset_reps_vs_sweep_in_the_walk(monkeypatch):
    # every call the join walks make, at degrees <= 6 and in subgroups_of and
    # overgroups_of_cycle, finds the double cosets the element sweep finds
    calls = []

    def checked(H_gens, H_elements, ambient_elements):
        cosets = real(H_gens, H_elements, ambient_elements)
        _, firsts, first_coset = cosets
        reps = [g for i, g in enumerate(firsts) if first_coset[i] == i]
        assert reps == double_coset_sweep_oracle(H_gens, ambient_elements)
        calls.append(len(reps))
        return cosets

    real = perm._double_cosets
    monkeypatch.setattr(perm, "_double_cosets", checked)
    perm._kept_symmetric_records.cache_clear()  # walk degrees 1-6 afresh
    for degree in range(1, 7):
        perm.symmetric_class_records(degree)
    subgroups_of(symmetric_group(5))
    subgroups_of(product_of_symmetric([2, 3]))
    overgroups_of_cycle(5)
    # 93 class-level calls at degrees 1-6, one per class of Sym(5) and of
    # Sym(2) x Sym(3), and 5 over the 5-cycle
    assert len(calls) == 93 + 19 + 10 + 5


def unreduced_join_walk_oracle(ambient_elements, degree, conj_gens):
    """The class-level join walk before joins were taken up to the
    normalizer: every double coset H g H outside H is joined."""
    found, known, todo = [], set(), deque()

    def register(gens, eset):
        orbit = conjugacy_orbit(eset, conj_gens)
        known.update(frozenset(els) for els in orbit)
        found.append((gens, orbit))
        todo.append((gens, eset))

    ambient = frozenset(ambient_elements)
    alt = frozenset(p for p in ambient if is_even(p)) if degree >= 5 else None
    register((), frozenset([identity(degree)]))
    while todo:
        gens, eset = todo.popleft()
        H = tuple(eset)
        for g in _double_coset_reps(gens, H, ambient_elements):
            if g not in eset:
                joined = perm._extend(H, gens + (g,), ambient, alt)
                if joined not in known:
                    register(gens + (g,), joined)
    return found


def count_joins(monkeypatch):
    """Count ``_extend`` calls outside ``_normalizer_gens``: the joins."""
    joins = [0]
    inside = [False]

    def extend(*args):
        joins[0] += not inside[0]
        return real_extend(*args)

    def normalizer_gens(*args):
        inside[0] = True
        try:
            return real_normalizer_gens(*args)
        finally:
            inside[0] = False

    real_extend, real_normalizer_gens = perm._extend, perm._normalizer_gens
    monkeypatch.setattr(perm, "_extend", extend)
    monkeypatch.setattr(perm, "_normalizer_gens", normalizer_gens)
    return joins


def test_join_walk_up_to_normalizer_vs_unreduced_oracle(monkeypatch):
    # one join per N(H)-orbit of double cosets registers the same subgroups,
    # in the same order, with the same generators, conjugacy orbits and
    # conjugators, as joining every double coset, with far fewer joins
    joins = count_joins(monkeypatch)
    walk_joins, oracle_joins = [], []
    for degree in range(1, 7):
        ambient = sym_elements(degree)
        conj_gens = symmetric_group(degree).generators
        joins[0] = 0
        walk = perm._join_walk((), ambient, degree, conj_gens)
        walk_joins.append(joins[0])
        joins[0] = 0
        oracle = unreduced_join_walk_oracle(ambient, degree, conj_gens)
        oracle_joins.append(joins[0])
        assert ([(gens, list(orbit.items())) for gens, orbit in walk]
                == [(gens, list(orbit.items())) for gens, orbit in oracle])
    assert walk_joins == [0, 1, 4, 25, 85, 587]
    assert oracle_joins[4:] == [262, 2290]


def test_normalizer_by_cosets_vs_ambient_scan():
    # for every class representative H at degrees <= 6, the group that H and
    # the coset scan's generators generate is N(H), found here by testing
    # every ambient element
    for degree in range(1, 7):
        ambient = sym_elements(degree)
        ambient_set = frozenset(ambient)
        alt = frozenset(p for p in ambient if is_even(p)) if degree >= 5 else None
        conj_gens = symmetric_group(degree).generators
        for gens, orbit in perm._join_walk((), ambient, degree, conj_gens):
            eset = frozenset(next(iter(orbit)))
            cosets = perm._double_cosets(gens, tuple(eset), ambient)
            extra = perm._normalizer_gens(gens, eset, cosets, conj_gens, ambient_set, alt)
            scan = {g for g in ambient if all(conjugate(h, g) in eset for h in eset)}
            assert set(close(gens + extra, degree=degree)) == scan


@pytest.mark.parametrize("degree", [4, 5])
def test_normalizer_orbits_vs_bruteforce(degree):
    # for each class representative H, the double cosets kept are the first
    # of each orbit of N(H) acting by conjugation, found here by conjugating
    # every element of each double coset by every element of N(H)
    ambient = sym_elements(degree)
    subs, classes = enumerate_subgroups(degree)
    for H in (subs[cls[0]] for cls in classes):
        cosets = perm._double_cosets(H.generators, H.elements, ambient)
        _, firsts, first_coset = cosets
        reps = [i for i, f in enumerate(first_coset) if f == i]
        normalizer = [g for g in ambient
                      if all(conjugate(h, g) in H.element_set for h in H.generators)]
        double = {i: frozenset(compose(compose(a, firsts[i]), b)
                               for a in H.elements for b in H.elements) for i in reps}
        index = {els: j for j, els in double.items()}
        first_conjugate = {i: min(index[frozenset(conjugate(x, n) for x in double[i])]
                                  for n in normalizer) for i in reps}
        kept = perm._normalizer_orbits(normalizer, cosets, reps)
        assert kept == [i for i in reps if first_conjugate[i] == i]


def test_conjugacy_orbit_vs_bruteforce():
    ambient = sym_elements(5)
    gens = symmetric_group(5).generators
    subs, _ = enumerate_subgroups(5)
    for H in subs:
        assert conjugacy_orbit(H.elements, gens).keys() == conjugacy_orbit_oracle(H.elements, ambient)


def test_conjugacy_orbit_gives_conjugators():
    # the representative of each class maps to the identity, the keys are
    # the class members, and each conjugator carries the representative
    # onto its key
    gens = symmetric_group(5).generators
    subs, classes = enumerate_subgroups(5)
    for cls in classes:
        H = subs[cls[0]]
        orbit = conjugacy_orbit(H.elements, gens)
        assert orbit[H.elements] == identity(5)
        assert sorted(orbit) == [subs[i].elements for i in cls]
        for els, g in orbit.items():
            assert tuple(sorted(conjugate(h, g) for h in H.elements)) == els


W222 = GeneratedGroup(8, [from_cycles(8, (0, 4), (1, 5), (2, 6), (3, 7)),
                          from_cycles(8, (0, 2), (1, 3)), from_cycles(8, (0, 1))])


@pytest.mark.parametrize("amb, n_classes, n_subgroups", [
    (symmetric_group(4), 11, 30), (product_of_symmetric([2, 3]), 10, 16), (W222, 177, 576),
], ids=["S4", "S2xS3", "W222"])
def test_class_records_over_any_ambient(amb, n_classes, n_subgroups):
    # one record per class, walked in amb: its members are the brute-force
    # conjugacy orbit of the least member R, in sorted element order, each
    # generated by its generators, with a conjugator carrying R onto it
    records = perm.class_records(amb)
    members = [H for rec in records for H, _ in rec.members]
    assert (len(records), len(members)) == (n_classes, n_subgroups)
    assert len({H.elements for H in members}) == n_subgroups
    assert sorted(members, key=lambda H: (H.order, H.elements)) == list(subgroups_of(amb))
    for rec in records:
        assert rec.ambient is amb
        R = rec.members[0][0]
        assert rec.members[0][1] == identity(amb.degree)
        assert ([H.elements for H, _ in rec.members]
                == sorted(conjugacy_orbit_oracle(R.elements, amb.elements)))
        for H, g in rec.members:
            assert g in amb
            assert H.element_set == {conjugate(r, g) for r in R.elements}
            assert H.generators == tuple(conjugate(a, g) for a in R.generators)
            assert set(close(H.generators, degree=amb.degree)) == H.element_set


def test_enumerate_subgroups_caches_one_entry_per_degree():
    # counting_rows asks for the lattice the way every other caller does,
    # so both calls share one cache entry
    enumerate_subgroups.cache_clear()
    enumerate_subgroups(3)
    cli.counting_rows(3, DEFAULT_CAP)
    assert enumerate_subgroups.cache_info().currsize == 1


def test_large_ambients_refused_before_any_walk():
    # Sym(8) has 40,320 elements, past DEFAULT_CAP: both entry points raise
    # before a join is made
    start = time.perf_counter()
    with pytest.raises(ClosureExceedsCap):
        overgroups_of_cycle(8)
    with pytest.raises(ClosureExceedsCap):
        subgroups_of(symmetric_group(8, cap=50_000))
    with pytest.raises(ClosureExceedsCap):
        perm.class_records(symmetric_group(8, cap=50_000))
    assert time.perf_counter() - start < 1.0


def test_restrict():
    p = from_cycles(5, (1, 3), (0, 2))
    assert restrict(p, (1, 3)) == (1, 0)
    assert restrict(p, (0, 2)) == (1, 0)
    assert restrict(p, (4,)) == (0,)


@pytest.mark.parametrize("gens, points", [
    ([from_cycles(5, (0, 1)), from_cycles(5, (2, 3, 4)), from_cycles(5, (2, 3))], (2, 3, 4)),
    ([from_cycles(5, (0, 1), (2, 3)), from_cycles(5, (2, 4, 3))], (4, 2, 3)),
    ([from_cycles(6, (0, 1, 2), (3, 4, 5)), from_cycles(6, (0, 1), (3, 4))], (5, 3, 4)),
    ([], (1, 2)),
])
def test_restricted_is_the_restriction_closed_on_demand(gens, points):
    G = GeneratedGroup(len(gens[0]) if gens else 3, gens)
    R = G.restricted(points)
    assert G._elements is None and R._elements is None  # nothing closed yet
    pts = tuple(sorted(points))
    assert R.element_set == {restrict(p, pts) for p in G.elements}
    assert R.generators == tuple(restrict(g, pts) for g in gens)


# ---------------------------------------------------------------------------
# wreath coordinates against the block loops they replaced
# ---------------------------------------------------------------------------

def _oracle_split(p, block):
    """The theta-event loop: each block's image set must be a whole block."""
    top, base = [], []
    for x in range(len(p) // block):
        img = {p[x * block + i] for i in range(block)}
        y = min(img) // block
        if img != set(range(y * block, (y + 1) * block)):
            return None
        top.append(y)
        base.append(tuple(p[x * block + i] - y * block for i in range(block)))
    return tuple(top), tuple(base)


def _oracle_join(top, base, block):
    """The boundary-quotient loop: point x*block + i goes to top[x]*block + base[x][i]."""
    out = [0] * (len(top) * block)
    for x in range(len(top)):
        for i in range(block):
            out[x * block + i] = top[x] * block + base[x][i]
    return tuple(out)


def _oracle_block_lift(g, d):
    out = [0] * (len(g) * d)
    for x, y in enumerate(g):
        for j in range(d):
            out[x * d + j] = y * d + j
    return tuple(out)


def _assert_split_agrees(p, block):
    split = wreath_split(p, block)
    assert split == _oracle_split(p, block)
    if split is not None:
        assert wreath_join(*split, block) == p
    return split


sizes = st.integers(1, 4)


@settings(max_examples=300, deadline=None)
@given(sizes, sizes, st.data())
def test_wreath_split_of_any_permutation_matches_its_loop(block, n_blocks, data):
    # drawn permutations mostly break a block; those are the None cases
    p = tuple(data.draw(st.permutations(range(block * n_blocks))))
    _assert_split_agrees(p, block)


@settings(max_examples=300, deadline=None)
@given(sizes, sizes, st.data())
def test_wreath_coordinates_round_trip(block, n_blocks, data):
    top = tuple(data.draw(st.permutations(range(n_blocks))))
    base = tuple(tuple(data.draw(st.permutations(range(block)))) for _ in top)
    p = wreath_join(top, base, block)
    assert p == _oracle_join(top, base, block)
    assert _assert_split_agrees(p, block) == (top, base)
    # swapping two points of different blocks breaks both blocks when the
    # blocks have more than one point
    x, y = data.draw(st.tuples(st.integers(0, len(p) - 1), st.integers(0, len(p) - 1)))
    q = list(p)
    q[x], q[y] = q[y], q[x]
    split = _assert_split_agrees(tuple(q), block)
    assert (split is None) == (block > 1 and x // block != y // block)


def test_wreath_split_refuses_every_broken_block_exhaustively():
    # every permutation of degree <= 6 over every block size that divides it
    for degree in range(1, 7):
        for block in (b for b in range(1, degree + 1) if degree % b == 0):
            whole = sum(_assert_split_agrees(p, block) is not None
                        for p in itertools.permutations(range(degree)))
            k = degree // block
            assert whole == factorial(k) * factorial(block) ** k


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.data())
def test_block_lift_matches_its_loop(degree, d, data):
    g = tuple(data.draw(st.permutations(range(degree))))
    assert _block_lift(g, d) == _oracle_block_lift(g, d)
    assert wreath_split(_block_lift(g, d), d) == (g, (tuple(range(d)),) * degree)


def test_group_json_roundtrip():
    G = GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))])
    data = group_to_json(G)
    H = group_from_json(data)
    assert H.element_set == G.element_set


@pytest.mark.parametrize("refused, message", [
    (lambda: from_cycles(3, (0, 1), (1, 2)), "cycles overlap"),
    (lambda: close([]), "empty generating set needs an explicit degree"),
    (lambda: close([(1, 0), (1, 2, 0)]), "generators of mixed degree"),
    (lambda: close([(0, 0)]), "not a permutation"),
], ids=["overlapping-cycles", "no-generators", "mixed-degree", "not-a-permutation"])
def test_perm_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()
