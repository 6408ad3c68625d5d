from fractions import Fraction

import pytest

from treeirs.perm import enumerate_subgroups, from_cycles, symmetric_group
from treeirs.tree import (
    ColourScheme,
    ColourSchemeMismatch,
    DepthExceeded,
    DepthMismatch,
    RootHasNoLabel,
    TreeShape,
    check_colour,
    check_cone,
    check_label,
    child_colours,
    cone_leaf_labels,
    cone_level_colours,
    edge_colour_walk,
    level_counts,
    level_counts_direct,
    level_depth,
    local_maps,
    orbit_label,
)


def test_address_validation():
    shape = TreeShape(d=2, q=3)
    shape.validate((2, 1, 0))
    with pytest.raises(ValueError):
        shape.validate((3,))  # root digit must be < q
    with pytest.raises(ValueError):
        shape.validate((0, 2))  # inner digit must be < d


@pytest.mark.parametrize("refused", [
    lambda: TreeShape(2, 2).validate((0.5,)),
    lambda: TreeShape(2, 2).validate((0, 1.0)),
    lambda: TreeShape(2, 2).validate(("1",)),
    lambda: TreeShape(2, 2).validate((True,)),
    lambda: orbit_label(TreeShape(2, 2), ColourScheme.full(2), (1.0,)),
], ids=["half", "float-one", "string", "bool", "float-orbit-label"])
def test_address_validation_refuses_digits_that_are_not_ints(refused):
    # each passed the range test by value: 0.5 and (True,) came back as
    # addresses, and 1.0 gave a TypeError
    with pytest.raises(ValueError, match="not an int"):
        refused()


def test_addresses_deeper_than_24_digits():
    # addresses deeper than 24 digits used to be refused with DepthExceeded
    deep = (0,) * 30
    assert TreeShape(2, 2).validate(deep) == deep
    shape = TreeShape(d=2, q=3)
    assert shape.validate((2,) + (1,) * 29) == (2,) + (1,) * 29
    with pytest.raises(ValueError, match="bad digit 2 at position 29"):
        shape.validate((0,) * 29 + (2,))
    # with the trivial scheme a label is the parent-edge colour; below the
    # root each child edge takes the least colour other than its parent's,
    # so a walk down the first children alternates colours 0 and 1
    triv = ColourScheme.trivial(2)
    assert edge_colour_walk(shape, triv, deep) == (0, 1) * 15
    assert orbit_label(shape, triv, deep) == 1
    assert orbit_label(shape, triv, deep[:29]) == 0
    assert orbit_label(shape, triv, (0,) * 29 + (1,)) == 2
    assert orbit_label(shape, ColourScheme.full(2), deep) == 0


def test_scheme_orbits():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    assert s.orbits == ((0, 1), (2,))
    assert s.orbit_index == (0, 0, 1)
    assert s.reps == (0, 2)
    assert ColourScheme.full(2).n_orbits == 1
    assert ColourScheme.trivial(2).n_orbits == 3


def test_child_colours_policies():
    # orbits {0,2},{1}: orbit order puts colour 2 before colour 1
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 2))])
    assert child_colours(s, 0, 2, policy="value") == (1, 2)
    assert child_colours(s, 0, 2, policy="orbit") == (2, 1)
    assert child_colours(s, None, 3, policy="orbit") == (0, 2, 1)


def test_orbit_label_examples():
    shape = TreeShape(d=2, q=3)
    full = ColourScheme.full(2)
    for addr in [(0,), (1, 0), (2, 1, 1)]:
        assert orbit_label(shape, full, addr) == 0

    triv = ColourScheme.trivial(2)
    # trivial F: label = the parent-edge colour itself
    assert orbit_label(shape, triv, (2,)) == 2
    assert orbit_label(shape, triv, (0, 0)) == 1  # children of colour-0 vertex: 1, 2

    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    # a vertex whose parent edge has colour 2 gets the orbit of {2}
    walk = edge_colour_walk(shape, s, (2,))
    assert walk == (2,)
    assert orbit_label(shape, s, (2,)) == 1

    with pytest.raises(RootHasNoLabel):
        orbit_label(shape, full, ())


@pytest.mark.parametrize("walk", [edge_colour_walk, orbit_label])
@pytest.mark.parametrize("addr", [(1, 0, 1), (1,)])
def test_walks_refuse_a_scheme_for_another_d(walk, addr):
    # orbit_label used to read 2 off a ternary colouring of this binary tree
    for scheme in (ColourScheme.trivial(3), ColourScheme.full(3)):
        with pytest.raises(ColourSchemeMismatch, match="scheme is for d=3, not 2"):
            walk(TreeShape(2, 2), scheme, addr)


@pytest.mark.parametrize("d", [2, 3])
def test_local_maps_are_the_local_actions_in_element_order(d):
    """Each row with c -> c_img put back is the sigma in F it came from: the
    rows are the sigma in F with sigma(c) = c_img, in F's element order, and
    none comes from sigma inverse."""
    for F in enumerate_subgroups(d + 1)[0]:
        scheme = ColourScheme(d, F)
        for c in range(d + 1):
            kids = child_colours(scheme, c, d)
            for c_img in range(d + 1):
                rows = local_maps(scheme, c, c_img)
                sigmas = []
                for row in rows:
                    sigma = [None] * (d + 1)
                    sigma[c] = c_img
                    for x, y in zip(kids, row):
                        sigma[x] = y
                    sigmas.append(tuple(sigma))
                assert sigmas == [s for s in F.elements if s[c] == c_img]
                assert (rows != ()) == (scheme.orbit_index[c] == scheme.orbit_index[c_img])
                assert local_maps(scheme, c, c_img) is rows  # kept on F.memo


@pytest.mark.parametrize("c, c_img", [(3, 0), (0, 3), (-1, 0), (0, None), (None, 0), (0, 1.0)])
def test_local_maps_refuse_colours_outside_the_scheme(c, c_img):
    scheme = ColourScheme.full(2)
    for _ in range(2):  # a refusal keeps nothing, so it refuses again
        with pytest.raises(ColourSchemeMismatch):
            local_maps(scheme, c, c_img)


def test_legal_colouring_distinct_at_each_vertex():
    shape = TreeShape(d=3, q=4)
    s = ColourScheme.from_generators(3, [from_cycles(4, (0, 2)), from_cycles(4, (1, 3))])
    for policy in ("value", "orbit"):
        for parent in [None, 0, 1, 2, 3]:
            arity = 4 if parent is None else 3
            cc = child_colours(s, parent, arity, policy)
            seen = set(cc) | ({parent} if parent is not None else set())
            assert len(seen) == len(cc) + (1 if parent is not None else 0)


def test_level_counts_hand_examples():
    # F = <(0 1)> on colours {0,1,2}: orbits {0,1} and {2}
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    assert level_counts(s, 1, 0) == (1, 1)
    assert level_counts(s, 2, 0) == (3, 1)
    # direct traversal agrees (parent colour 0 has label 0)
    assert level_counts_direct(s, 1, 0) == (1, 1)
    assert level_counts_direct(s, 2, 0) == (3, 1)


def test_level_counts_full_scheme():
    full = ColourScheme.full(2)
    for n in range(1, 8):
        assert level_counts(full, n, 0) == (2 ** n,)


def test_level_counts_matrix_vs_direct_all_subgroups():
    # every F <= Sym(3) (d = 2) and every F <= Sym(4) (d = 3), both policies
    for d in (2, 3):
        subs, _ = enumerate_subgroups(d + 1)
        for G in subs:
            s = ColourScheme(d, G)
            for colour in range(d + 1):
                lab = s.orbit_index[colour]
                for n in (1, 2, 3, 4):
                    expect = level_counts(s, n, lab)
                    for policy in ("value", "orbit"):
                        assert level_counts_direct(s, n, colour, policy) == expect


def test_level_counts_sum():
    s = ColourScheme.from_generators(3, [from_cycles(4, (0, 1, 2))])
    for n in (1, 2, 3, 5):
        assert sum(level_counts(s, n, 0)) == 3 ** n


def test_level_counts_asymptotic_share():
    # the count fraction of orbit i tends to |D^(i)|/(d+1); with equal orbit
    # sizes this is the 1/(l+1) equidistribution claim
    for d, gens in ((2, [from_cycles(3, (0, 1))]), (3, [from_cycles(4, (0, 1), (2, 3))])):
        s = ColourScheme.from_generators(d, gens)
        counts = level_counts(s, 12, 0)
        total = sum(counts)
        for i, c in enumerate(counts):
            share = Fraction(c, total)
            target = Fraction(len(s.orbits[i]), d + 1)
            assert abs(share - target) < Fraction(1, 100)
    # equal-size-orbit case: trivial F at d = 2, all shares -> 1/(l+1) = 1/3
    triv = ColourScheme.trivial(2)
    counts = level_counts(triv, 12, 0)
    total = sum(counts)
    for c in counts:
        assert abs(Fraction(c, total) - Fraction(1, 3)) < Fraction(1, 100)


def test_cone_level_labels_vs_colour_walk():
    # each vertex's colour is the one reached by walking child_colours down
    # its digits from the cone's parent colour, and its label is that
    # colour's orbit
    for d in (2, 3):
        subs, _ = enumerate_subgroups(d + 1)
        for F in subs:
            s = ColourScheme(d, F)
            for colour in range(d + 1):
                for policy in ("value", "orbit"):
                    colours = cone_level_colours(s, colour, 3, policy)
                    levels = [[s.orbit_index[c] for c in level] for level in colours]
                    assert tuple(levels[-1]) == cone_leaf_labels(s, colour, 3, policy)
                    for depth, labels in enumerate(levels):
                        assert len(labels) == d ** depth
                        for v, lab in enumerate(labels):
                            c = colour
                            for i in reversed(range(depth)):
                                c = child_colours(s, c, d, policy)[v // d ** i % d]
                            assert lab == s.orbit_index[c], (F.generators, colour, v)
                            assert colours[depth][v] == c, (F.generators, colour, v)
    # the parent colour defaults to the first orbit representative
    s = ColourScheme.from_generators(2, [(1, 0, 2)])
    assert cone_level_colours(s, None, 2) == cone_level_colours(s, s.reps[0], 2)


@pytest.mark.parametrize("d", [1, 0])
def test_colour_scheme_refuses_branching_below_two(d):
    # a d = 1 scheme used to be built, and classify --d 1 --scheme then looped
    # forever looking for the cone depth
    with pytest.raises(ValueError, match=f"need d >= 2, not {d}"):
        ColourScheme.trivial(d)
    with pytest.raises(ValueError, match=f"need d >= 2, not {d}"):
        ColourScheme.from_generators(d, [(1, 0)] if d == 1 else [])


def test_tree_shape_refuses_one_root_cone():
    # the shape used to say "need d >= 2 and q >= 2" whichever was wrong
    with pytest.raises(ValueError, match="need q >= 2, not 1"):
        TreeShape(2, 1)


@pytest.mark.parametrize("degree,d,q,n", [(6, 2, 3, 1), (4, 2, 2, 1), (2, 2, 2, 0)])
def test_level_depth(degree, d, q, n):
    assert level_depth(degree, d, q) == n


@pytest.mark.parametrize("degree,d,q,message", [
    (5, 2, 2, "degree 5 is not q\\*d\\^n for q=2, d=2"),
    (4, 2, 3, "degree 4 is not q\\*d\\^n for q=3, d=2"),
    # d = 1 never grows the level: the depth search used to loop forever
    (4, 1, 2, "need d >= 2, not 1"),
])
def test_level_depth_refuses_degree_off_the_tree(degree, d, q, message):
    with pytest.raises(ValueError, match=message):
        level_depth(degree, d, q)


def test_label_layer_refuses_colours_outside_the_scheme():
    # each of these used to answer (colour -1 indexed from the end, colour 5
    # was simply not excluded) or raise IndexError
    s = ColourScheme.from_generators(2, [(1, 0, 2)])
    for colour in (-1, 3, 5):
        with pytest.raises(ColourSchemeMismatch, match=f"colour {colour} outside 0..2"):
            cone_leaf_labels(s, colour, 2)
        with pytest.raises(ColourSchemeMismatch, match=f"colour {colour} outside 0..2"):
            cone_level_colours(s, colour, 2)
        with pytest.raises(ColourSchemeMismatch, match=f"colour {colour} outside 0..2"):
            level_counts_direct(s, 2, colour)
        with pytest.raises(ColourSchemeMismatch, match=f"colour {colour} outside 0..2"):
            child_colours(s, colour, 2)
    with pytest.raises(DepthMismatch):
        cone_level_colours(s, 0, -1)
    assert child_colours(s, None, 3) == (0, 1, 2)  # the root has no parent colour


def test_cone_leaf_labels_lengths():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    labs = cone_leaf_labels(s, 0, 2)
    assert len(labs) == 4
    assert labs.count(0) == 3 and labs.count(1) == 1


@pytest.mark.parametrize("refused, error, message", [
    (lambda: check_cone(2.0, 1), ValueError, "bad d 2.0: not an int"),
    (lambda: check_cone(2, True), DepthMismatch, "bad depth True: not an int"),
    (lambda: check_colour(ColourScheme.full(2), 1.0), ColourSchemeMismatch,
     "bad colour 1.0: not an int"),
    (lambda: check_colour(ColourScheme.full(2), True), ColourSchemeMismatch,
     "bad colour True: not an int"),
    (lambda: check_label(ColourScheme.full(2), 0.0, "orbit"), ValueError,
     "bad orbit 0.0: not an int"),
], ids=["float-d", "bool-depth", "float-colour", "bool-colour", "float-label"])
def test_cone_context_refuses_values_that_are_not_ints(refused, error, message):
    # each passed the range test by value: check_cone returned, and
    # check_colour and check_label gave the value back
    with pytest.raises(error, match=message):
        refused()


@pytest.mark.parametrize("refused, error, message", [
    (lambda: ColourScheme(2, symmetric_group(4)), ValueError, "F must act on 3 colours"),
    (lambda: ColourScheme(3, symmetric_group(3)), ValueError, "F must act on 4 colours"),
    (lambda: child_colours(None, 0, 2), ValueError, "child_colours needs a colour scheme"),
    (lambda: child_colours(ColourScheme.full(2), 0, 2, policy="random"), ValueError,
     "unknown colouring policy: random"),
    (lambda: child_colours(ColourScheme.full(2), 0, 3), ValueError,
     "arity 3 exceeds available colours 2"),
    (lambda: child_colours(ColourScheme.full(2), None, 4), ValueError,
     "arity 4 exceeds available colours 3"),
    (lambda: level_counts(ColourScheme.full(2), 0, 0), ValueError, "n must be >= 1"),
    (lambda: level_counts_direct(ColourScheme.full(2), 0, 0), ValueError, "n must be >= 1"),
    (lambda: level_counts_direct(ColourScheme.full(2), 17, 0), DepthExceeded,
     "direct traversal capped at depth 16"),
], ids=["F-too-big", "F-too-small", "no-scheme", "policy", "arity", "root-arity",
        "level-counts-n0", "direct-n0", "direct-n17"])
def test_label_layer_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()
