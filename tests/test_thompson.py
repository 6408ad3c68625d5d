import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_frontier,
    random_label_preserving_pair,
    random_raw_pair,
    random_tree_pair,
)
from treeirs import perm
from treeirs.classify import _block_lift
from treeirs.perm import enumerate_subgroups, from_cycles
from treeirs.thompson import (
    AddressTooShallow,
    MalformedPair,
    _check_leafset,
    TreePair,
    act_on_address,
    compose,
    inverse,
    is_label_preserving,
    pair_from_json,
    pair_to_json,
    reduce_pair,
)
from treeirs.tree import ColourScheme, ColourSchemeMismatch

PARAMS = [(2, 2), (2, 3), (3, 2)]


def test_validation_rejects_garbage():
    with pytest.raises(MalformedPair):
        TreePair(2, 2, ((0,),), ((0,),), (0,))  # frontier misses cone 1
    with pytest.raises(MalformedPair):
        TreePair(2, 2, ((0,), (1,)), ((0,), (1,)), (0, 0))  # sigma not bijective
    with pytest.raises(MalformedPair):
        TreePair(2, 2, ((0,), (1,), (1, 0)), ((0,), (1,), (1, 0)), (0, 1, 2))
    for sigma in ((0,), (0, 1, 2)):  # a bijection of too few or too many indices
        with pytest.raises(MalformedPair, match="bijection"):
            TreePair(2, 2, ((0,), (1,)), ((0,), (1,)), sigma)


def test_unsorted_leaves_keep_their_map():
    # sigma indexes the leaves as given; sorting them used to leave it
    # indexing the unsorted tuples, so the swap of the root cones was stored
    # as the identity
    swap = TreePair(2, 2, ((0,), (1,)), ((0,), (1,)), (1, 0))
    assert TreePair(2, 2, ((0,), (1,)), ((1,), (0,)), (0, 1)) == swap
    assert TreePair(2, 2, ((1,), (0,)), ((0,), (1,)), (0, 1)) == swap
    assert TreePair(2, 2, ((1,), (0,)), ((1,), (0,)), (1, 0)) == swap
    assert TreePair(2, 2, [[1], [0]], [[0], [1]], [0, 1]) == swap
    rng = random.Random(30)
    for d, q in PARAMS:
        for _ in range(50):
            p = random_tree_pair(rng, d, q)
            dom = rng.sample(p.domain_leaves, len(p.domain_leaves))
            ran = rng.sample(p.range_leaves, len(p.range_leaves))
            image = p.mapping()
            sigma = [ran.index(image[a]) for a in dom]
            assert TreePair(d, q, tuple(dom), tuple(ran), tuple(sigma)) == p


def test_validation_refuses_non_int_parameters_and_sigma():
    # a float d used to be accepted and failed later, inside compose
    for d, q in ((2.0, 2), (2, 2.0), (True, 2), ("2", 2)):
        with pytest.raises(MalformedPair, match="integers d >= 2"):
            TreePair(d, q, ((0,), (1,)), ((0,), (1,)), (1, 0))
    for sigma in ((0.0, 1), (True, False), (1, 0.0), ("0", 1)):
        with pytest.raises(MalformedPair, match="bijection"):
            TreePair(2, 2, ((0,), (1,)), ((0,), (1,)), sigma)


@pytest.mark.parametrize("digit", [0.0, False, "0", 1.0, True])
@pytest.mark.parametrize("side", ["domain", "range"])
def test_validation_refuses_non_int_digits(digit, side):
    # float and bool digits used to be stored as given, and pair_to_json then
    # wrote "0.0" or "True", which pair_from_json refuses
    good = ((0,), (1,))
    bad = ((digit,), (1,)) if digit in (0, "0") else ((0,), (digit,))
    leaves = (bad, good) if side == "domain" else (good, bad)
    with pytest.raises(MalformedPair, match="digit"):
        TreePair(2, 2, *leaves, (0, 1))
    # from_mapping used to sort first, so "0" among ints raised TypeError
    with pytest.raises(MalformedPair, match="digit"):
        TreePair.from_mapping(2, 2, dict(zip(*leaves)))


def test_validation_names_the_bad_tree_parameter():
    # used to read "need integers d >= 2 and q >= 2, not 2, 1"
    with pytest.raises(MalformedPair, match="need q >= 2, not 1"):
        TreePair.identity(2, 1)
    with pytest.raises(MalformedPair, match="need d >= 2, not 1"):
        TreePair.identity(1, 2)


def test_image_of_leaf_refuses_a_non_leaf():
    # used to leak "ValueError: tuple.index(x): x not in tuple"
    e = TreePair.identity(2, 2)
    assert e.image_of_leaf(()) == ()
    p = TreePair.from_mapping(2, 2, {(0,): (1,), (1,): (0,)})
    assert p.image_of_leaf([0]) == (1,)  # any sequence of digits names a leaf
    with pytest.raises(MalformedPair, match=r"address \(0,\) is not a domain leaf"):
        e.image_of_leaf((0,))  # a vertex below the root leaf
    with pytest.raises(MalformedPair, match=r"address \(\) is not a domain leaf"):
        p.image_of_leaf(())  # an interior vertex
    with pytest.raises(MalformedPair, match=r"address \(1, 0, 1\) is not a domain leaf"):
        p.image_of_leaf((1, 0, 1))  # deeper than the leaf (1,)
    for a in (5, None, "01"):  # not a tuple of int digits
        with pytest.raises(MalformedPair, match=f"address {a!r} is not a domain leaf"):
            p.image_of_leaf(a)


def test_identity_pair_and_action():
    e = TreePair.identity(2, 3)
    assert act_on_address(e, (1, 0, 1)) == (1, 0, 1)


def test_reduce_identity_mapping_to_trivial():
    rng = random.Random(5)
    for d, q in PARAMS:
        for _ in range(20):
            dom = random_frontier(rng, d, q, rng.randrange(5))
            p = reduce_pair(TreePair(d, q, dom, dom, tuple(range(len(dom)))))
            assert p == TreePair.identity(d, q)


def test_reduce_collapses_matching_caret():
    # domain {00, 01, 1}, range {0, 10, 11}, order-preserving caret onto caret
    p = TreePair.from_mapping(2, 2, {(0, 0): (1, 0), (0, 1): (1, 1), (1,): (0,)})
    r = reduce_pair(p)
    assert r == TreePair.from_mapping(2, 2, {(0,): (1,), (1,): (0,)})


def test_reduce_idempotent_random():
    rng = random.Random(99)
    for d, q in PARAMS:
        for _ in range(200):
            p = random_tree_pair(rng, d, q)
            assert reduce_pair(p) == p


def test_compose_inverse_gives_identity():
    rng = random.Random(7)
    for d, q in PARAMS:
        e = TreePair.identity(d, q)
        for _ in range(100):
            p = random_tree_pair(rng, d, q)
            assert compose(p, inverse(p)) == e
            assert compose(inverse(p), p) == e
            assert compose(p, e) == p
            assert compose(e, p) == p


def test_compose_associative_random():
    rng = random.Random(13)
    for d, q in PARAMS:
        for _ in range(60):
            p1 = random_tree_pair(rng, d, q)
            p2 = random_tree_pair(rng, d, q)
            p3 = random_tree_pair(rng, d, q)
            assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))


@pytest.mark.parametrize("shapes", [((2, 2), (2, 3)), ((2, 3), (3, 2))])
def test_compose_refuses_pairs_of_different_trees(shapes):
    # the trusted constructor takes (d, q) from p1: this guard is what keeps
    # a pair of one tree from being built on the leaves of another
    p1, p2 = (TreePair.identity(d, q) for d, q in shapes)
    for a, b in ((p1, p2), (p2, p1)):
        with pytest.raises(MalformedPair, match="tree parameters differ"):
            compose(a, b)


def test_depth1_swaps_compose_to_cone_cycle():
    p1 = TreePair.from_mapping(2, 3, {(0,): (1,), (1,): (0,), (2,): (2,)})
    p2 = TreePair.from_mapping(2, 3, {(0,): (0,), (1,): (2,), (2,): (1,)})
    got = compose(p1, p2)
    assert got == TreePair.from_mapping(2, 3, {(0,): (2,), (1,): (0,), (2,): (1,)})


def test_act_on_address_prefix_replacement():
    p = TreePair.from_mapping(2, 2, {(0,): (1,), (1,): (0,)})
    assert act_on_address(p, (0, 1, 1)) == (1, 1, 1)
    assert act_on_address(p, (1, 0)) == (0, 0)


def test_act_on_address_too_shallow_and_deepen():
    p = TreePair.from_mapping(2, 2, {(0, 0): (1,), (0, 1): (0, 0),
                                     (1,): (0, 1)})
    with pytest.raises(AddressTooShallow):
        act_on_address(p, (0,))
    deepened = act_on_address(p, (0,), deepen=True)
    assert deepened == (((0, 0), (1,)), ((0, 1), (0, 0)))


def test_action_respects_composition():
    rng = random.Random(31)
    for d, q in PARAMS:
        for _ in range(200):
            p1 = random_tree_pair(rng, d, q)
            p2 = random_tree_pair(rng, d, q)
            w = (rng.randrange(q),) + tuple(rng.randrange(d) for _ in range(8))
            assert act_on_address(compose(p1, p2), w) == \
                act_on_address(p2, act_on_address(p1, w))


def test_distinct_reduced_pairs_act_differently():
    rng = random.Random(47)
    for d, q in PARAMS:
        for _ in range(80):
            p1 = random_tree_pair(rng, d, q)
            p2 = random_tree_pair(rng, d, q)
            if p1 == p2:
                continue
            depth = 1 + max(len(a) for a in
                            p1.domain_leaves + p2.domain_leaves
                            + p1.range_leaves + p2.range_leaves)
            addrs = [(j,) + rest for j in range(q)
                     for rest in _tuples(d, depth - 1)]
            assert any(act_on_address(p1, w) != act_on_address(p2, w)
                       for w in addrs)


def _tuples(d, length):
    if length == 0:
        return [()]
    return [t + (j,) for t in _tuples(d, length - 1) for j in range(d)]


def test_label_preserving_examples():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    e = TreePair.identity(2, 3)
    assert is_label_preserving(e, s)
    full = ColourScheme.full(2)
    rng = random.Random(3)
    for _ in range(50):
        assert is_label_preserving(random_tree_pair(rng, 2, 3), full)
    # root cones carry colours (0, 1, 2): swapping cone 0 (label {0,1}) with
    # cone 2 (label {2}) is not label preserving
    bad = TreePair.from_mapping(2, 3, {(0,): (2,), (2,): (0,), (1,): (1,)})
    assert not is_label_preserving(bad, s)
    ok = TreePair.from_mapping(2, 3, {(0,): (1,), (1,): (0,), (2,): (2,)})
    assert is_label_preserving(ok, s)


def test_label_preserving_refuses_scheme_of_other_d():
    # a d = 3 scheme on a binary tree used to answer: True under the full
    # scheme, False under the trivial one
    p = TreePair.from_mapping(2, 2, {(0,): (1,), (1,): (0,)})
    for scheme in (ColourScheme.full(3), ColourScheme.trivial(3)):
        with pytest.raises(ColourSchemeMismatch, match="scheme is for d=3, not 2"):
            is_label_preserving(p, scheme)


def test_label_preserving_closed_under_composition():
    rng = random.Random(70)
    subs, _ = enumerate_subgroups(3)
    for F in subs:
        scheme = ColourScheme(2, F)
        for _ in range(150):
            p1 = random_label_preserving_pair(rng, scheme, 2, 3)
            p2 = random_label_preserving_pair(rng, scheme, 2, 3)
            assert is_label_preserving(p1, scheme)
            assert is_label_preserving(p2, scheme)
            assert is_label_preserving(compose(p1, p2), scheme)
            assert is_label_preserving(inverse(p1), scheme)


def test_join_frontiers():
    l1 = ((0,), (1, 0), (1, 1))
    l2 = ((0, 0), (0, 1), (1,))
    assert join_frontiers(l1, l2, 2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_deep_comb_pair():
    # depth 1500 is past the default recursion limit: validation, the
    # calculus and the join must not recurse per level
    comb = [(1,) * i + (0,) for i in range(1500)] + [(1,) * 1500]
    n = len(comb)
    p = TreePair(2, 2, comb, comb, tuple((i + 1) % n for i in range(n)))
    e = TreePair.identity(2, 2)
    inv = inverse(p)
    assert inv.sigma == tuple((i - 1) % n for i in range(n))
    assert inverse(inv) == p
    assert compose(p, inv) == e
    assert compose(inv, p) == e
    assert compose(e, p) == reduce_pair(p)
    assert reduce_pair(p) is p  # no sibling family maps onto a family
    assert act_on_address(p, (1,) * 1499 + (0, 1)) == (1,) * 1500 + (1,)
    assert join_frontiers(comb, comb, 2, 2) == tuple(comb)
    mirror = [tuple(1 - x for x in a) for a in comb]
    joined = join_frontiers(comb, mirror, 2, 2)
    assert joined == tuple(sorted(
        [(0,) * i + (1,) for i in range(1, 1500)] + [(0,) * 1500]
        + [(1,) * i + (0,) for i in range(1, 1500)] + [(1,) * 1500]))


def test_json_roundtrip():
    rng = random.Random(11)
    for d, q in PARAMS:
        for _ in range(20):
            p = random_tree_pair(rng, d, q)
            assert pair_from_json(pair_to_json(p)) == p


def test_json_refuses_digits_of_ten_or_more():
    # q = 11: the root leaf (10,) would be written "10" and read back as (1, 0)
    sigma = (1, 0) + tuple(range(2, 11))
    p = TreePair(2, 11, tuple((j,) for j in range(11)),
                 tuple((j,) for j in range(11)), sigma)
    with pytest.raises(MalformedPair, match="digit"):
        pair_to_json(p)
    data = {"d": 2, "q": 11, "domain_leaves": [str(j) for j in range(11)],
            "range_leaves": [str(j) for j in range(11)], "sigma": list(sigma)}
    with pytest.raises(MalformedPair, match="digit"):
        pair_from_json(data)
    with pytest.raises(MalformedPair, match="digit"):
        pair_from_json({**data, "d": 11, "q": 2})
    # the largest digit that fits one character still round-trips
    p10 = TreePair(2, 10, tuple((j,) for j in range(10)),
                   tuple((j,) for j in range(10)), (9,) + tuple(range(9)))
    assert pair_to_json(p10)["range_leaves"][-1] == "9"
    assert pair_from_json(pair_to_json(p10)) == p10


def test_json_output_unchanged():
    p = TreePair.from_mapping(2, 3, {(0,): (1, 1), (1,): (0,), (2, 0): (2,),
                                     (2, 1): (1, 0)})
    assert pair_to_json(p) == {"d": 2, "q": 3,
                               "domain_leaves": ["0", "1", "20", "21"],
                               "range_leaves": ["0", "10", "11", "2"],
                               "sigma": [2, 0, 3, 1]}


_GOOD_JSON = {"d": 2, "q": 2, "domain_leaves": ["0", "1"],
              "range_leaves": ["0", "1"], "sigma": [1, 0]}
_DROP = object()  # a key left out of the input


@pytest.mark.parametrize("change,match", [
    ({"d": 2.9}, '"d" must be an integer, not 2.9'),
    ({"d": 2.0}, '"d" must be an integer'),
    ({"q": "2"}, '"q" must be an integer'),
    ({"q": True}, '"q" must be an integer'),
    ({"sigma": [1.7, 0.2]}, "bijection"),
    ({"sigma": [1.0, 0]}, "bijection"),
    ({"sigma": [True, False]}, "bijection"),
    ({"domain_leaves": ["0", "\uff11"]}, "digits 0-9"),
    ({"range_leaves": ["\u0660", "1"]}, "digits 0-9"),
    ({"domain_leaves": [[0], [1]]}, "digits 0-9"),
    ({"domain_leaves": "01"}, '"domain_leaves" must be an array'),
    ({"range_leaves": {"0": 0, "1": 1}}, '"range_leaves" must be an array'),
    ({"sigma": "10"}, '"sigma" must be an array'),
    ({"sigma": 1}, '"sigma" must be an array'),
    ({"sigma": [0]}, "bijection"),
    ({"sigma": _DROP}, "expected a JSON object with keys"),
    ({"d": _DROP}, "expected a JSON object with keys"),
    ([_GOOD_JSON], "expected a JSON object with keys"),
    ("{}", "expected a JSON object with keys"),
    (None, "expected a JSON object with keys"),
])
def test_json_refuses_non_integers(change, match):
    assert pair_from_json(_GOOD_JSON) == TreePair(2, 2, ((0,), (1,)),
                                                  ((0,), (1,)), (1, 0))
    if isinstance(change, dict):  # the good input with these keys set or dropped
        change = {key: value for key, value in {**_GOOD_JSON, **change}.items()
                  if value is not _DROP}
    with pytest.raises(MalformedPair, match=match):
        pair_from_json(change)


def test_json_unsorted_leaves_keep_their_map():
    swap = pair_from_json(_GOOD_JSON)
    assert pair_from_json({**_GOOD_JSON, "range_leaves": ["1", "0"], "sigma": [0, 1]}) == swap
    assert pair_from_json({**_GOOD_JSON, "domain_leaves": ["1", "0"], "sigma": [0, 1]}) == swap


# ---------------------------------------------------------------------------
# differential test of the leaf-set check against the recursive cover check
# it replaced
# ---------------------------------------------------------------------------

def _oracle_check_leafset(leaves, d, q):
    """The recursive check: digits in range, then count the covered boundary."""
    leaves = tuple(sorted(tuple(a) for a in leaves))
    if not leaves:
        raise MalformedPair("empty leaf set")
    if len(set(leaves)) != len(leaves):
        raise MalformedPair("duplicate leaves")
    max_depth = max(len(a) for a in leaves)
    for a in leaves:
        for j, digit in enumerate(a):
            if not 0 <= digit < _oracle_arity(a[:j], d, q):
                raise MalformedPair(f"bad digit in address {a}")
    leafset = set(leaves)

    def cover(prefix):
        if prefix in leafset:
            return 1
        if len(prefix) >= max_depth:
            raise MalformedPair(f"boundary not covered below {prefix}")
        return sum(cover(prefix + (j,))
                   for j in range(_oracle_arity(prefix, d, q)))

    if cover(()) != len(leaves):
        raise MalformedPair("leaf set is not a complete subtree frontier")
    return leaves


def _assert_check_agrees(leaves, d, q):
    """Same verdict as the oracle, the same tuple on acceptance, and a
    digit refusal worded as one.  Returns whether the set was accepted."""
    try:
        want = _oracle_check_leafset(leaves, d, q)
    except MalformedPair as exc:
        with pytest.raises(MalformedPair) as got:
            _check_leafset(leaves, d, q)
        if "digit" in str(exc):
            assert "digit" in str(got.value)
        return False
    assert _check_leafset(leaves, d, q) == want
    return True


def test_leafset_check_equals_oracle_exhaustive():
    addrs = [a for n in range(4) for a in itertools.product(range(2), repeat=n)]
    assert len(addrs) == 15
    seen = accepted = 0
    for k in range(7):
        for subset in itertools.combinations(addrs, k):
            accepted += _assert_check_agrees(subset, 2, 2)
            _assert_check_agrees(subset[::-1], 2, 2)
            seen += 1
    assert seen == 9949
    # frontiers of depth <= 3 with 1, 2, ..., 6 leaves
    assert accepted == 1 + 1 + 2 + 5 + 6 + 6


_MUTATIONS = ("duplicate", "drop", "nested child", "bad digit", "truncate")


@st.composite
def _mutated_frontiers(draw):
    d, q = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))))
    leaves = list(draw(_frontiers(d, q, draw(st.integers(0, 6)))))
    kind = draw(st.sampled_from(_MUTATIONS))
    i = draw(st.integers(0, len(leaves) - 1))
    a = leaves[i]
    if kind == "duplicate":
        leaves.append(a)
    elif kind == "drop":
        del leaves[i]
    elif kind == "nested child":
        leaves.append(a + (draw(st.integers(0, d - 1)),))
    elif kind == "bad digit":
        j = draw(st.integers(0, len(a) - 1))
        arity = q if j == 0 else d
        digit = draw(st.one_of(st.integers(-3, -1), st.integers(arity, arity + 3)))
        leaves[i] = a[:j] + (digit,) + a[j + 1:]
    else:
        leaves[i] = a[:-1]
    order = draw(st.permutations(range(len(leaves))))
    return d, q, kind, [leaves[j] for j in order]


@settings(max_examples=400, deadline=None)
@given(_mutated_frontiers())
def test_leafset_check_refuses_mutations_as_oracle_does(case):
    d, q, kind, leaves = case
    assert not _assert_check_agrees(leaves, d, q)
    if kind == "bad digit":
        with pytest.raises(MalformedPair, match="digit"):
            _check_leafset(leaves, d, q)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))), st.data())
def test_leafset_check_accepts_frontiers_as_oracle_does(shape, data):
    d, q = shape
    leaves = data.draw(_frontiers(d, q, data.draw(st.integers(0, 8))))
    assert _assert_check_agrees(data.draw(st.permutations(leaves)), d, q)


# ---------------------------------------------------------------------------
# differential test against a leaf-by-leaf oracle: compose expands one leaf
# at a time, building a validated pair per step; reduce collapses one caret
# and restarts from the root
# ---------------------------------------------------------------------------

def _oracle_arity(prefix, d, q):
    return q if prefix == () else d


def _internal_vertices(leaves):
    out = set()
    for a in leaves:
        for j in range(len(a) - 1, -1, -1):
            if a[:j] in out:
                break  # its ancestors are in already
            out.add(a[:j])
    return out


def join_frontiers(l1, l2, d, q):
    """Frontier of the smallest complete subtree refining both frontiers."""
    internal = _internal_vertices(l1) | _internal_vertices(l2)
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if prefix in internal:
            stack.extend(prefix + (j,)
                         for j in reversed(range(q if not prefix else d)))
        else:
            out.append(prefix)  # depth first, least child first: sorted
    return tuple(out)


def _oracle_internal(leaves):
    return {a[:j] for a in leaves for j in range(len(a))}


def _oracle_expand_once(pair, domain_leaf):
    """Expand one domain leaf and its image into their children, in order."""
    a = tuple(domain_leaf)
    b = pair.image_of_leaf(a)
    m = pair.mapping()
    del m[a]
    for j in range(_oracle_arity(a, pair.d, pair.q)):
        m[a + (j,)] = b + (j,)
    return TreePair.from_mapping(pair.d, pair.q, m)


def _oracle_expand_side_to(pair, side, target):
    target_internal = _oracle_internal(target)
    while True:
        leaves = pair.range_leaves if side == "range" else pair.domain_leaves
        todo = [a for a in leaves if a in target_internal]
        if not todo:
            return pair
        a = todo[0]
        if side == "range":
            inv = {pair.range_leaves[pair.sigma[i]]: pair.domain_leaves[i]
                   for i in range(len(pair.sigma))}
            pair = _oracle_expand_once(pair, inv[a])
        else:
            pair = _oracle_expand_once(pair, a)


def _oracle_reduce(pair):
    """Collapse one caret, rebuild a validated pair, restart from the root."""
    while True:
        m = pair.mapping()
        collapsed = False
        for parent in sorted(_oracle_internal(pair.domain_leaves)):
            arity = _oracle_arity(parent, pair.d, pair.q)
            kids = [parent + (j,) for j in range(arity)]
            if not all(k in m for k in kids):
                continue
            images = [m[k] for k in kids]
            if not images[0]:
                continue
            w = images[0][:-1]
            if _oracle_arity(w, pair.d, pair.q) != arity:
                continue
            if all(img == w + (j,) for j, img in enumerate(images)):
                for k in kids:
                    del m[k]
                m[parent] = w
                pair = TreePair.from_mapping(pair.d, pair.q, m)
                collapsed = True
                break
        if not collapsed:
            return pair


def _oracle_compose(p1, p2):
    middle = join_frontiers(p1.range_leaves, p2.domain_leaves, p1.d, p1.q)
    a = _oracle_expand_side_to(p1, "range", middle)
    b = _oracle_expand_side_to(p2, "domain", middle)
    sigma = tuple(b.sigma[a.sigma[i]] for i in range(len(a.sigma)))
    return _oracle_reduce(TreePair(p1.d, p1.q, a.domain_leaves,
                                   b.range_leaves, sigma))


def _full_frontier(d, q, depth):
    return tuple(sorted((j,) + rest for j in range(q)
                        for rest in _tuples(d, depth - 1)))


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_calculus_equals_leaf_by_leaf_oracle(d, q):
    rng = random.Random(1000 * d + q)
    raw = [random_raw_pair(rng, d, q) for _ in range(60)]
    for p in raw:
        r = reduce_pair(p)
        assert r == _oracle_reduce(p)
        assert reduce_pair(r) is r
    for p1, p2 in zip(raw, raw[1:]):
        assert compose(p1, p2) == _oracle_compose(p1, p2)
    full = _full_frontier(d, q, 4)
    deep_identity = TreePair(d, q, full, full, tuple(range(len(full))))
    assert reduce_pair(deep_identity) == _oracle_reduce(deep_identity) \
        == TreePair.identity(d, q)
    for p in raw[:10]:
        assert compose(deep_identity, p) == _oracle_compose(deep_identity, p)
        assert compose(p, deep_identity) == _oracle_compose(p, deep_identity)


# ---------------------------------------------------------------------------
# the group axioms on drawn pairs
# ---------------------------------------------------------------------------

@st.composite
def _frontiers(draw, d, q, expansions):
    leaves = [(j,) for j in range(q)]
    for _ in range(expansions):
        a = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        leaves.extend(a + (j,) for j in range(d))
    return tuple(sorted(leaves))


@st.composite
def _raw_pairs(draw, d, q):
    n = draw(st.integers(0, 5))
    dom = draw(_frontiers(d, q, n))
    ran = draw(_frontiers(d, q, n))
    sigma = draw(st.permutations(range(len(dom))))
    return TreePair(d, q, dom, ran, tuple(sigma))


@st.composite
def _pair_tuples(draw, k):
    d = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((2, 3, 4)))
    return tuple(draw(_raw_pairs(d, q)) for _ in range(k))


@settings(max_examples=150, deadline=None)
@given(_pair_tuples(1), st.integers(0, 2 ** 16))
def test_reduce_idempotent_and_canonical(pairs, pick):
    (p,) = pairs
    r = reduce_pair(p)
    assert reduce_pair(r) is r
    for x in (p, r):
        leaf = x.domain_leaves[pick % len(x.domain_leaves)]
        assert reduce_pair(_oracle_expand_once(x, leaf)) == r


@settings(max_examples=150, deadline=None)
@given(_pair_tuples(3))
def test_compose_associative_and_inverse(pairs):
    p1, p2, p3 = pairs
    assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))
    assert compose(p1, inverse(p1)) == TreePair.identity(p1.d, p1.q)


@settings(max_examples=150, deadline=None)
@given(_pair_tuples(2), st.lists(st.integers(0, 2 ** 16), min_size=12,
                                 max_size=12))
def test_action_of_composite(pairs, digits):
    p1, p2 = pairs
    d, q = p1.d, p1.q
    # frontiers have depth <= 6, so composite domain leaves have depth <= 11
    w = (digits[0] % q,) + tuple(x % d for x in digits[1:])
    assert act_on_address(compose(p1, p2), w) == \
        act_on_address(p2, act_on_address(p1, w))


# ---------------------------------------------------------------------------
# differential test against the earlier calculus: compose walked the common
# refinement from the root, and the collapse swept parents deepest level
# first; results must agree as objects and sigma tuples exactly
# ---------------------------------------------------------------------------

def _prior_collapse(m, d, q):
    levels = {}
    for a in m:
        if a and a[-1] == 0:
            levels.setdefault(len(a) - 1, set()).add(a[:-1])
    collapsed = False
    for depth in range(max(levels, default=-1), -1, -1):
        for parent in levels.get(depth, ()):
            arity = q if not parent else d
            first = m[parent + (0,)]
            if not first or (q if len(first) == 1 else d) != arity:
                continue
            w = first[:-1]
            kids = [parent + (j,) for j in range(arity)]
            if any(m.get(k) != w + (j,) for j, k in enumerate(kids)):
                continue
            for k in kids:
                del m[k]
            m[parent] = w
            collapsed = True
            if parent and parent[-1] == 0:
                levels.setdefault(depth - 1, set()).add(parent[:-1])
    return collapsed


def _prior_from_mapping(d, q, m):
    items = sorted(m.items())
    dom = tuple(a for a, _ in items)
    rng = tuple(sorted(b for _, b in items))
    pos = {b: j for j, b in enumerate(rng)}
    return TreePair(d, q, dom, rng, tuple(pos[b] for _, b in items))


def _prior_reduce(pair):
    m = pair.mapping()
    if not _prior_collapse(m, pair.d, pair.q):
        return pair
    return _prior_from_mapping(pair.d, pair.q, m)


def _prior_compose(p1, p2):
    d, q = p1.d, p1.q
    pre = {p1.range_leaves[j]: a for a, j in zip(p1.domain_leaves, p1.sigma)}
    post = {a: p2.range_leaves[j] for a, j in zip(p2.domain_leaves, p2.sigma)}
    m = {}
    stack = [((), None, None)]
    while stack:
        w, r, s = stack.pop()
        if r is None and w in pre:
            r = w
        if s is None and w in post:
            s = w
        if r is None or s is None:
            stack.extend((w + (j,), r, s) for j in range(q if not w else d))
        else:
            m[pre[r] + w[len(r):]] = post[s] + w[len(s):]
    _prior_collapse(m, d, q)
    return _prior_from_mapping(d, q, m)


def _fields(p):
    return p.d, p.q, p.domain_leaves, p.range_leaves, p.sigma


def _assert_same_as_prior(p1, p2):
    for p in (p1, p2):
        got, want = reduce_pair(p), _prior_reduce(p)
        assert got == want and _fields(got) == _fields(want)
        assert (got is p) == (want is p)
    got, want = compose(p1, p2), _prior_compose(p1, p2)
    assert got == want and _fields(got) == _fields(want)
    m = p1.mapping()
    assert _fields(TreePair.from_mapping(p1.d, p1.q, m)) == \
        _fields(_prior_from_mapping(p1.d, p1.q, m))


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_calculus_equals_prior_calculus_seeded(d, q):
    rng = random.Random(7000 + 10 * d + q)
    raw = [random_raw_pair(rng, d, q, 7) for _ in range(150)]
    reduced = [reduce_pair(p) for p in raw]
    for pairs in (raw, reduced):
        for p1, p2 in zip(pairs, pairs[1:] + pairs[:1]):
            _assert_same_as_prior(p1, p2)
            _assert_same_as_prior(p1, inverse(p1))
    for p, r in zip(raw, reduced):
        _assert_same_as_prior(p, r)
        _assert_same_as_prior(TreePair.identity(d, q), r)


def test_calculus_equals_prior_calculus_on_deep_combs():
    comb = [(1,) * i + (0,) for i in range(1500)] + [(1,) * 1500]
    mirror = sorted(tuple(1 - x for x in a) for a in comb)
    n = len(comb)
    rotate = tuple((i + 1) % n for i in range(n))
    p = TreePair(2, 2, comb, comb, rotate)
    m = TreePair(2, 2, mirror, mirror, rotate)
    across = TreePair(2, 2, comb, mirror, tuple(reversed(range(n))))
    _assert_same_as_prior(p, m)
    _assert_same_as_prior(across, inverse(across))


@settings(max_examples=200, deadline=None)
@given(_pair_tuples(2))
def test_calculus_equals_prior_calculus_drawn(pairs):
    p1, p2 = pairs
    _assert_same_as_prior(p1, p2)
    _assert_same_as_prior(reduce_pair(p1), reduce_pair(p2))
    _assert_same_as_prior(p1, inverse(p1))


def test_calculus_digest_pinned():
    # the digest was taken with the earlier calculus, over 3 x 1,000 pairs
    rng = random.Random(1729)
    h = hashlib.sha256()
    for d, q in ((2, 2), (2, 3), (3, 2)):
        raw = [random_raw_pair(rng, d, q) for _ in range(1000)]
        for p1, p2 in zip(raw, raw[1:] + raw[:1]):
            for x in (reduce_pair(p1), compose(p1, inverse(p1)),
                      compose(p1, p2)):
                h.update(repr(_fields(x)).encode())
    assert h.hexdigest() == \
        "efe9992b3b9375d35460f1117bdfa9488c0b088612f2d33098d7c5326f87053a"


# ---------------------------------------------------------------------------
# level permutations as tree pairs: sigma on the sorted level-n addresses
# L_n is the pair (L_n, L_n, sigma), so perm's calculus is an oracle for
# compose and reduce_pair, and tree pairs are one for classify._block_lift
# ---------------------------------------------------------------------------

LEVEL_SHAPES = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 2, 3), (3, 3, 2)]


def level_pair(d, q, n, sigma):
    """The tree pair of a permutation of the q*d^n level-n addresses."""
    level = tuple(itertools.product(range(q), *[range(d)] * n))  # sorted
    return TreePair(d, q, level, level, tuple(sigma))


def assert_level_embedding(d, q, n, a, b):
    # a homomorphism, and the same element as its lift one level down
    assert (compose(level_pair(d, q, n, a), level_pair(d, q, n, b))
            == reduce_pair(level_pair(d, q, n, perm.compose(a, b))))
    assert (reduce_pair(level_pair(d, q, n, a))
            == reduce_pair(level_pair(d, q, n + 1, _block_lift(a, d))))


@pytest.mark.parametrize("d, q, n", LEVEL_SHAPES)
def test_level_permutations_compose_as_tree_pairs(d, q, n):
    rng = random.Random(f"level {d} {q} {n}")
    points = range(q * d ** n)
    for _ in range(300):
        assert_level_embedding(d, q, n, tuple(rng.sample(points, len(points))),
                               tuple(rng.sample(points, len(points))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LEVEL_SHAPES), st.data())
def test_level_permutations_compose_as_tree_pairs_drawn(shape, data):
    d, q, n = shape
    points = range(q * d ** n)
    a, b = (tuple(data.draw(st.permutations(points))) for _ in range(2))
    assert_level_embedding(d, q, n, a, b)


def test_level_group_embeds_injectively():
    # W(2,2,2), the level-2 group of T_{2,2}, has 128 elements and as many
    # reduced tree pairs
    W = perm.GeneratedGroup(8, [from_cycles(8, (0, 4), (1, 5), (2, 6), (3, 7)),
                                from_cycles(8, (0, 2), (1, 3)), from_cycles(8, (0, 1))])
    assert W.order == 128
    assert len({reduce_pair(level_pair(2, 2, 2, g)) for g in W.elements}) == 128


# ---------------------------------------------------------------------------
# compose, reduce_pair and inverse build their results without validating
# them: every result, rebuilt through the public constructor, must come back
# with the same fields and hash, and inverse must agree with the public
# constructor fed the inverted leaf map
# ---------------------------------------------------------------------------

def _assert_revalidates(got):
    again = TreePair(got.d, got.q, got.domain_leaves, got.range_leaves, got.sigma)
    assert _fields(again) == _fields(got) and hash(again) == hash(got)
    return got


def _assert_results_revalidate(p1, p2):
    for p in (p1, p2):
        _assert_revalidates(reduce_pair(p))
        inv = _assert_revalidates(inverse(p))
        want = TreePair.from_mapping(p.d, p.q, {b: a for a, b in p.mapping().items()})
        assert _fields(inv) == _fields(want)
        _assert_revalidates(compose(p, inv))
    _assert_revalidates(compose(p1, p2))


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_calculus_results_revalidate_seeded(d, q):
    rng = random.Random(7000 + 10 * d + q)
    raw = [random_raw_pair(rng, d, q, 7) for _ in range(150)]
    reduced = [reduce_pair(p) for p in raw]
    for pairs in (raw, reduced):
        for p1, p2 in zip(pairs, pairs[1:] + pairs[:1]):
            _assert_results_revalidate(p1, p2)
    for p, r in zip(raw, reduced):
        _assert_results_revalidate(p, r)


def test_calculus_results_revalidate_on_deep_combs():
    comb = [(1,) * i + (0,) for i in range(1500)] + [(1,) * 1500]
    mirror = sorted(tuple(1 - x for x in a) for a in comb)
    n = len(comb)
    rotate = tuple((i + 1) % n for i in range(n))
    p = TreePair(2, 2, comb, comb, rotate)
    m = TreePair(2, 2, mirror, mirror, rotate)
    across = TreePair(2, 2, comb, mirror, tuple(reversed(range(n))))
    _assert_results_revalidate(p, m)
    _assert_results_revalidate(across, inverse(across))
    e = TreePair.identity(2, 2)
    _assert_revalidates(compose(e, p))
    _assert_revalidates(compose(p, e))


@settings(max_examples=200, deadline=None)
@given(_pair_tuples(2))
def test_calculus_results_revalidate_drawn(pairs):
    p1, p2 = pairs
    _assert_results_revalidate(p1, p2)
    _assert_results_revalidate(reduce_pair(p1), reduce_pair(p2))
