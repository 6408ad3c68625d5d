"""Tree-pair calculus for prefix-replacement maps on the rooted tree T_{d,q}.

An element is a reduced triple (A, B, sigma): two complete finite subtrees
with equally many leaves and a leaf bijection.  It acts on addresses by
replacing the unique A-leaf prefix with its sigma image; below the leaves the
identification is order preserving by construction.  Composition merges
the two sorted middle frontiers with two pointers, which walks the leaves of
their common refinement and builds no intermediate pair; reduction is one
left-to-right stack pass over the (domain leaf, image) items, sorted by
domain leaf, that collapses sibling families mapping order-preservingly onto
sibling families.  The reduced representative is the reduced tree-pair
diagram of Cannon, Floyd & Parry (Enseign. Math. 42, 1996); it is unique, so
it is the canonical form used for equality.

Subtrees are stored as their leaf sets: sorted tuples of digit-tuple
addresses (the root-only tree is ``((),)``); leaves given out of order are
sorted with sigma carried along.  Only ``perm``'s kernel (``inverse``,
``composer``) inverts or reorders sigma.  Validation happens at the public
constructors: ``TreePair(...)``, ``TreePair.identity``, ``from_mapping`` and
``pair_from_json`` each run one pass that finds every digit an int and one
forward sweep over the sorted leaves: each leaf must be the next uncovered
boundary vertex followed only by zeros, and the sweep must pass the root at
the last leaf.  That one test refuses empty sets, bad digits, duplicates,
nested leaves and gaps; only a refused set is examined again, to name the
reason.  ``compose``, ``reduce_pair`` and ``inverse`` build their results
from the leaves and sigma of pairs validated already, so they set the fields
through :func:`_trusted` and run no check again; a tier-1 test rebuilds
every result through the public constructor and compares fields and hash.
Nothing in the calculus recurses per tree level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perm
from .perm import _is_json_int, composer, is_perm
from .tree import ColourScheme, TreeShape, check_scheme, check_tree, orbit_label

Address = tuple[int, ...]


class MalformedPair(ValueError):
    pass


class AddressTooShallow(ValueError):
    pass


def _check_leafset(leaves, d: int, q: int) -> tuple[Address, ...]:
    """Validate a complete-subtree leaf set: a prefix-free cover of the boundary.

    One sweep over the sorted leaves.  ``e`` is the next boundary vertex not
    yet covered; each leaf must be ``e`` followed only by zeros, after which
    ``e`` moves to the next sibling of the leaf's last incomplete ancestor
    (or past the root, once the root's family is complete).
    """
    leaves = tuple(map(tuple, leaves))
    _check_digits(leaves)
    leaves = tuple(sorted(leaves))
    e = ()
    for a in leaves:
        if a != e and (e is None or a[:len(e)] != e or any(a[len(e):])):
            _refuse(leaves, d, q, e)
        n = len(a)
        while n > 1 and a[n - 1] == d - 1:
            n -= 1
        if n == 0 or (n == 1 and a[0] == q - 1):
            e = None  # the root's family is complete
        else:
            e = a[:n - 1] + (a[n - 1] + 1,)
    if e is not None:
        _refuse(leaves, d, q, e)
    return leaves


def _check_digits(addresses) -> None:
    """Refuse a digit that is not an int; run it before any sort or comparison."""
    for a in addresses:
        for digit in a:  # the sweep compares digits by value: 0.0 and True would pass
            if type(digit) is not int:
                raise MalformedPair(f"bad digit {digit!r} in address {a}: not an int")


def _refuse(leaves, d: int, q: int, uncovered) -> None:
    """Raise the reason a sorted leaf set failed :func:`_check_leafset`."""
    if not leaves:
        raise MalformedPair("empty leaf set")
    if len(set(leaves)) != len(leaves):
        raise MalformedPair("duplicate leaves")
    for a in leaves:
        for j, digit in enumerate(a):
            if not 0 <= digit < (q if j == 0 else d):
                raise MalformedPair(f"bad digit in address {a}")
    for a, b in zip(leaves, leaves[1:]):
        if b[:len(a)] == a:
            raise MalformedPair(f"leaf {a} lies above leaf {b}")
    raise MalformedPair(f"boundary not covered at {uncovered}")


@dataclass(frozen=True)
class TreePair:
    """A (domain tree, range tree, leaf bijection) triple; not auto-reduced.

    ``sigma[i]`` is the index into ``range_leaves`` of the image of
    ``domain_leaves[i]``, as given; both are stored sorted.  Use
    :func:`reduce_pair` to get the canonical representative.  Building one
    directly, or through :meth:`identity`, :meth:`from_mapping` or
    :func:`pair_from_json`, validates it; the calculus builds its results
    through :func:`_trusted`, which does not.
    """

    d: int
    q: int
    domain_leaves: tuple[Address, ...]
    range_leaves: tuple[Address, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        check_tree(self.d, self.q, MalformedPair)
        given_dom, given_rng = tuple(self.domain_leaves), tuple(self.range_leaves)
        dom = _check_leafset(given_dom, self.d, self.q)
        rng = _check_leafset(given_rng, self.d, self.q)
        sigma = tuple(self.sigma)
        if len(dom) != len(rng):
            raise MalformedPair("domain and range leaf counts differ")
        # the type test comes first: floats and bools sort among the ints
        if set(map(type, sigma)) != {int} or len(sigma) != len(dom) or not is_perm(sigma):
            raise MalformedPair("sigma is not a bijection of leaf indices (ints)")
        # sigma indexes the leaves as given: carry it onto the sorted tuples
        if dom != given_dom:
            sigma = composer(_sorting(tuple(map(tuple, given_dom))))(sigma)
        if rng != given_rng:
            sigma = composer(sigma)(perm.inverse(_sorting(tuple(map(tuple, given_rng)))))
        object.__setattr__(self, "domain_leaves", dom)
        object.__setattr__(self, "range_leaves", rng)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def identity(cls, d: int, q: int) -> "TreePair":
        return cls(d, q, ((),), ((),), (0,))

    @classmethod
    def from_mapping(cls, d: int, q: int, mapping) -> "TreePair":
        """Build from {domain address: range address} pairs."""
        items = [(tuple(a), tuple(b)) for a, b in dict(mapping).items()]
        _check_digits(a for item in items for a in item)  # a str digit would not sort
        dom, images = zip(*sorted(items)) if items else ((), ())
        # the constructor sorts the images and carries sigma along
        return cls(d, q, dom, images, tuple(range(len(dom))))

    def image_of_leaf(self, a: Address) -> Address:
        try:
            i = self.domain_leaves.index(tuple(a))
        except (TypeError, ValueError):  # not iterable, or not a leaf
            raise MalformedPair(f"address {a!r} is not a domain leaf") from None
        return self.range_leaves[self.sigma[i]]

    def mapping(self) -> dict[Address, Address]:
        return dict(zip(self.domain_leaves, composer(self.sigma)(self.range_leaves)))


def _sorting(leaves: tuple[Address, ...]) -> list[int]:
    """The permutation that sorts distinct addresses: the j-th least is
    ``leaves[_sorting(leaves)[j]]``."""
    return sorted(range(len(leaves)), key=leaves.__getitem__)


def _collapse(items, d: int, q: int) -> list[tuple[Address, Address]]:
    """Reduce (domain leaf, image) items sorted by domain leaf, in one pass.

    Each item is pushed onto a stack.  While the top ``arity`` entries are a
    whole sibling family ``parent+(0..arity-1,)`` mapped in order onto a
    family ``w+(0..arity-1,)`` of the same arity, they are replaced by
    ``(parent, w)``.  The stack stays sorted.  When a last child reaches the
    top, every leaf before it is final, so a family that fails the test then
    can never collapse later: the pass ends at the fixed point.
    """
    stack = []
    push = stack.append
    for a, b in items:
        while a:
            n = len(a)
            arity = d if n > 1 else q
            top = arity - 1
            if a[-1] != top or b[-1] != top or (d if len(b) > 1 else q) != arity:
                break
            start = len(stack) - top
            if start < 0:
                break
            w = b[:-1]
            # the domain side is a sorted frontier: the entries before a
            # last child that have its length are its elder siblings
            for t, (x, y) in enumerate(stack[start:]):
                if len(x) != n or y[-1] != t or y[:-1] != w:
                    break
            else:
                del stack[start:]
                a, b = a[:-1], w
                continue
            break
        push((a, b))
    return stack


def _trusted(d: int, q: int, domain_leaves, range_leaves, sigma) -> TreePair:
    """A pair that is valid by construction, with its fields set as given.

    No check runs: the caller passes sorted leaf tuples of one complete
    subtree each and a bijection between them, taken from validated pairs.
    """
    pair = object.__new__(TreePair)
    setattr_ = object.__setattr__  # the frozen dataclass refuses setattr
    setattr_(pair, "d", d)
    setattr_(pair, "q", q)
    setattr_(pair, "domain_leaves", domain_leaves)
    setattr_(pair, "range_leaves", range_leaves)
    setattr_(pair, "sigma", sigma)
    return pair


def _from_sorted(d: int, q: int, items) -> TreePair:
    """The pair of the calculus's (domain leaf, image) items, sorted by
    domain leaf, from validated pairs of the same (d, q)."""
    dom, images = zip(*items)
    order = _sorting(images)
    return _trusted(d, q, dom, composer(order)(images), perm.inverse(order))


def reduce_pair(pair: TreePair) -> TreePair:
    """Collapse order-preserving sibling-family matches until none remain.

    Returns ``pair`` itself when it is already reduced.
    """
    items = list(zip(pair.domain_leaves, composer(pair.sigma)(pair.range_leaves)))
    reduced = _collapse(items, pair.d, pair.q)
    if len(reduced) == len(items):
        return pair
    return _from_sorted(pair.d, pair.q, reduced)


def compose(p1: TreePair, p2: TreePair) -> TreePair:
    """p1 then p2, returned in reduced form.

    Every leaf ``w`` of the common refinement of p1's range and p2's domain
    has a unique prefix ``r`` among p1's range leaves and ``s`` among p2's
    domain leaves, and the composite maps ``pre[r] + w[len(r):]`` to
    ``post[s] + w[len(s):]``.  Both frontiers are sorted, so the refinement
    is a merge: the current ``r`` and ``s`` are comparable, the longer one
    is ``w``, its pointer advances, and the shorter one's advances once its
    cone is used up.  The items are gathered per ``r`` and read back in the
    order of p1's domain leaves, which sorts them by domain address.
    """
    if (p1.d, p1.q) != (p2.d, p2.q):
        raise MalformedPair("tree parameters differ")
    rs, ss = p1.range_leaves, p2.domain_leaves
    pre = composer(perm.inverse(p1.sigma))(p1.domain_leaves)
    post = composer(p2.sigma)(p2.range_leaves)
    cones = [[] for _ in rs]
    i = k = 0
    n_s = len(ss)
    while k < n_s:
        r, s = rs[i], ss[k]
        lr, ls = len(r), len(s)
        if lr == ls:
            cones[i].append((pre[i], post[k]))
            i += 1
            k += 1
        elif lr < ls:
            cones[i].append((pre[i] + s[lr:], post[k]))
            k += 1
            if k == n_s or ss[k][:lr] != r:
                i += 1
        else:
            cones[i].append((pre[i], post[k] + r[ls:]))
            i += 1
            if i == len(rs) or rs[i][:ls] != s:
                k += 1
    items = [item for j in p1.sigma for item in cones[j]]
    return _from_sorted(p1.d, p1.q, _collapse(items, p1.d, p1.q))


def inverse(pair: TreePair) -> TreePair:
    return _trusted(pair.d, pair.q, pair.range_leaves, pair.domain_leaves,
                    perm.inverse(pair.sigma))


def act_on_address(pair: TreePair, w, deepen: bool = False):
    """Image of an address: replace its domain-leaf prefix with the sigma image.

    If ``w`` is a proper prefix of a domain leaf the action is not determined
    at this depth; with ``deepen=True`` the minimal deepenings are returned as
    (address, image) pairs instead of raising.
    """
    w = tuple(w)
    mapping = pair.mapping()
    for a, b in mapping.items():
        if w[:len(a)] == a:
            return b + w[len(a):]
    below = tuple((a, b) for a, b in mapping.items() if a[:len(w)] == w)
    if not below:
        raise MalformedPair(f"address {w} is outside the tree")
    if not deepen:
        raise AddressTooShallow(
            f"address {w} is shallower than the domain frontier")
    return below


def is_label_preserving(pair: TreePair, scheme: ColourScheme) -> bool:
    """Does the leaf bijection preserve the parent-edge label everywhere?

    Order preservation below the leaves is built into the calculus; this
    checks the labels of matched frontier leaves.  Needs q <= d+1 so the root
    edges can be coloured.
    """
    check_scheme(scheme, pair.d)
    if pair.q > scheme.d + 1:
        raise MalformedPair("root arity exceeds the number of colours")
    shape = TreeShape(pair.d, pair.q,
                      n_max=max(len(a) for a in
                                pair.domain_leaves + pair.range_leaves) + 1)
    # a root-only pair has nothing to check
    return all(not a or orbit_label(shape, scheme, a) == orbit_label(shape, scheme, b)
               for a, b in pair.mapping().items())


def _check_json_digits(d: int, q: int) -> None:
    if max(d, q) > 10:
        raise MalformedPair(
            f"JSON writes one character per digit; d={d}, q={q} has digits "
            "of 10 or more")


def pair_to_json(pair: TreePair) -> dict:
    _check_json_digits(pair.d, pair.q)
    return {
        "d": pair.d,
        "q": pair.q,
        "domain_leaves": ["".join(map(str, a)) for a in pair.domain_leaves],
        "range_leaves": ["".join(map(str, a)) for a in pair.range_leaves],
        "sigma": list(pair.sigma),
    }


_JSON_FIELDS = {"d": "an integer", "q": "an integer", "domain_leaves": "an array",
                "range_leaves": "an array", "sigma": "an array"}


def pair_from_json(data) -> TreePair:
    """Read :func:`pair_to_json` output; every number must be a JSON integer,
    every address a string of ASCII digits, and the leaves and sigma arrays."""
    if not isinstance(data, dict) or not data.keys() >= _JSON_FIELDS.keys():
        raise MalformedPair('expected a JSON object with keys "d", "q", '
                            '"domain_leaves", "range_leaves" and "sigma"')
    for key, kind in _JSON_FIELDS.items():
        value = data[key]
        if not (isinstance(value, list) if kind == "an array" else _is_json_int(value)):
            raise MalformedPair(f'"{key}" must be {kind}, not {value!r}')
    d, q = data["d"], data["q"]
    _check_json_digits(d, q)
    # TreePair refuses sigma entries that are not ints
    return TreePair(d, q, _addresses_from_json(data["domain_leaves"]),
                    _addresses_from_json(data["range_leaves"]),
                    tuple(data["sigma"]))


def _addresses_from_json(strings) -> tuple[Address, ...]:
    out = []
    for s in strings:
        # str.isdigit also accepts non-ASCII digits such as "\uff11"
        if not (isinstance(s, str) and s.isascii() and (s.isdigit() or not s)):
            raise MalformedPair(f"address must be a string of digits 0-9, not {s!r}")
        out.append(tuple(map(int, s)))
    return tuple(out)
