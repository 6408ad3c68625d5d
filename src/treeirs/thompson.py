"""Tree-pair calculus for prefix-replacement maps on the rooted tree T_{d,q}.

An element is a reduced triple (A, B, sigma): two complete finite subtrees
with equally many leaves and a leaf bijection.  It acts on addresses by
replacing the unique A-leaf prefix with its sigma image; below the leaves the
identification is order preserving by construction.  Composition is one
pass over the common refinement of the middle trees, with no intermediate
pair; reduction is a single bottom-up sweep that collapses sibling families
mapping order-preservingly onto sibling families.  The reduced representative
is unique, so it is the canonical form used for equality.

Subtrees are stored as their leaf sets: sorted tuples of digit-tuple
addresses (the root-only tree is ``((),)``).  Every pair is validated when it
is built, by one forward sweep over its sorted leaves: each leaf must be the
next uncovered boundary vertex followed only by zeros, and the sweep must
pass the root at the last leaf.  That one test refuses empty sets, bad
digits, duplicates, nested leaves and gaps; only a refused set is examined
again, to name the reason.  Nothing in the calculus recurses per tree level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import ColourScheme, TreeShape, orbit_label

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
    leaves = tuple(sorted(map(tuple, leaves)))
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
    ``domain_leaves[i]``.  Use :func:`reduce_pair` to get the canonical
    representative.
    """

    d: int
    q: int
    domain_leaves: tuple[Address, ...]
    range_leaves: tuple[Address, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2 or self.q < 2:
            raise MalformedPair("need d >= 2 and q >= 2")
        dom = _check_leafset(self.domain_leaves, self.d, self.q)
        rng = _check_leafset(self.range_leaves, self.d, self.q)
        object.__setattr__(self, "domain_leaves", dom)
        object.__setattr__(self, "range_leaves", rng)
        object.__setattr__(self, "sigma", tuple(self.sigma))
        if len(dom) != len(rng):
            raise MalformedPair("domain and range leaf counts differ")
        if sorted(self.sigma) != list(range(len(dom))):
            raise MalformedPair("sigma is not a bijection of leaf indices")

    @classmethod
    def identity(cls, d: int, q: int) -> "TreePair":
        return cls(d, q, ((),), ((),), (0,))

    @classmethod
    def from_mapping(cls, d: int, q: int, mapping) -> "TreePair":
        """Build from {domain address: range address} pairs."""
        items = sorted((tuple(a), tuple(b)) for a, b in dict(mapping).items())
        dom = tuple(a for a, _ in items)
        rng = tuple(sorted(b for _, b in items))
        pos = {b: j for j, b in enumerate(rng)}
        return cls(d, q, dom, rng, tuple(pos[b] for _, b in items))

    def image_of_leaf(self, a: Address) -> Address:
        i = self.domain_leaves.index(tuple(a))
        return self.range_leaves[self.sigma[i]]

    def mapping(self) -> dict[Address, Address]:
        return {a: self.range_leaves[self.sigma[i]]
                for i, a in enumerate(self.domain_leaves)}


def _internal_vertices(leaves) -> set[Address]:
    out = set()
    for a in leaves:
        for j in range(len(a) - 1, -1, -1):
            if a[:j] in out:
                break  # its ancestors are in already
            out.add(a[:j])
    return out


def join_frontiers(l1, l2, d: int, q: int) -> tuple[Address, ...]:
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


def _collapse(m: dict[Address, Address], d: int, q: int) -> bool:
    """Collapse the sibling families of ``m`` in place; True if any collapsed.

    ``m`` maps domain leaves to range leaves.  One sweep over the parents
    whose first child is a domain leaf (no other family can collapse),
    deepest first, reaches the fixed point: a collapse at depth L only makes
    a new leaf at depth L, which can complete a family only under its own
    parent, one level up, where the sweep has not been yet.
    """
    levels: dict[int, set[Address]] = {}
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


def reduce_pair(pair: TreePair) -> TreePair:
    """Collapse order-preserving sibling-family matches until none remain.

    Returns ``pair`` itself when it is already reduced.
    """
    m = pair.mapping()
    if not _collapse(m, pair.d, pair.q):
        return pair
    return TreePair.from_mapping(pair.d, pair.q, m)


def compose(p1: TreePair, p2: TreePair) -> TreePair:
    """p1 then p2, returned in reduced form.

    Every leaf ``w`` of the common refinement of p1's range and p2's domain
    has a unique prefix ``r`` among p1's range leaves and ``s`` among p2's
    domain leaves, and the composite maps ``pre[r] + w[len(r):]`` to
    ``post[s] + w[len(s):]``.  The refinement is walked from the root, so
    each prefix is found on the way down.
    """
    if (p1.d, p1.q) != (p2.d, p2.q):
        raise MalformedPair("tree parameters differ")
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
    _collapse(m, d, q)
    return TreePair.from_mapping(d, q, m)


def inverse(pair: TreePair) -> TreePair:
    inv = [0] * len(pair.sigma)
    for i, j in enumerate(pair.sigma):
        inv[j] = i
    return TreePair(pair.d, pair.q, pair.range_leaves, pair.domain_leaves,
                    tuple(inv))


def act_on_address(pair: TreePair, w, deepen: bool = False):
    """Image of an address: replace its domain-leaf prefix with the sigma image.

    If ``w`` is a proper prefix of a domain leaf the action is not determined
    at this depth; with ``deepen=True`` the minimal deepenings are returned as
    (address, image) pairs instead of raising.
    """
    w = tuple(w)
    for i, a in enumerate(pair.domain_leaves):
        if w[:len(a)] == a:
            return pair.range_leaves[pair.sigma[i]] + w[len(a):]
    below = [i for i, a in enumerate(pair.domain_leaves) if a[:len(w)] == w]
    if not below:
        raise MalformedPair(f"address {w} is outside the tree")
    if not deepen:
        raise AddressTooShallow(
            f"address {w} is shallower than the domain frontier")
    return tuple((pair.domain_leaves[i], pair.range_leaves[pair.sigma[i]])
                 for i in below)


def is_label_preserving(pair: TreePair, scheme: ColourScheme) -> bool:
    """Does the leaf bijection preserve the parent-edge label everywhere?

    Order preservation below the leaves is built into the calculus; this
    checks the labels of matched frontier leaves.  Needs q <= d+1 so the root
    edges can be coloured.
    """
    if pair.q > scheme.d + 1:
        raise MalformedPair("root arity exceeds the number of colours")
    shape = TreeShape(pair.d, pair.q,
                      n_max=max(len(a) for a in
                                pair.domain_leaves + pair.range_leaves) + 1)
    for i, a in enumerate(pair.domain_leaves):
        if not a:
            continue  # root-only pair: nothing to check
        b = pair.range_leaves[pair.sigma[i]]
        if orbit_label(shape, scheme, a) != orbit_label(shape, scheme, b):
            return False
    return True


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


def pair_from_json(data) -> TreePair:
    d, q = int(data["d"]), int(data["q"])
    _check_json_digits(d, q)
    return TreePair(
        d, q,
        tuple(tuple(int(ch) for ch in s) for s in data["domain_leaves"]),
        tuple(tuple(int(ch) for ch in s) for s in data["range_leaves"]),
        tuple(int(x) for x in data["sigma"]),
    )
