import random

import pytest

from treeirs import perm
from treeirs.canon import _block_split
from treeirs.classify import boundary_quotient_elements, root_colours, theta_event
from treeirs.perm import DEFAULT_CAP, GeneratedGroup, compose, from_cycles, identity
from treeirs.thompson import TreePair, reduce_pair
from treeirs.tree import ColourScheme, TreeShape, child_colours, orbit_label


def random_frontier(rng: random.Random, d: int, q: int, n_expansions: int):
    """Leaf set of a random complete subtree with the root expanded."""
    leaves = [(j,) for j in range(q)]
    for _ in range(n_expansions):
        a = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(a + (j,) for j in range(d))
    return tuple(sorted(leaves))


def random_raw_pair(rng: random.Random, d: int, q: int,
                    max_expansions: int = 5) -> TreePair:
    """A random unreduced element: random trees of equal leaf count, random sigma."""
    n = rng.randrange(max_expansions + 1)
    dom = random_frontier(rng, d, q, n)
    ran = random_frontier(rng, d, q, n)
    sigma = list(range(len(dom)))
    rng.shuffle(sigma)
    return TreePair(d, q, dom, ran, tuple(sigma))


def random_tree_pair(rng: random.Random, d: int, q: int,
                     max_expansions: int = 5) -> TreePair:
    """A random reduced element: :func:`random_raw_pair`, reduced."""
    return reduce_pair(random_raw_pair(rng, d, q, max_expansions))


def random_label_preserving_pair(rng: random.Random, scheme: ColourScheme,
                                 d: int, q: int,
                                 max_expansions: int = 4) -> TreePair:
    """A random reduced label-preserving element (self-pair on one tree,
    with sigma shuffling leaves only within their label classes)."""
    dom = random_frontier(rng, d, q, rng.randrange(max_expansions + 1))
    shape = TreeShape(d, q)
    by_label: dict[int, list[int]] = {}
    for i, a in enumerate(dom):
        by_label.setdefault(orbit_label(shape, scheme, a), []).append(i)
    sigma = list(range(len(dom)))
    for idxs in by_label.values():
        shuffled = idxs[:]
        rng.shuffle(shuffled)
        for src, dst in zip(idxs, shuffled):
            sigma[src] = dst
    return reduce_pair(TreePair(d, q, dom, dom, tuple(sigma)))


# ---------------------------------------------------------------------------
# random cone automorphisms, for the invariance tests of canonical forms
# ---------------------------------------------------------------------------

def _randbelow(rng: random.Random, n: int) -> int:
    return rng.randrange(n) if n > 1 else 0  # draws nothing for n <= 1


def random_full_image(rng, E, depth: int, d: int) -> tuple[int, ...]:
    """Image of a leaf set under a uniformly random rooted automorphism."""
    def go(sub, level):
        if level == 0 or not sub:
            return sub
        block = d ** (level - 1)
        tau = list(range(d))
        for i in range(d - 1):  # Fisher-Yates via the supplied rng
            j = i + _randbelow(rng, d - i)
            tau[i], tau[j] = tau[j], tau[i]
        out = []
        for j, part in enumerate(_block_split(tuple(sub), d, block)):
            if part:
                out.extend(x + tau[j] * block for x in go(part, level - 1))
        return tuple(sorted(out))

    return go(tuple(sorted(set(E))), depth)


def random_coloured_image(rng, E, depth: int, scheme: ColourScheme,
                          parent_colour: int) -> tuple[int, ...]:
    """Image under a uniformly random constrained self-map of the cone.

    Local permutations are drawn uniformly from the relevant coset of F at
    every vertex independently, which is the uniform measure on the
    constrained map group.
    """
    d = scheme.d

    def go(sub, level, c_phys, c_img):
        if level == 0 or not sub:
            return sub
        block = d ** (level - 1)
        options = [s for s in scheme.F.elements if s[c_phys] == c_img]
        sigma = options[_randbelow(rng, len(options))]
        cs = child_colours(scheme, c_phys, d)
        ct = child_colours(scheme, c_img, d)
        tslot = {c: j for j, c in enumerate(ct)}
        out = []
        for j, part in enumerate(_block_split(tuple(sub), d, block)):
            if part:
                dst = tslot[sigma[cs[j]]]
                out.extend(x + dst * block
                           for x in go(part, level - 1, cs[j], sigma[cs[j]]))
        return tuple(sorted(out))

    return go(tuple(sorted(set(E))), depth, parent_colour, parent_colour)


# ---------------------------------------------------------------------------
# level groups and theta events
# ---------------------------------------------------------------------------

def level_group(d: int, q: int, n: int) -> GeneratedGroup:
    """W(d,q,n), the action of Aut(T_{d,q}) on the q*d^n level-n points,
    numbered cone-major: Sym(q) on the root blocks and Sym(d) on the
    children of the leftmost vertex at each depth 1..n, each by a
    transposition and a full cycle."""
    degree = q * d ** n

    def on_front(k, size):  # the front k blocks of `size` points each
        swap = from_cycles(degree, *[(i, size + i) for i in range(size)])
        cycle = from_cycles(degree, *[tuple(j * size + i for j in range(k))
                                      for i in range(size)])
        return [swap, cycle]

    gens = on_front(q, d ** n)
    for depth in range(1, n + 1):
        gens += on_front(d, d ** (n - depth))
    return GeneratedGroup(degree, gens)


def theta_vs_boundary_quotient(subgroups, d: int, q: int, n: int) -> list[bool]:
    """``theta_event(G, 0, 1, q, ColourScheme(d, F))`` for every F <=
    Sym(d+1) whose root colours 0 and 1 share a label and every G in
    ``subgroups``, in that order; each is asserted equal to whether G holds
    an element of the boundary quotient that carries cone 0 onto cone 1."""
    block = d ** n
    results = []
    for F in perm.enumerate_subgroups(d + 1)[0]:
        scheme = ColourScheme(d, F)
        rc = root_colours(scheme, q)
        if scheme.orbit_index[rc[0]] != scheme.orbit_index[rc[1]]:
            continue
        movers = [h for h in boundary_quotient_elements(q, n, scheme)
                  if set(h[:block]) == set(range(block, 2 * block))]
        for G in subgroups:
            got = theta_event(G, 0, 1, q, scheme)
            assert got == any(h in G for h in movers), (F.generators, G.generators)
            results.append(got)
    return results


def alternating_group(n: int, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    if n <= 2:
        return GeneratedGroup(max(n, 1), [], cap, _elements=[identity(max(n, 1))])
    gens = [from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 2)]
    return GeneratedGroup(n, gens, cap)


def listed_by_elements(G):
    """G again, with its whole element list as its generators."""
    return GeneratedGroup(G.degree, G.elements, G.cap, _elements=G.elements)


@pytest.fixture
def wrong_conjugators(monkeypatch):
    """A function that makes every conjugacy orbit walked from then on hand
    back wrong conjugators: each member but the start gets its conjugator
    composed with the first generator.  The kept class records of Sym(1..6)
    and ``enumerate_subgroups``' cache are emptied when it is called, so
    their walks are cold, and again after the test, so no faulty record
    outlives it."""
    real = perm.conjugacy_orbit

    def wrong(els, generators):
        start = tuple(sorted(els))
        return {member: g if member == start else compose(g, generators[0])
                for member, g in real(els, generators).items()}

    def clear():
        perm._kept_symmetric_records.cache_clear()
        perm.enumerate_subgroups.cache_clear()

    def inject():
        clear()
        monkeypatch.setattr(perm, "conjugacy_orbit", wrong)

    yield inject
    clear()
