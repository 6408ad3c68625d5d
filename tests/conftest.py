import random

from treeirs.thompson import TreePair, reduce_pair
from treeirs.tree import ColourScheme, TreeShape, orbit_label


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
    shape = TreeShape(d, q, n_max=max(len(a) for a in dom) + 1)
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
