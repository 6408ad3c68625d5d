"""Canonical forms deciding orbit equivalence of leaf subsets in a cone.

Two modes:

* full mode: the acting group is the full group of rooted automorphisms of a
  depth-n cone with branching d.  The form of an internal vertex is the
  multiset of its children's forms, so equality of forms is exactly orbit
  equivalence.

* coloured mode: the acting maps are cone isomorphisms all of whose induced
  local colour permutations lie in F, under a fixed legal edge colouring.  A
  map carrying one cone onto another sends a vertex with parent-edge colour c
  to one with parent-edge colour sigma(c) for its parent's local permutation
  sigma in F, so forms are computed relative to an *image* colour: the form
  of (vertex, image colour c') minimizes, over sigma in F with sigma(c) = c',
  the tuple of child forms placed at their image colours in ascending order.
  Cone roots are always canonicalized at the representative colour of their
  orbit, so forms of cones with label-equivalent parent colours are directly
  comparable.  Positions in a tuple are aligned by image colour, which keeps
  forms from different colour contexts from ever being conflated.

Match decisions go through ``Matcher``, which compares cheap level profiles
before it builds any form.  In full mode the profile of a subset E is, at each
depth 1..n-1, the sorted occupancy counts |E n cone(v)| of the vertices v that
E meets; in coloured mode it is, at each depth 1..n, the sorted pairs (label of
v, |E n cone(v)|).  The prefilter is exact: a rooted automorphism maps the
vertices of each depth bijectively onto themselves and the leaves under v onto
the leaves under the image of v, so it preserves every occupancy count, and a
colour-constrained map also preserves labels (its local permutations lie in F,
which fixes each F-orbit).  Different profiles therefore prove different
orbits, and the forms decide only the pairs whose profiles tie.

Forms are interned: each distinct canonical string gets a small integer id,
so equality tests are id comparisons.  The string itself is reconstruction-
independent (children are ordered by their canonical strings), which makes
exported census keys stable across processes and thread counts.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .perm import ClosureExceedsCap, Perm
from .tree import ColourScheme, child_colours, cone_level_labels


class BudgetExceeded(ValueError):
    pass


class DepthMismatch(ValueError):
    pass


class ColourSchemeMismatch(ValueError):
    pass


class _Interner:
    """String -> id table shared by all canonicalizations in the process.

    ``get`` is safe under concurrent use: lookups go through the dict without
    locking, inserts take a lock and re-check, so ids are stable once issued.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._strs: list[str] = []
        self._lock = threading.Lock()

    def get(self, key: str) -> int:
        fid = self._ids.get(key)
        if fid is not None:
            return fid
        with self._lock:
            fid = self._ids.get(key)
            if fid is None:
                fid = len(self._strs)
                self._strs.append(key)
                self._ids[key] = fid
            return fid

    def text(self, fid: int) -> str:
        return self._strs[fid]


_TABLE = _Interner()
EMPTY_LEAF = _TABLE.get("0")
MARKED_LEAF = _TABLE.get("1")


def form_str(form_id: int) -> str:
    """Canonical serialization of an interned form (stable across processes)."""
    return _TABLE.text(form_id)


def _block_split(leaves: tuple[int, ...], n_blocks: int, block: int):
    """Split sorted leaf offsets into per-child tuples of local offsets."""
    out = []
    for j in range(n_blocks):
        lo = bisect_left(leaves, j * block)
        hi = bisect_left(leaves, (j + 1) * block)
        out.append(tuple(x - j * block for x in leaves[lo:hi]))
    return out


def _empty_form(depth: int, d: int) -> int:
    fid = EMPTY_LEAF
    for _ in range(depth):
        fid = _TABLE.get("(" + ",".join([_TABLE.text(fid)] * d) + ")")
    return fid


def _leaf_tuple(E, depth: int, d: int) -> tuple[int, ...]:
    """Sorted distinct leaf offsets of E, checked against the cone's range."""
    leaves = tuple(sorted(set(E)))
    if leaves and not (0 <= leaves[0] and leaves[-1] < d ** depth):
        raise ValueError("leaf index out of range")
    return leaves


def canon_full(E, depth: int, d: int) -> int:
    """Canonical form of a leaf subset under all rooted cone automorphisms."""
    leaves = _leaf_tuple(E, depth, d)

    def go(sub: tuple[int, ...], level: int) -> int:
        if level == 0:
            return MARKED_LEAF if sub else EMPTY_LEAF
        if not sub:
            return _empty_form(level, d)
        block = d ** (level - 1)
        keys = sorted(_TABLE.text(go(part, level - 1))
                      for part in _block_split(sub, d, block))
        return _TABLE.get("(" + ",".join(keys) + ")")

    return go(leaves, depth)


def canon_coloured(E, depth: int, scheme: ColourScheme, parent_colour: int,
                   policy: str = "orbit") -> int:
    """Canonical form under cone maps with all local colour actions in F.

    The cone root's image colour is pinned to the representative of the
    F-orbit of ``parent_colour``, so two cones are comparable exactly when
    their root labels agree.
    """
    if not 0 <= parent_colour <= scheme.d:
        raise ColourSchemeMismatch(f"colour {parent_colour} outside 0..{scheme.d}")
    d = scheme.d
    leaves = _leaf_tuple(E, depth, d)
    F_els = scheme.F.elements
    all_colours = range(d + 1)
    memo: dict[tuple[int, int], int] = {}

    def go(sub: tuple[int, ...], level: int, c_phys: int, c_img: int,
           pos: int) -> int:
        if level == 0:
            return MARKED_LEAF if sub else EMPTY_LEAF
        if not sub:
            return _empty_form(level, d)
        key = (level, pos, c_img)
        hit = memo.get(key)
        if hit is not None:
            return hit
        block = d ** (level - 1)
        parts = _block_split(sub, d, block)
        cs = child_colours(scheme, c_phys, d, policy)
        slot = {c: j for j, c in enumerate(cs)}
        img_cols = [c for c in all_colours if c != c_img]
        best: tuple[str, ...] | None = None
        for sigma in F_els:
            if sigma[c_phys] != c_img:
                continue
            entry = []
            for e_img in img_cols:
                j = slot[_inv_at(sigma, e_img)]
                fid = go(parts[j], level - 1, cs[j], e_img, pos * d + j)
                entry.append(_TABLE.text(fid))
            entry = tuple(entry)
            if best is None or entry < best:
                best = entry
        if best is None:
            raise ColourSchemeMismatch(
                f"no sigma in F carries colour {c_phys} to {c_img}")
        fid = _TABLE.get("(" + ",".join(best) + ")")
        memo[key] = fid
        return fid

    rep = scheme.reps[scheme.orbit_index[parent_colour]]
    return go(leaves, depth, parent_colour, rep, 0)


def _inv_at(sigma: Perm, y: int) -> int:
    return sigma.index(y)


def equivalent(E, F2, depth: int, d: int, scheme: ColourScheme | None = None,
               colour_e: int | None = None, colour_f: int | None = None,
               policy: str = "orbit") -> bool:
    """Are two leaf subsets of equal-depth cones in the same orbit?

    Full mode when ``scheme`` is None.  In coloured mode ``colour_e`` and
    ``colour_f`` are the parent-edge colours of the two cone roots (default:
    the first orbit representative); cones with labels in different F-orbits
    are never equivalent.
    """
    if depth < 0:
        raise DepthMismatch("negative depth")
    if scheme is None:
        return canon_full(E, depth, d) == canon_full(F2, depth, d)
    if scheme.d != d:
        raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {d}")
    if colour_e is None:
        colour_e = scheme.reps[0]
    if colour_f is None:
        colour_f = colour_e
    if scheme.orbit_index[colour_e] != scheme.orbit_index[colour_f]:
        return False
    return (canon_coloured(E, depth, scheme, colour_e, policy)
            == canon_coloured(F2, depth, scheme, colour_f, policy))


@dataclass(frozen=True)
class Matcher:
    """Orbit-equivalence test for leaf subsets of two equal depth-n cones.

    ``same(E, F)`` decides exactly what comparing ``canon_full`` forms (or,
    given a scheme, ``canon_coloured`` forms at ``parent_colour`` on both
    cones) decides, but compares level profiles first and builds the forms
    only when the profiles tie.  It raises the forms' ``ValueError`` on an
    out-of-range leaf.
    """

    depth: int
    d: int
    scheme: ColourScheme | None = None
    parent_colour: int | None = None
    # (leaf block size, vertex labels or None) for each depth in the profile
    _levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth, d, scheme = self.depth, self.d, self.scheme
        if depth < 0:
            raise DepthMismatch("negative depth")
        if scheme is None:
            levels = tuple((d ** (depth - j), None) for j in range(1, depth))
        else:
            if scheme.d != d:
                raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {d}")
            if self.parent_colour is None:
                object.__setattr__(self, "parent_colour", scheme.reps[0])
            if not 0 <= self.parent_colour <= d:
                raise ColourSchemeMismatch(
                    f"colour {self.parent_colour} outside 0..{d}")
            labels = cone_level_labels(scheme, self.parent_colour, depth)
            levels = tuple((d ** (depth - j), labels[j]) for j in range(1, depth + 1))
        object.__setattr__(self, "_levels", levels)

    def _profile(self, leaves):
        """Yield, depth by depth, the sorted occupancy counts of the vertices
        that ``leaves`` meet (full mode, depths 1..n-1) or their sorted
        (label, count) pairs (coloured mode, depths 1..n)."""
        for block, labels in self._levels:
            occupancy = Counter([x // block for x in leaves])
            if labels is None:
                yield sorted(occupancy.values())
            else:
                yield sorted([(labels[v], n) for v, n in occupancy.items()])

    def same(self, E, F) -> bool:
        depth, d = self.depth, self.d
        a = _leaf_tuple(E, depth, d)
        b = _leaf_tuple(F, depth, d)
        if len(a) != len(b):
            return False
        for pa, pb in zip(self._profile(a), self._profile(b)):
            if pa != pb:
                return False
        if self.scheme is None:
            return canon_full(a, depth, d) == canon_full(b, depth, d)
        return (canon_coloured(a, depth, self.scheme, self.parent_colour)
                == canon_coloured(b, depth, self.scheme, self.parent_colour))


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Census:
    d: int
    depth: int
    k: int
    mode: str
    counts: tuple[tuple[int, int], ...]  # (form id, count), sorted by form string

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def match_probability(self) -> Fraction:
        """P(two independent uniform k-subsets are equivalent) = sum (c/T)^2."""
        t = self.total
        return sum((Fraction(c, t) ** 2 for _, c in self.counts), Fraction(0))


def orbit_census(d: int, depth: int, k: int, scheme: ColourScheme | None = None,
                 parent_colour: int | None = None, policy: str = "orbit",
                 budget: int = 2_000_000) -> Census:
    """Canonicalize every k-subset of the cone's leaves and count classes."""
    if scheme is not None and scheme.d != d:
        raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {d}")
    n_leaves = d ** depth
    total = comb(n_leaves, k)
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget={budget}")
    counts: dict[int, int] = {}
    if scheme is not None and parent_colour is None:
        parent_colour = scheme.reps[0]
    for E in itertools.combinations(range(n_leaves), k):
        if scheme is None:
            fid = canon_full(E, depth, d)
        else:
            fid = canon_coloured(E, depth, scheme, parent_colour, policy)
        counts[fid] = counts.get(fid, 0) + 1
    ordered = tuple(sorted(counts.items(), key=lambda kv: _TABLE.text(kv[0])))
    mode = "full" if scheme is None else "coloured"
    return Census(d, depth, k, mode, ordered)


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate the constrained maps themselves
# ---------------------------------------------------------------------------

def enumerate_cone_maps(depth: int, d: int, scheme: ColourScheme | None = None,
                        colour_from: int | None = None, colour_to: int | None = None,
                        policy: str = "orbit", cap: int = 500_000) -> tuple[tuple[int, ...], ...]:
    """All leaf bijections of one depth-n cone onto another.

    Full mode: every rooted-tree isomorphism (the iterated wreath group).
    Coloured mode: those realizable with every induced local colour
    permutation in F, the source root's parent colour being ``colour_from``
    and the image root's being ``colour_to``.  Each map is a tuple m with
    m[i] the image leaf index of source leaf i.
    """
    if scheme is not None:
        if colour_from is None:
            colour_from = scheme.reps[0]
        if colour_to is None:
            colour_to = colour_from

    memo: dict[tuple, list] = {}

    def rec(level: int, c_from, c_to) -> list[tuple[int, ...]]:
        if level == 0:
            return [(0,)]
        cached = memo.get((level, c_from, c_to))
        if cached is not None:
            return cached
        block = d ** (level - 1)
        out = []
        if scheme is None:
            subs = rec(level - 1, None, None)
            for tau in itertools.permutations(range(d)):
                for choice in itertools.product(subs, repeat=d):
                    m = [0] * (d * block)
                    for j in range(d):
                        base_src = j * block
                        base_dst = tau[j] * block
                        mj = choice[j]
                        for i in range(block):
                            m[base_src + i] = base_dst + mj[i]
                    out.append(tuple(m))
                    if len(out) > cap:
                        raise ClosureExceedsCap(f"more than cap={cap} cone maps")
        else:
            cs = child_colours(scheme, c_from, d, policy)
            ct = child_colours(scheme, c_to, d, policy)
            tslot = {c: j for j, c in enumerate(ct)}
            for sigma in scheme.F.elements:
                if sigma[c_from] != c_to:
                    continue
                per_child = [rec(level - 1, cs[j], sigma[cs[j]]) for j in range(d)]
                for choice in itertools.product(*per_child):
                    m = [0] * (d * block)
                    for j in range(d):
                        base_src = j * block
                        base_dst = tslot[sigma[cs[j]]] * block
                        mj = choice[j]
                        for i in range(block):
                            m[base_src + i] = base_dst + mj[i]
                    out.append(tuple(m))
                    if len(out) > cap:
                        raise ClosureExceedsCap(f"more than cap={cap} cone maps")
        memo[(level, c_from, c_to)] = out
        return out

    if depth == 0:
        ok = scheme is None or any(s[colour_from] == colour_to for s in scheme.F.elements)
        return ((0,),) if ok else ()
    return tuple(rec(depth, colour_from, colour_to))


def brute_force_equivalent(E, F2, depth: int, d: int,
                           scheme: ColourScheme | None = None,
                           colour_e: int | None = None, colour_f: int | None = None,
                           policy: str = "orbit", cap: int = 500_000) -> bool:
    """Oracle: does some enumerated constrained map carry E onto F2?"""
    Eset = tuple(sorted(set(E)))
    Fset = set(F2)
    if len(Eset) != len(Fset):
        return False
    for m in enumerate_cone_maps(depth, d, scheme, colour_e, colour_f, policy, cap):
        if {m[x] for x in Eset} == Fset:
            return True
    return False


# ---------------------------------------------------------------------------
# random group elements, for invariance testing and samplers
# ---------------------------------------------------------------------------

def _randbelow(rng, n: int) -> int:
    if n <= 1:
        return 0
    f = getattr(rng, "randbelow", None)
    if f is not None:
        return f(n)
    return rng.randrange(n)


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
                          parent_colour: int, policy: str = "orbit") -> tuple[int, ...]:
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
        cs = child_colours(scheme, c_phys, d, policy)
        ct = child_colours(scheme, c_img, d, policy)
        tslot = {c: j for j, c in enumerate(ct)}
        out = []
        for j, part in enumerate(_block_split(tuple(sub), d, block)):
            if part:
                dst = tslot[sigma[cs[j]]]
                out.extend(x + dst * block
                           for x in go(part, level - 1, cs[j], sigma[cs[j]]))
        return tuple(sorted(out))

    return go(tuple(sorted(set(E))), depth, parent_colour, parent_colour)
