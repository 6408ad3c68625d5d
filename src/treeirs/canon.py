"""Canonical forms deciding orbit equivalence of leaf subsets in a cone.

Two modes:

* full mode: the acting group is the full group of rooted automorphisms of a
  depth-n cone with branching d.  The form of an internal vertex is the
  multiset of its children's forms, so equality of forms is exactly orbit
  equivalence.

* coloured mode: the acting maps are cone isomorphisms all of whose induced
  local colour permutations lie in F, under the one legal edge colouring of
  ``tree`` (child edges in orbit order).  A map carrying one cone onto
  another sends a vertex with parent-edge colour c to one with parent-edge
  colour sigma(c) for its parent's local permutation sigma in F, so forms are
  computed relative to an *image* colour: the form of (vertex, image colour
  c') minimizes, over the local actions ``tree.local_maps(scheme, c, c')``
  (one per sigma in F with sigma(c) = c'), the tuple of child forms read in
  ascending order of image colour, each child's form taken at its image
  colour.
  Cone roots are always canonicalized at the representative colour of their
  orbit, so forms of cones with label-equivalent parent colours are directly
  comparable.  Positions in a tuple are aligned by image colour, which keeps
  forms from different colour contexts from ever being conflated.

Match decisions go through ``Matcher``, which builds no form string.  It first
compares cheap level profiles, top-down.  In full mode the profile of a subset
E is, at each depth 1..n-1, the sorted occupancy counts |E n cone(v)| of the
vertices v that E meets; in coloured mode it is, at each depth 1..n, the
sorted pairs (label of v, |E n cone(v)|).  The profile is exact: a rooted
automorphism maps the vertices of each depth bijectively onto themselves and
the leaves under v onto the leaves under the image of v, so it preserves every
occupancy count, and a colour-constrained map also preserves labels (its local
permutations lie in F, which fixes each F-orbit).  Different profiles
therefore prove different orbits.  On a tie, both subsets climb the tree
together, one level at a time, and each non-empty vertex gets an integer class
id in place of its form: in full mode the id of the sorted tuple of its
children's ids, in coloured mode the id of the least tuple of child ids over
the sigmas the coloured form at the least colour of the vertex's orbit
minimizes over.  The ids are numbered afresh in each call; two vertices of one
depth (and, in coloured mode, one orbit) get equal ids exactly when their
forms are equal, so the least tuple under id order is as canonical as the
least under string order.  A level at which the two subsets' multisets of ids
differ proves different orbits, and equal ids at the roots prove one orbit.

Censuses (``orbit_census``, and through it ``montecarlo.exact_colormatch``)
canonicalize no subset on their own.  A vertex's form is a function of its
children's forms (the Aho-Hopcroft-Ullman tree canonization), so the census is
a bottom-up recursion over class tables: for each depth and vertex kind (its
parent-edge colour in coloured mode) a table maps subset size to {class
signature: count}, and a vertex combines one class from each child's table,
multiplying the counts.  A coloured signature keeps the form at every image
colour of the vertex's orbit: an exported string holds each child's form at
the image its parent's sigma gives it.  The cost grows with the number of
classes instead of with C(d^n, k), and the forms are the same strings the
per-subset functions build.

A form is its own canonical string, built afresh by every call: the module
keeps no table of forms, and ``Matcher``'s class ids live only as long as one
``same`` call.  The string is reconstruction-independent (children
are ordered by their canonical strings), so forms compare equal across calls,
threads and processes, and census keys are exported as they are.

No command reads the per-subset forms.  Acceptance criterion C3 reads
``canon_full``, ``canon_coloured`` and ``enumerate_cone_maps``, and the tier-1
tests check the forms and ``Matcher`` against the oracles ``equivalent`` and
``brute_force_equivalent``.  ``form_str`` is the identity; it stays while the
benchmark traces it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .perm import ClosureExceedsCap, _is_json_int, wreath_join
from .tree import (ColourScheme, check_cone, check_label, child_colours, cone_colour,
                   cone_leaf_labels, cone_level_colours, local_maps)
from .tree import ColourSchemeMismatch, DepthMismatch  # noqa: F401  (imported from here too)


class BudgetExceeded(ValueError):
    pass


DEFAULT_BUDGET = 2_000_000  # subsets (or pairs) an exact count may cover


EMPTY_LEAF = "0"
MARKED_LEAF = "1"


def form_str(form: str) -> str:
    """The canonical serialization of a form, which is the form itself."""
    return form


def _block_split(leaves: tuple[int, ...], n_blocks: int, block: int):
    """Split sorted leaf offsets into per-child tuples of local offsets."""
    out = []
    for j in range(n_blocks):
        lo = bisect_left(leaves, j * block)
        hi = bisect_left(leaves, (j + 1) * block)
        out.append(tuple(x - j * block for x in leaves[lo:hi]))
    return out


def _empty_form(depth: int, d: int) -> str:
    form = EMPTY_LEAF
    for _ in range(depth):
        form = "(" + ",".join([form] * d) + ")"
    return form


def _leaf_tuple(E, depth: int, d: int) -> tuple[int, ...]:
    """Sorted distinct leaf offsets of E, checked against the cone's range."""
    leaves = tuple(sorted(set(E)))
    if leaves and not (0 <= leaves[0] and leaves[-1] < d ** depth):
        raise ValueError("leaf index out of range")
    return leaves


def canon_full(E, depth: int, d: int) -> str:
    """Canonical form of a leaf subset under all rooted cone automorphisms."""
    check_cone(d, depth)
    leaves = _leaf_tuple(E, depth, d)

    def go(sub: tuple[int, ...], level: int) -> str:
        if level == 0:
            return MARKED_LEAF if sub else EMPTY_LEAF
        if not sub:
            return _empty_form(level, d)
        block = d ** (level - 1)
        keys = sorted(go(part, level - 1) for part in _block_split(sub, d, block))
        return "(" + ",".join(keys) + ")"

    return go(leaves, depth)


def canon_coloured(E, depth: int, scheme: ColourScheme, parent_colour: int) -> str:
    """Canonical form under cone maps with all local colour actions in F.

    The cone root's image colour is pinned to the representative of the
    F-orbit of ``parent_colour``, so two cones are comparable exactly when
    their root labels agree.
    """
    d = scheme.d
    parent_colour = cone_colour(d, depth, scheme, parent_colour)
    leaves = _leaf_tuple(E, depth, d)
    memo: dict[tuple[int, int, int], str] = {}

    def go(sub: tuple[int, ...], level: int, c_phys: int, c_img: int,
           pos: int) -> str:
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
        cs = child_colours(scheme, c_phys, d)
        best = min(tuple([go(parts[j], level - 1, cs[j], e, pos * d + j)
                          for e, j in sorted(zip(row, range(d)))])
                   for row in local_maps(scheme, c_phys, c_img))
        form = memo[key] = "(" + ",".join(best) + ")"
        return form

    rep = scheme.reps[scheme.orbit_index[parent_colour]]
    return go(leaves, depth, parent_colour, rep, 0)


def equivalent(E, F2, depth: int, d: int, scheme: ColourScheme | None = None,
               colour_e: int | None = None, colour_f: int | None = None) -> bool:
    """Are two leaf subsets of equal-depth cones in the same orbit?

    Full mode when ``scheme`` is None.  In coloured mode ``colour_e`` and
    ``colour_f`` are the parent-edge colours of the two cone roots (default:
    the first orbit representative); cones with labels in different F-orbits
    are never equivalent.
    """
    colour_e = cone_colour(d, depth, scheme, colour_e)
    colour_f = cone_colour(d, depth, scheme, colour_e if colour_f is None else colour_f)
    if scheme is None:
        return canon_full(E, depth, d) == canon_full(F2, depth, d)
    if scheme.orbit_index[colour_e] != scheme.orbit_index[colour_f]:
        return False
    return (canon_coloured(E, depth, scheme, colour_e)
            == canon_coloured(F2, depth, scheme, colour_f))


@dataclass(frozen=True)
class Matcher:
    """Orbit-equivalence test for leaf subsets of two equal depth-n cones.

    ``same(E, F)`` decides exactly what comparing ``canon_full`` forms (or,
    given a scheme, ``canon_coloured`` forms at ``parent_colour`` on both
    cones) decides, in two stages.  It first compares level profiles top-down,
    then climbs both subsets together from the leaves, giving each non-empty
    vertex an integer class id in place of its form, and stops at the first
    level whose multisets of ids differ.  It raises the forms' ``ValueError``
    on an out-of-range leaf.

    In coloured mode a vertex of colour c gets one id, from the least tuple
    of child ids over the local actions ``tree.local_maps(scheme, c, r)``,
    r the least colour of c's orbit, each tuple read in ascending order of
    image colour.  The key may leave the orbit out: whatever sigma, the child
    at the position of image colour e has a colour in e's orbit, so equal
    ids are only ever compared within one orbit, where the class of a vertex
    does not depend on the image colour its form is taken at.
    """

    depth: int
    d: int
    scheme: ColourScheme | None = None
    parent_colour: int | None = None
    # (leaf block size, vertex labels or None) for each depth in the profile
    _levels: tuple = field(init=False, repr=False, compare=False)
    # coloured mode: the physical parent-edge colour of every vertex, one
    # tuple per depth 0..n; then, per colour c, the child slots of each row of
    # local_maps(scheme, c, least colour of c's orbit), by image colour
    _colours: tuple | None = field(init=False, repr=False, compare=False)
    _orders: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth, d, scheme = self.depth, self.d, self.scheme
        object.__setattr__(self, "parent_colour", cone_colour(d, depth, scheme, self.parent_colour))
        colours = orders = None
        if scheme is None:
            levels = tuple((d ** (depth - j), None) for j in range(1, depth))
        else:
            colours = cone_level_colours(scheme, self.parent_colour, depth)
            label = scheme.orbit_index
            levels = tuple((d ** (depth - j), tuple(label[c] for c in colours[j]))
                           for j in range(1, depth + 1))
            orders = tuple(
                tuple(tuple([j for _, j in sorted(zip(row, range(d)))])
                      for row in local_maps(scheme, c, scheme.reps[label[c]]))
                for c in range(d + 1))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_colours", colours)
        object.__setattr__(self, "_orders", orders)

    def _profile(self, leaves):
        """Yield, depth by depth, the sorted occupancy counts of the vertices
        that the sorted ``leaves`` meet (full mode, depths 1..n-1) or their
        sorted (label, count) pairs (coloured mode, depths 1..n)."""
        n = len(leaves)
        for block, labels in self._levels:
            runs = []  # (vertex, leaves under it), one per run of x // block
            i = 0
            while i < n:
                v = leaves[i] // block
                j = bisect_left(leaves, (v + 1) * block, i + 1)
                runs.append((v, j - i))
                i = j
            if labels is None:
                yield sorted([m for _, m in runs])
            else:
                yield sorted([(labels[v], m) for v, m in runs])

    def same(self, E, F) -> bool:
        depth, d = self.depth, self.d
        a = _leaf_tuple(E, depth, d)
        b = _leaf_tuple(F, depth, d)
        if len(a) != len(b):
            return False
        for pa, pb in zip(self._profile(a), self._profile(b)):
            if pa != pb:
                return False
        # one bottom-up pass over both subsets: ``ids`` numbers the forms met
        # in this call, 0 being an empty subtree and 1 a marked leaf, so equal
        # ids at one level mean equal forms (within one orbit, coloured)
        ids: dict[tuple, int] = {}
        xa = [1] * len(a)
        xb = [1] * len(b)
        if self.scheme is None:
            for _ in range(depth):
                a, xa = _climb_full(a, xa, d, ids)
                b, xb = _climb_full(b, xb, d, ids)
                if sorted(xa) != sorted(xb):
                    return False
            return True
        colours, orders = self._colours, self._orders
        for level in range(depth - 1, -1, -1):
            a, xa = _climb_coloured(a, xa, d, colours[level], orders, ids)
            b, xb = _climb_coloured(b, xb, d, colours[level], orders, ids)
            if sorted(xa) != sorted(xb):
                return False
        return True


def _climb_full(vs, xs, d, ids):
    """The non-empty parents of the sorted vertices ``vs`` with class ids
    ``xs``, and the parents' ids: the id of a parent is that of the sorted
    tuple of its non-empty children's ids (the multiset of its child forms)."""
    pv, px = [], []
    n = len(vs)
    i = 0
    while i < n:
        p = vs[i] // d
        j = i + 1
        while j < n and vs[j] // d == p:
            j += 1
        key = tuple(sorted(xs[i:j]))
        x = ids.get(key)
        if x is None:
            x = ids[key] = len(ids) + 2
        pv.append(p)
        px.append(x)
        i = j
    return pv, px


def _climb_coloured(vs, xs, d, parent_colours, orders, ids):
    """As ``_climb_full`` in coloured mode: the id of a parent is that of the
    least tuple of its children's ids (0 for an empty child) read in the slot
    orders of its colour, which is how ``canon_coloured`` takes its form at
    the least colour of the parent's orbit."""
    pv, px = [], []
    n = len(vs)
    i = 0
    while i < n:
        p = vs[i] // d
        base = p * d
        kids = [0] * d
        while i < n and vs[i] < base + d:
            kids[vs[i] - base] = xs[i]
            i += 1
        key = min([tuple([kids[j] for j in order]) for order in orders[parent_colours[p]]])
        x = ids.get(key)
        if x is None:
            x = ids[key] = len(ids) + 2
        pv.append(p)
        px.append(x)
    return pv, px


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Census:
    d: int
    depth: int
    k: int
    mode: str
    counts: tuple[tuple[str, int], ...]  # (form, count), sorted by form

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def match_probability(self) -> Fraction:
        """P(two independent uniform k-subsets are equivalent) = sum (c/T)^2,
        built as one Fraction of integer sums; 0 for an empty census."""
        if not self.counts:
            return Fraction(0)
        t = self.total
        return Fraction(sum([c * c for _, c in self.counts]), t * t)


def orbit_census(d: int, depth: int, k: int, scheme: ColourScheme | None = None,
                 parent_colour: int | None = None,
                 budget: int = DEFAULT_BUDGET, leaf_label: int | None = None) -> Census:
    """Count the k-subsets of the cone's leaves by their canonical form.

    The counts are those of canonicalizing every k-subset with ``canon_full``
    (or ``canon_coloured`` at ``parent_colour``), but they are built bottom-up
    from class tables, so the work grows with the number of classes rather
    than with C(d^depth, k); see ``_class_counts``.  With ``leaf_label`` (coloured
    mode only) just the subsets of the leaves carrying that label are counted.
    The budget caps the number of subsets counted, as if each were visited.
    """
    parent_colour = cone_colour(d, depth, scheme, parent_colour)
    if not _is_json_int(k):
        raise ValueError(f"bad k {k!r}: not an int")
    n_leaves = d ** depth
    if leaf_label is not None:
        if scheme is None:
            raise ValueError("leaf_label needs a colour scheme")
        check_label(scheme, leaf_label, "leaf_label")
        n_leaves = cone_leaf_labels(scheme, parent_colour, depth).count(leaf_label)
    total = comb(n_leaves, k)
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget={budget}")
    counts = {} if k > n_leaves else _class_counts(d, depth, k, scheme,
                                                   parent_colour, leaf_label)
    mode = "full" if scheme is None else "coloured"
    return Census(d, depth, k, mode, tuple(sorted(counts.items())))


def _placements(scheme: ColourScheme, c: int,
                c_img: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each local action of ``local_maps(scheme, c, c_img)``, the (child
    slot, position of its image colour in its F-orbit, which ``scheme.orbits``
    lists ascending) of each child, in ascending order of image colour.  A
    form at c_img is the least of the tuples of child forms these placements
    read."""
    pos = [scheme.orbits[scheme.orbit_index[e]].index(e) for e in range(scheme.d + 1)]
    return tuple(tuple([(j, pos[e]) for e, j in sorted(zip(row, range(scheme.d)))])
                 for row in local_maps(scheme, c, c_img))


def _combine(child_tables: list[list[dict]], lo: int, hi: int) -> list[tuple]:
    """Every choice of one class from each child's table with sizes summing to
    lo..hi, as (size, child signatures in child order, product of counts).  A
    partial choice is dropped as soon as the children left cannot reach lo."""
    room = sum(len(table) - 1 for table in child_tables)
    partial = [(0, (), 1)]
    for table in child_tables:
        room -= len(table) - 1
        partial = [(s + t, sigs + (sig,), n * m)
                   for s, sigs, n in partial
                   for t in range(max(0, lo - room - s), min(hi - s, len(table) - 1) + 1)
                   for sig, m in table[t].items()]
    return partial


def _class_counts(d: int, depth: int, k: int, scheme: ColourScheme | None,
                  parent_colour: int | None, leaf_label: int | None) -> dict[str, int]:
    """{root form: number of k-subsets with that form}, from class tables.

    A vertex's *kind* fixes the classes its subtree can hold: every vertex
    has the same kind (None) in full mode, and its physical parent-edge colour
    in coloured mode.  The kind's *images* are the image colours its form is
    taken at: (None,) in full mode, the F-orbit of the colour in coloured
    mode.  A class signature is the tuple of forms at the images, and the
    table of a kind maps each subset size to {signature: count}.  A leaf has
    {0: {empty: 1}, 1: {marked: 1}} (no size 1 if its label is not
    ``leaf_label``).  A vertex combines one class from each child's table,
    over every split of sizes that can still be completed to a k-subset of
    the cone; the count of the combination is the product of the children's
    counts, and the form at each image is built from the child forms exactly
    as ``canon_full`` / ``canon_coloured`` build it.  Every combination kept at
    a vertex is the restriction of some k-subset, so the combinations per
    vertex kind never outnumber the subsets the per-subset loop visits.
    """
    if scheme is None:
        root = root_img = None

        def kids(kind):
            return (None,) * d

        def images(kind):
            return (None,)

        def markable(kind):
            return True

        def form(kind, img, sigs):
            return "(" + ",".join(sorted(s[0] for s in sigs)) + ")"
    else:
        root = parent_colour
        root_img = scheme.reps[scheme.orbit_index[parent_colour]]
        orbit_of = [scheme.orbits[i] for i in scheme.orbit_index]
        child_cols: dict[int, tuple[int, ...]] = {}
        placements: dict[tuple[int, int], tuple] = {}

        def kids(c):
            if c not in child_cols:
                child_cols[c] = child_colours(scheme, c, d)
            return child_cols[c]

        def images(c):
            return orbit_of[c]

        def markable(c):
            return leaf_label is None or scheme.orbit_index[c] == leaf_label

        def form(c, c_img, sigs):
            pls = placements.get((c, c_img))
            if pls is None:
                pls = placements[c, c_img] = _placements(scheme, c, c_img)
            best = min(tuple(sigs[j][p] for j, p in pl) for pl in pls)
            return "(" + ",".join(best) + ")"

    kinds = [{root}]  # kinds present at each depth, from the cone root down
    for _ in range(depth):
        kinds.append({c for kind in kinds[-1] for c in kids(kind)})
    # markable leaves under a vertex of each kind; one with m of them holds at
    # least m - spare marked leaves, or the subset could not reach size k
    caps = [None] * depth + [{kind: int(markable(kind)) for kind in kinds[depth]}]
    for level in range(depth - 1, -1, -1):
        caps[level] = {kind: sum(caps[level + 1][c] for c in kids(kind))
                       for kind in kinds[level]}
    spare = caps[0][root] - k
    tables = {}
    for kind in kinds[depth]:
        n_img = len(images(kind))
        tables[kind] = [{(EMPTY_LEAF,) * n_img: 1}]
        if caps[depth][kind]:
            tables[kind].append({(MARKED_LEAF,) * n_img: 1})
    for level in range(depth - 1, -1, -1):
        parents = {}
        for kind in kinds[level]:
            table: list[dict] = []
            for size, sigs, n in _combine([tables[c] for c in kids(kind)],
                                          max(0, caps[level][kind] - spare), k):
                sig = tuple(form(kind, img, sigs) for img in images(kind))
                while len(table) <= size:
                    table.append({})
                table[size][sig] = table[size].get(sig, 0) + n
            parents[kind] = table
        tables = parents
    at = images(root).index(root_img)
    counts: dict[str, int] = {}
    for sig, n in tables[root][k].items():
        counts[sig[at]] = counts.get(sig[at], 0) + n
    return counts


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate the constrained maps themselves
# ---------------------------------------------------------------------------

def enumerate_cone_maps(depth: int, d: int, scheme: ColourScheme | None = None,
                        colour_from: int | None = None, colour_to: int | None = None,
                        cap: int = 500_000) -> tuple[tuple[int, ...], ...]:
    """All leaf bijections of one depth-n cone onto another.

    Full mode: every rooted-tree isomorphism (the iterated wreath group).
    Coloured mode: those realizable with every induced local colour
    permutation in F, the source root's parent colour being ``colour_from``
    and the image root's being ``colour_to``.  Each map is a tuple m with
    m[i] the image leaf index of source leaf i, joined by ``wreath_join``
    from its children's target slots and maps.
    """
    colour_from = cone_colour(d, depth, scheme, colour_from)
    colour_to = cone_colour(d, depth, scheme, colour_from if colour_to is None else colour_to)
    memo: dict[tuple, list] = {}

    def rec(level: int, c_from, c_to) -> list[tuple[int, ...]]:
        if level == 0:
            return [(0,)]
        cached = memo.get((level, c_from, c_to))
        if cached is not None:
            return cached
        # each option: the target slot of every child, and its maps to choose from
        if scheme is None:
            subs = rec(level - 1, None, None)
            options = ((tau, [subs] * d) for tau in itertools.permutations(range(d)))
        else:
            cs = child_colours(scheme, c_from, d)
            tslot = {c: j for j, c in enumerate(child_colours(scheme, c_to, d))}
            options = (([tslot[e] for e in row], [rec(level - 1, c, e) for c, e in zip(cs, row)])
                       for row in local_maps(scheme, c_from, c_to))
        out = []
        for targets, per_child in options:
            for choice in itertools.product(*per_child):
                out.append(wreath_join(targets, choice))
                if len(out) > cap:
                    raise ClosureExceedsCap(f"more than cap={cap} cone maps")
        memo[(level, c_from, c_to)] = out
        return out

    if depth == 0:
        ok = scheme is None or bool(local_maps(scheme, colour_from, colour_to))
        return ((0,),) if ok else ()
    return tuple(rec(depth, colour_from, colour_to))


def brute_force_equivalent(E, F2, depth: int, d: int,
                           scheme: ColourScheme | None = None,
                           colour_e: int | None = None, colour_f: int | None = None,
                           cap: int = 500_000) -> bool:
    """Oracle: does some enumerated constrained map carry E onto F2?"""
    Eset = tuple(sorted(set(E)))
    Fset = set(F2)
    if len(Eset) != len(Fset):
        return False
    for m in enumerate_cone_maps(depth, d, scheme, colour_e, colour_f, cap):
        if {m[x] for x in Eset} == Fset:
            return True
    return False
