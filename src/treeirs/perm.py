"""Exact engine for permutations and fully-enumerated groups of small degree.

Conventions used throughout the package:

* A permutation of degree ``n`` is a tuple ``p`` of length ``n``; ``p[x]`` is
  the image of the point ``x`` under the *right* action, written ``x . p``.
* ``compose(p, q)`` applies ``p`` first: ``x . compose(p, q) == (x . p) . q``.
* The hot loops build their products, conjugates and restrictions with one
  kernel, ``composer(p)``: the map q -> compose(p, q), which reads q at the
  points of p in one C call (``operator.itemgetter(*p)``).  Its one guard
  covers the tuples of length 0 and 1, for which ``itemgetter`` raises or
  returns a bare entry instead of a tuple.  A loop with a fixed factor
  builds that factor's getter once, and ``conjugator(g)`` inverts g once.
  A single ``conjugate`` keeps its own loop, cheaper than inverting g.
* A tree level is numbered cone-major, so each subtree is a block of
  consecutive points.  ``wreath_split`` reads a permutation in its wreath
  coordinates, block by block, and ``wreath_join`` builds one from them.
* Every group here is given by generators and materialised by breadth-first
  closure.  Nothing is meant to scale past degree 7; there is deliberately no
  stabilizer-chain machinery.  Closure stops at ``DEFAULT_CAP`` elements;
  only ``close``, ``GeneratedGroup`` and the group-file loaders take another
  cap, which ``classify --cap`` reaches.
* Subgroups are found by one double-coset join walk (``_join_walk``), class
  by class: ``class_records``, ``enumerate_subgroups``, ``subgroups_of`` and
  ``overgroups_of_cycle`` all read its classes.
* No command writes a group file: ``group_to_json`` is read by acceptance
  criterion C11, which writes its ``classify`` input with it.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from collections import deque
from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import NamedTuple

Perm = tuple[int, ...]

DEFAULT_CAP = 10_000


class ClosureExceedsCap(RuntimeError):
    """Closure produced more elements than the caller's cap allows."""


class DegreeTooLarge(ValueError):
    """Exhaustive enumeration was requested past the supported degree."""


class NotTransitive(ValueError):
    """A block-system computation needs a transitive action."""


# ---------------------------------------------------------------------------
# elementary permutation calculus
# ---------------------------------------------------------------------------

def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


def composer(p: tuple[int, ...]):
    """The map q -> (q[p[0]], q[p[1]], ...), compose(p, q) with no degree
    check, for any tuple of points ``p``.  ``itemgetter`` needs at least
    two points to return a tuple, so shorter ``p`` get a comprehension."""
    if len(p) > 1:
        return itemgetter(*p)
    return lambda q: tuple([q[x] for x in p])


def compose(p: Perm, q: Perm) -> Perm:
    """p then q, so the image of x is q[p[x]]."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return composer(p)(q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(p: Perm, g: Perm) -> Perm:
    """g^-1 p g  (apply g^-1, then p, then g)."""
    gp = [0] * len(p)
    for x, y in enumerate(g):
        gp[y] = g[p[x]]
    return tuple(gp)


def conjugator(g: Perm):
    """The map p -> conjugate(p, g), inverting g once: g^-1 p g is
    compose(g^-1, compose(p, g))."""
    after = composer(inverse(g))
    return lambda p: after(composer(p)(g))


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    lens = []
    for x in range(len(p)):
        if seen[x]:
            continue
        m = 0
        y = x
        while not seen[y]:
            seen[y] = True
            y = p[y]
            m += 1
        lens.append(m)
    return tuple(sorted(lens))


def is_even(p: Perm) -> bool:
    return sum(m - 1 for m in cycle_type(p)) % 2 == 0


def from_cycles(degree: int, *cycles) -> Perm:
    """Build a permutation from point cycles, e.g. from_cycles(4, (0, 1), (2, 3))."""
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            images[a] = b
    p = tuple(images)
    if not is_perm(p):
        raise ValueError(f"cycles overlap: {cycles}")
    return p


def restrict(p: Perm, points: tuple[int, ...]) -> Perm:
    """Restriction of p to an invariant point set, reindexed along sorted(points)."""
    pos = {x: i for i, x in enumerate(points)}
    return tuple(pos[p[x]] for x in points)


def wreath_split(p: Perm, block: int):
    """Wreath coordinates ``(top, base)`` of p over blocks of ``block``
    consecutive points: the point j*block + i goes to top[j]*block +
    base[j][i].  None when some block is not carried onto a whole block."""
    top, base = [], []
    for start in range(0, len(p), block):
        lo = p[start] - p[start] % block
        b = tuple([y - lo for y in p[start:start + block]])
        if not is_perm(b):
            return None
        top.append(lo // block)
        base.append(b)
    return tuple(top), tuple(base)


def wreath_join(top, base) -> Perm:
    """The permutation with wreath coordinates ``(top, base)``, over blocks
    of ``len(base[0])`` points (none when ``top`` is empty)."""
    block = len(base[0]) if base else 0
    return tuple([t * block + x for t, b in zip(top, base) for x in b])


def close(generators, cap: int = DEFAULT_CAP, *, degree: int | None = None) -> tuple[Perm, ...]:
    """Breadth-first closure from the identity, multiplying by generators in order.

    The returned tuple is in first-discovery order, so it is deterministic for
    a fixed generator sequence.
    """
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("empty generating set needs an explicit degree")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators of mixed degree")
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")
    e = identity(degree)
    out = [e]
    seen = {e}
    queue = deque([e])
    while queue:
        times_x = composer(queue.popleft())
        for g in gens:
            y = times_x(g)
            if y not in seen:
                if len(out) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap={cap}")
                seen.add(y)
                out.append(y)
                queue.append(y)
    return tuple(out)


# ---------------------------------------------------------------------------
# generated groups
# ---------------------------------------------------------------------------

def memoized(table: dict, key, build):
    """``table[key]``, set to ``build()`` on first use.  A ``build`` that
    raises stores nothing.  The backing store of the per-object memos
    (``GeneratedGroup.memo``, ``irs.ConjInvariantMeasure.memo``)."""
    if key not in table:
        table[key] = build()
    return table[key]


class GeneratedGroup:
    """A permutation group held by generators, with a fully cached element list.

    Immutable after construction; the element closure is computed lazily and
    at most once, and so is anything kept through ``memo``.
    """

    __slots__ = ("degree", "generators", "cap", "_elements", "_eset", "_memo")

    def __init__(self, degree: int, generators, cap: int = DEFAULT_CAP, _elements=None):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        self.cap = cap
        self._elements = tuple(_elements) if _elements is not None else None
        self._eset = frozenset(self._elements) if self._elements is not None else None
        self._memo = None

    @property
    def elements(self) -> tuple[Perm, ...]:
        if self._elements is None:
            self._elements = close(self.generators, self.cap, degree=self.degree)
            self._eset = frozenset(self._elements)
        return self._elements

    @property
    def element_set(self) -> frozenset:
        self.elements
        return self._eset

    @property
    def order(self) -> int:
        return len(self.elements)

    def memo(self, key, build):
        """``build()``, computed once per ``key`` and kept on this group.

        For data derived from the group alone, which cannot go stale because
        the group never changes; it is freed with the group.  Callers keep
        their keys distinct and bounded.
        """
        if self._memo is None:
            self._memo = {}
        return memoized(self._memo, key, build)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.element_set

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratedGroup)
                and self.degree == other.degree
                and self.element_set == other.element_set)

    def __hash__(self) -> int:
        return hash((self.degree, self.element_set))

    def __repr__(self) -> str:
        return f"GeneratedGroup(degree={self.degree}, order={self.order})"

    def is_subgroup_of(self, other: "GeneratedGroup") -> bool:
        return self.degree == other.degree and self.element_set <= other.element_set

    def restricted(self, points) -> "GeneratedGroup":
        """The action on an invariant point set, on {0..len(points)-1},
        generated by the restricted generators and closed only when its
        elements are asked for."""
        pts = tuple(sorted(points))
        return GeneratedGroup(len(pts), [restrict(g, pts) for g in self.generators],
                              self.cap)


def symmetric_group(n: int) -> GeneratedGroup:
    if n <= 1:
        return GeneratedGroup(max(n, 1), [], _elements=[identity(max(n, 1))])
    gens = [from_cycles(n, (0, 1))]
    if n >= 3:
        gens.append(from_cycles(n, tuple(range(n))))
    return GeneratedGroup(n, gens)


def product_of_symmetric(sizes) -> GeneratedGroup:
    """Sym(n1) x Sym(n2) x ... acting on consecutive point blocks."""
    degree = sum(sizes)
    gens = []
    off = 0
    for n in sizes:
        if n >= 2:
            gens.append(from_cycles(degree, (off, off + 1)))
        if n >= 3:
            gens.append(from_cycles(degree, tuple(range(off, off + n))))
        off += n
    return GeneratedGroup(degree, gens)


# ---------------------------------------------------------------------------
# orbits, blocks, rigid stabilizers
# ---------------------------------------------------------------------------

def orbits(G: GeneratedGroup) -> tuple[tuple[int, ...], ...]:
    """Transitive components, each sorted, ordered by smallest point; kept
    on ``G.memo``."""
    return G.memo("perm.orbits", lambda: _orbits(G))


def _orbits(G: GeneratedGroup) -> tuple[tuple[int, ...], ...]:
    seen = [False] * G.degree
    out = []
    for x in range(G.degree):
        if seen[x]:
            continue
        orb = [x]
        seen[x] = True
        queue = deque([x])
        while queue:
            y = queue.popleft()
            for g in G.generators:
                z = g[y]
                if not seen[z]:
                    seen[z] = True
                    orb.append(z)
                    queue.append(z)
        out.append(tuple(sorted(orb)))
    return tuple(out)


class BlockSystem:
    """A nontrivial invariant partition of a transitive component."""

    __slots__ = ("blocks", "block_size")

    def __init__(self, blocks):
        self.blocks = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
        self.block_size = len(self.blocks[0])

    def __repr__(self):
        return f"BlockSystem(size={self.block_size}, blocks={self.blocks})"


def _min_block_with(G: GeneratedGroup, a: int, b: int):
    """Classes of the minimal G-congruence identifying the points a and b."""
    parent = list(range(G.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return rx, ry

    queue = deque()
    first = union(a, b)
    if first:
        queue.append(first)
    while queue:
        x, y = queue.popleft()
        for g in G.generators:
            merged = union(g[x], g[y])
            if merged:
                queue.append(merged)
    classes = {}
    for x in range(G.degree):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def minimal_blocks(G: GeneratedGroup) -> BlockSystem | None:
    """A nontrivial block system of minimal block size, or None if primitive.

    Deterministic: block seeds (0, b) are tried with b ascending and the
    smallest resulting nontrivial block wins.  The answer is kept on
    ``G.memo``; ``NotTransitive`` keeps nothing.  For the action on an
    invariant point set, pass ``G.restricted(points)``.
    """
    return G.memo("perm.minimal_blocks", lambda: _minimal_blocks(G))


def _minimal_blocks(G: GeneratedGroup) -> BlockSystem | None:
    n = G.degree
    if len(orbits(G)) != 1:
        raise NotTransitive(f"group is not transitive on {tuple(range(n))}")
    best = None
    for b in range(1, n):
        classes = _min_block_with(G, 0, b)
        size = len(classes[0]) if all(len(c) == len(classes[0]) for c in classes) else None
        if size is None or size in (1, n):
            continue
        if best is None or size < best.block_size:
            best = BlockSystem(classes)
    return best


def rigid_stabilizer(G: GeneratedGroup, U) -> GeneratedGroup:
    """Subgroup of elements fixing every point outside U."""
    Uset = set(U)
    outside = [x for x in range(G.degree) if x not in Uset]
    els = tuple(sorted(p for p in G.elements if all(p[x] == x for x in outside)))
    return GeneratedGroup(G.degree, els or [identity(G.degree)], G.cap, _elements=els)


def contains_alt_on(G: GeneratedGroup, U) -> bool:
    """Does the rigid stabilizer of U, restricted to U, contain Alt(U)?

    Vacuously true for |U| <= 2; for U the whole domain the rigid stabilizer
    is G itself.  Instead of testing membership of every even permutation we
    count the even elements of the rigid stabilizer: its elements fix every
    point outside U, so restriction to U is injective and keeps parity, and
    the count equals |U|!/2 exactly when the restriction contains Alt(U).
    A group of order below |U|!/2 is refused before the rigid stabilizer is
    built.  Other answers are kept on ``G.memo``, keyed by sorted U.
    """
    U = tuple(sorted(U))
    if len(U) <= 2:
        return True
    target = factorial(len(U)) // 2
    if G.order < target:
        return False

    def build():
        R = G if len(U) == G.degree else rigid_stabilizer(G, U)
        return R.order >= target and sum(1 for h in R.elements if is_even(h)) == target

    return G.memo(("perm.contains_alt_on", U), build)


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------

def _double_cosets(H_gens, H_elements, ambient_elements):
    """The cosets g H and double cosets H g H of the ambient group, as
    ``(coset_of, firsts, first_coset)``.

    One pass over the ambient labels every element with its coset
    {compose(g, h) : h in H}, numbered in order of first element: one product
    per ambient element.  ``coset_of`` maps each ambient element to its
    coset's number and ``firsts[i]`` is coset i's first element.  Composing
    with a on the left carries the coset of g onto that of compose(a, g), so
    the orbits of H's generators acting this way on the cosets are the double
    cosets H g H (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, section 4.6), found with |H_gens| products per coset.
    ``first_coset[i]`` is the number of the first coset of coset i's double
    coset, whose first element is the double coset's first element.
    """
    # keyed by the ambient's own tuples, so each product is dropped once stored
    coset_of = dict.fromkeys(ambient_elements)
    firsts = []
    for g in ambient_elements:
        if coset_of[g] is None:
            i = len(firsts)
            firsts.append(g)
            for y in map(composer(g), H_elements):
                coset_of[y] = i
    steps = [composer(a) for a in H_gens]
    first_coset = [None] * len(firsts)
    for i, g in enumerate(firsts):
        if first_coset[i] is not None:
            continue
        first_coset[i] = i
        stack = [g]
        while stack:
            x = stack.pop()
            for step in steps:
                j = coset_of[step(x)]
                if first_coset[j] is None:
                    first_coset[j] = i
                    stack.append(firsts[j])
    return coset_of, firsts, first_coset


def conjugacy_orbit(els, generators) -> dict[tuple[Perm, ...], Perm]:
    """The conjugates of the subgroup ``els`` under the group that
    ``generators`` generate, each as a sorted element tuple, mapped to an
    element g with conjugate(h, g) running over it as h runs over ``els``.

    Breadth-first over conjugation by the generators alone, which reaches the
    whole orbit because the group is finite: |generators| |orbit| |els|
    conjugations in all.  Each is conjugate(h, s) = compose(s^-1,
    compose(h, s)), two C calls through getters built once: one per
    generator's inverse for the walk, one per element h for its member's
    pass.  Candidates are compared as element sets, and only a new member
    is sorted.  ``els`` itself maps to the identity, and a member first
    reached from ``cur`` by s maps to compose(orbit[cur], s).
    """
    start = tuple(sorted(els))
    orbit = {start: identity(len(start[0]))}
    seen = {frozenset(start)}
    steps = [(s, composer(inverse(s))) for s in generators]
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        times = list(map(composer, cur))  # compose(h, .) for each h in cur
        for s, after in steps:
            nxt = frozenset([after(h_s(s)) for h_s in times])
            if nxt not in seen:
                seen.add(nxt)
                member = tuple(sorted(nxt))
                orbit[member] = compose(orbit[cur], s)
                queue.append(member)
    return orbit


def _join_walk(seed_gens, ambient_elements, degree: int, conj_gens):
    """One subgroup per conjugacy class of the ambient group's subgroups
    that contain a conjugate of <seed_gens>, each containing <seed_gens>.

    Works up from <seed_gens> by joining each subgroup H found with one
    element per double coset H g H outside H: <H, a g b> == <H, g> for a, b
    in H, so the first elements of the double cosets (``_double_cosets``,
    the orbits of H's generators on the cosets of H) cover every join, and
    each subgroup over the seed is reached through a chain of joins.  Each
    join at least doubles the order, so a subgroup of order m is reached
    with at most log2(m) generators.
    Returns (generators, orbit) for each subgroup registered, in order of
    discovery; the orbit is its conjugacy orbit under <conj_gens> as
    ``conjugacy_orbit`` gives it, mapping each member, a sorted element
    tuple, to a conjugator carrying the registered subgroup onto it.  A
    join is skipped once any conjugate of it is known, so one subgroup per
    conjugacy class is registered.

    ``conj_gens`` must generate the ambient group.  Only one double coset
    per orbit of the normalizer N(H) is joined: for n in N(H), conjugation
    by n carries H g H onto H g^n H and <H, g^n> == <H, g>^n, a conjugate of
    a join already made (``_normalizer_orbits``).  The joins skipped are
    exactly those that would find only known subgroups, so the subgroups
    registered, their order and their generators are the same as with every
    join.
    """
    found = []
    known = set()
    todo = deque()

    def register(gens, eset):
        orbit = conjugacy_orbit(eset, conj_gens)
        known.update(frozenset(els) for els in orbit)
        found.append((gens, orbit))
        todo.append((gens, eset))

    ambient = frozenset(ambient_elements)
    alt = None
    if degree >= 5 and len(ambient) == factorial(degree):
        alt = frozenset(p for p in ambient_elements if is_even(p))
    register(seed_gens, frozenset(close(seed_gens, degree=degree)))
    while todo:
        gens, eset = todo.popleft()
        H = tuple(eset)
        cosets = _double_cosets(gens, H, ambient_elements)
        _, firsts, first_coset = cosets
        reps = [i for i, f in enumerate(first_coset) if f == i]
        normalizer = _normalizer_gens(gens, eset, cosets, conj_gens, ambient, alt)
        for i in _normalizer_orbits(normalizer, cosets, reps):
            g = firsts[i]
            if g in eset:
                continue
            joined = _extend(H, gens + (g,), ambient, alt)
            if joined not in known:
                register(gens + (g,), joined)
    return found


def _normalizer_gens(gens, eset, cosets, whole_gens, ambient: frozenset,
                     alt: frozenset | None):
    """Generators of the normalizer N(H) of H = <gens> (element set
    ``eset``) in the ambient group, modulo H.

    N(H) is a union of cosets g H, since g h normalizes H when g does, so
    one element per coset is tested, the first (``cosets`` is
    ``_double_cosets``' result for H): g normalizes H iff g conjugates each
    of H's generators a into H, that is, iff compose(a, g) lies in g H,
    read off the coset labels with one product.  When every coset passes, H is
    normal and ``whole_gens``, the ambient's generators, are returned.
    Otherwise the passing elements are taken greedily, each one not yet in
    the group generated so far, which ``_extend`` grows coset by coset.
    """
    coset_of, firsts, _ = cosets
    steps = [composer(a) for a in gens]  # compose(a, .)
    normalizing = [g for i, g in enumerate(firsts)
                   if all(coset_of[a_times(g)] == i for a_times in steps)]
    if len(normalizing) == len(firsts):
        return tuple(whole_gens)
    span, extra = eset, ()
    for g in normalizing:
        if g not in span:
            extra += (g,)
            span = _extend(tuple(span), gens + extra, ambient, alt)
    return extra


def _normalizer_orbits(normalizer, cosets, reps) -> list[int]:
    """The first of ``reps`` in each orbit of <normalizer> on the double
    cosets H g H, in order.

    ``cosets`` is ``_double_cosets``' result for H and ``reps`` numbers the
    first coset of each double coset.  Each element of ``normalizer``
    normalizes H, so conjugating by it permutes the double cosets: one
    element of each is conjugated to find its image, and union-find merges
    the orbits, keeping the earliest double coset as root.
    """
    coset_of, firsts, first_coset = cosets
    root = {i: i for i in reps}

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for n in normalizer:
        by_n = conjugator(n)
        for i in reps:
            a, b = find(i), find(first_coset[coset_of[by_n(firsts[i])]])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [i for i in reps if find(i) == i]


def _extend(H, gens, ambient: frozenset, alt: frozenset | None) -> frozenset:
    """The element set of <gens>, where ``gens`` extends a generating set of
    the subgroup whose elements are the tuple ``H``, built coset by coset as
    in Dimino's algorithm.

    The result is kept as a union of cosets r H = {compose(r, h) : h in H},
    each built by one ``composer(r)`` mapped over H.  Only the
    representatives r are multiplied by the generators, on the left: when
    compose(s, r) lies outside the union, its whole coset joins with it as
    representative.  Once every representative has been tried, the union
    holds H and is closed under left multiplication by every generator (if
    compose(s, r) = compose(r', h'), then compose(s, compose(r, h)) lies in
    r' H), so it is <gens>.  Each generator's product is built by one
    getter, made once per call.

    ``ambient`` is the element set of a group containing ``gens``.  Once the
    union holds more than half of it, <gens> is the whole ambient
    (its order divides |ambient|, by Lagrange), which is returned at once.

    ``alt``, when not None, is the element set of Alt(n), and ``ambient``
    that of Sym(n), for n >= 5.  Then the cut comes sooner, once the union holds
    more than (n-1)! elements: <gens> has index below n there, and for
    n >= 5 the only such subgroups of Sym(n) are Alt(n) and Sym(n) (Dixon &
    Mortimer, *Permutation Groups*, 1996, ch. 5).  So <gens> is ``alt`` when
    every generator is even and ``ambient`` otherwise.
    """
    elements = set(H)
    steps = [composer(s) for s in gens]  # compose(s, .)
    reps = [H[0]]  # any element of H represents H itself
    limit = len(ambient) // 2 if alt is None else 2 * len(alt) // len(H[0])
    for r in reps:
        for s_times in steps:
            t = s_times(r)
            if t not in elements:
                elements.update(map(composer(t), H))
                if len(elements) > limit:
                    return alt if alt is not None and all(map(is_even, gens)) else ambient
                reps.append(t)
    return frozenset(elements)


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups of ``ambient``, the group it was
    walked in.

    ``members`` are the pairs (H, g) in sorted element order.  Each H holds
    its sorted element list and generators conjugated from those of the
    subgroup the walk started from; g is an element of the ambient carrying
    the least member R = members[0][0] onto H, H = {conjugate(r, g) : r in
    R}, and the identity for R.  ``irs`` checks each g as it reads it.
    """

    ambient: GeneratedGroup
    members: tuple[tuple[GeneratedGroup, Perm], ...]


def _filed_members(ambient: GeneratedGroup, gens, orbit, c: int) -> tuple:
    """The members of a class record, from a ``conjugacy_orbit`` walked from
    the subgroup <gens>, filed in the ambient's class table under each
    member's element set.  Each member carries ``gens`` conjugated onto it,
    held as the member's own element objects, and the walk's conjugator
    re-based onto the least member.  A conjugate missing from its member is
    a fault of the walk (``RuntimeError``, naming the class as number
    ``c``), and nothing is filed.  The table holds members, not records,
    so it makes no reference cycle through the ambient, which is then freed
    as soon as it is dropped."""
    items = sorted(orbit.items())
    rebase = composer(inverse(items[0][1]))
    members = []
    for i, (els, g) in enumerate(items):
        conjugates = []
        for a in gens:
            a_g = conjugate(a, g)
            k = bisect_left(els, a_g)
            if k == len(els) or els[k] != a_g:
                raise RuntimeError(f"no conjugator carries subgroup 0 of class {c} "
                                   f"onto subgroup {i} of class {c}")
            conjugates.append(els[k])
        members.append((GeneratedGroup(ambient.degree, conjugates, _elements=els), rebase(g)))
    members = tuple(members)
    table = ambient.memo("perm.classes", dict)
    for H, _ in members:
        table[H.element_set] = members
    return members


def conjugacy_class(H: GeneratedGroup, ambient: GeneratedGroup, c: int = 0) -> SubgroupClass:
    """The record of the conjugacy class of H, a subgroup of ``ambient``.

    The ambient keeps one table of class members on its memo, keyed by
    member element set: at most one entry per subgroup, freed with the
    ambient.  Only a miss walks the class, by ``conjugacy_orbit`` over
    ``ambient.generators``, which must generate it; every member then
    carries H's generators conjugated, and a faulty walk raises
    ``RuntimeError`` with the class called class ``c``.  ``class_records``
    files every class it walks in the same table."""
    members = ambient.memo("perm.classes", dict).get(H.element_set)
    if members is None:
        members = _filed_members(ambient, H.generators,
                                 conjugacy_orbit(H.elements, ambient.generators), c)
    return SubgroupClass(ambient, members)


def class_records(G: GeneratedGroup) -> tuple[SubgroupClass, ...]:
    """One record per conjugacy class of subgroups of an explicitly
    enumerable group G, in the join walk's order of discovery, walked over
    G's elements in G's element order with G's generators as conjugators,
    and filed in G's class table (``conjugacy_class``).  Every member
    carries the walk's short generating set, conjugated from the subgroup
    the walk registered.  A G of more than ``DEFAULT_CAP`` elements is
    refused up front."""
    if G.order > DEFAULT_CAP:
        raise ClosureExceedsCap(f"ambient of order {G.order} exceeds cap={DEFAULT_CAP}")
    return tuple(SubgroupClass(G, _filed_members(G, gens, orbit, c)) for c, (gens, orbit)
                 in enumerate(_join_walk((), G.elements, G.degree, G.generators)))


def _walk_symmetric(degree: int) -> tuple[SubgroupClass, ...]:
    elements = tuple(sorted(itertools.permutations(range(degree))))
    return class_records(GeneratedGroup(degree, symmetric_group(degree).generators,
                                        _elements=elements))


_kept_symmetric_records = lru_cache(maxsize=None)(_walk_symmetric)


def symmetric_class_records(degree: int) -> tuple[SubgroupClass, ...]:
    """``class_records`` of Sym(degree), for 1 <= degree <= 7, walked over
    its elements in sorted order.  Degrees up to 6 are walked once and kept,
    for ``enumerate_subgroups`` and ``cli.class_tables`` alike.  Degree 7
    has 96 classes and 11,300 subgroups and takes seconds; it is walked on
    every call and kept nowhere."""
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree > 7:
        raise DegreeTooLarge("class-level subgroup enumeration supports degree <= 7")
    return _kept_symmetric_records(degree) if degree <= 6 else _walk_symmetric(degree)


def _by_order(groups) -> tuple[GeneratedGroup, ...]:
    """``groups`` by order, then by sorted element list."""
    return tuple(sorted(groups, key=lambda G: (G.order, G.elements)))


@lru_cache(maxsize=None)
def enumerate_subgroups(degree: int):
    """All subgroups of Sym(degree), each exactly once, plus conjugacy classes.

    Returns (subgroups, classes): subgroups is a tuple of GeneratedGroup in a
    deterministic order (by order, then by sorted element list); classes is a
    tuple of tuples of indices into it, one per conjugacy class.  Each
    subgroup carries the join walk's short generating set (none for the
    trivial group, at most log2 of the order), conjugated from its class
    representative, and its sorted element list.
    """
    if degree > 6:
        raise DegreeTooLarge("exhaustive subgroup enumeration supports degree <= 6")
    records = symmetric_class_records(degree)
    subgroups = _by_order(H for rec in records for H, _ in rec.members)
    index = {H.elements: i for i, H in enumerate(subgroups)}
    classes = tuple(tuple(sorted(index[H.elements] for H, _ in rec.members)) for rec in records)
    return subgroups, tuple(sorted(classes, key=lambda c: c[0]))


def subgroups_of(G: GeneratedGroup) -> tuple[GeneratedGroup, ...]:
    """All subgroups of an explicitly enumerable ambient group, by order,
    then by sorted element list: the members of ``class_records(G)``, which
    refuses an ambient of more than ``DEFAULT_CAP`` elements up front."""
    return _by_order(H for rec in class_records(G) for H, _ in rec.members)


def overgroups_of_cycle(degree: int) -> tuple[GeneratedGroup, ...]:
    """Every subgroup of Sym(degree) containing the standard degree-cycle,
    by order, then by sorted element list.

    The join walk from the cycle registers one subgroup per conjugacy class
    over it, and each class's members that contain the cycle are kept, each
    carrying the registered generators conjugated by its orbit conjugator.
    Every transitive subgroup of prime degree p contains a p-cycle (Cauchy),
    and all p-cycles are conjugate, so for prime degree this interval carries
    a representative of every transitive conjugacy class.  Degrees with
    degree! > ``DEFAULT_CAP`` are refused up front.
    """
    if factorial(degree) > DEFAULT_CAP:
        raise ClosureExceedsCap(f"|Sym({degree})| exceeds cap={DEFAULT_CAP}")
    ambient = tuple(sorted(itertools.permutations(range(degree))))
    cycle = from_cycles(degree, tuple(range(degree)))
    walk = _join_walk((cycle,), ambient, degree, symmetric_group(degree).generators)
    return _by_order(GeneratedGroup(degree, [conjugate(a, g) for a in gens], _elements=els)
                     for gens, orbit in walk for els, g in orbit.items()
                     if _holds(els, cycle))


def _holds(els: tuple[Perm, ...], p: Perm) -> bool:
    """Does the sorted element tuple ``els`` hold p?"""
    k = bisect_left(els, p)
    return k < len(els) and els[k] == p


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------

def group_to_json(G: GeneratedGroup) -> dict:
    return {"degree": G.degree, "generators": [list(g) for g in G.generators]}


def perms_from_json(data, size_key: str, offset: int = 0) -> tuple[int, list[Perm]]:
    """``(size, generators)`` of a JSON object ``{size_key: size, "generators":
    [...]}`` whose generators are permutations of ``range(size + offset)``.

    Anything else raises ``ValueError``, so a malformed input file is refused
    as bad input rather than failing partway with a ``KeyError``.  Sizes and
    points must be JSON integers: ``2.9`` or ``true`` is refused, not rounded.
    """
    if not isinstance(data, dict) or size_key not in data or "generators" not in data:
        raise ValueError(f'expected a JSON object with keys "{size_key}" '
                         f'and "generators"')
    size = data[size_key]
    if not _is_json_int(size):
        raise ValueError(f'"{size_key}" must be an integer, not {size!r}')
    try:
        gens = [tuple(g) for g in data["generators"]]
    except TypeError as exc:
        raise ValueError(f"malformed generators: {exc}") from None
    degree = size + offset
    for g in gens:
        if len(g) != degree or not all(map(_is_json_int, g)) or not is_perm(g):
            raise ValueError(f"bad generator for degree {degree}: {g}")
    return size, gens


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def group_from_json(data, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    degree, gens = perms_from_json(data, "degree")
    if degree < 1:
        raise ValueError(f"group degree must be >= 1, not {degree}")
    return GeneratedGroup(degree, gens, cap)


def load_group(path, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh), cap)
