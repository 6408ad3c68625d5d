"""Exact engine for permutations and fully-enumerated groups of small degree.

Conventions used throughout the package:

* A permutation of degree ``n`` is a tuple ``p`` of length ``n``; ``p[x]`` is
  the image of the point ``x`` under the *right* action, written ``x . p``.
* ``compose(p, q)`` applies ``p`` first: ``x . compose(p, q) == (x . p) . q``.
* Every group here is given by generators and materialised by breadth-first
  closure.  Nothing is meant to scale past degree 7; there is deliberately no
  stabilizer-chain machinery.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from collections import deque
from functools import lru_cache
from math import factorial

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


def compose(p: Perm, q: Perm) -> Perm:
    """p then q, so the image of x is q[p[x]]."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple([q[x] for x in p])


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
        x = queue.popleft()
        for g in gens:
            y = tuple([g[i] for i in x])
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

    def conjugated(self, g: Perm) -> "GeneratedGroup":
        els = tuple(sorted(conjugate(h, g) for h in self.elements))
        return GeneratedGroup(self.degree, [conjugate(h, g) for h in self.generators] or els,
                              self.cap, _elements=els)

    def restricted(self, points) -> "GeneratedGroup":
        """The action on an invariant point set, on {0..len(points)-1},
        generated by the restricted generators."""
        pts = tuple(sorted(points))
        els = tuple(sorted({restrict(p, pts) for p in self.elements}))
        return GeneratedGroup(len(pts), [restrict(g, pts) for g in self.generators],
                              self.cap, _elements=els)


def symmetric_group(n: int, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    if n <= 1:
        return GeneratedGroup(max(n, 1), [], cap, _elements=[identity(max(n, 1))])
    gens = [from_cycles(n, (0, 1))]
    if n >= 3:
        gens.append(from_cycles(n, tuple(range(n))))
    return GeneratedGroup(n, gens, cap)


def alternating_group(n: int, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    if n <= 2:
        return GeneratedGroup(max(n, 1), [], cap, _elements=[identity(max(n, 1))])
    gens = [from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 2)]
    return GeneratedGroup(n, gens, cap)


def product_of_symmetric(sizes, cap: int = DEFAULT_CAP) -> GeneratedGroup:
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
    return GeneratedGroup(degree, gens, cap)


# ---------------------------------------------------------------------------
# orbits, blocks, rigid stabilizers
# ---------------------------------------------------------------------------

def orbits(G: GeneratedGroup) -> tuple[tuple[int, ...], ...]:
    """Transitive components, each sorted, ordered by smallest point."""
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


def _min_block_with(G: GeneratedGroup, component, a: int, b: int):
    """Classes of the minimal G-congruence on component identifying a and b."""
    parent = {x: x for x in component}

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
    for x in component:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def minimal_blocks(G: GeneratedGroup, component=None) -> BlockSystem | None:
    """A nontrivial block system of minimal block size, or None if primitive.

    Deterministic: block seeds (component[0], b) are tried with b ascending and
    the smallest resulting nontrivial block wins.
    """
    if component is None:
        component = tuple(range(G.degree))
    component = tuple(sorted(component))
    orbs = [o for o in orbits(G) if set(o) & set(component)]
    if len(orbs) != 1 or set(orbs[0]) != set(component):
        raise NotTransitive(f"group is not transitive on {component}")
    n = len(component)
    if n == 1:
        return None
    a = component[0]
    best = None
    for b in component[1:]:
        classes = _min_block_with(G, component, a, b)
        size = len(classes[0]) if all(len(c) == len(classes[0]) for c in classes) else None
        if size is None or size in (1, n):
            continue
        if best is None or size < best.block_size:
            best = BlockSystem(classes)
    return best


def is_primitive(G: GeneratedGroup, component=None) -> bool:
    return minimal_blocks(G, component) is None


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
    built.
    """
    U = tuple(sorted(U))
    if len(U) <= 2:
        return True
    target = factorial(len(U)) // 2
    if G.order < target:
        return False
    R = G if len(U) == G.degree else rigid_stabilizer(G, U)
    if R.order < target:
        return False
    return sum(1 for h in R.elements if is_even(h)) == target


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------

def _double_coset_reps(H_gens, ambient_elements):
    """Representatives of H\\G/H, in ambient element order.

    H is given by generators: the double coset H g H is the closure of {g}
    under left and right multiplication by them, found breadth-first, so the
    whole sweep costs 2 |H_gens| products per ambient element.
    """
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


def conjugacy_orbit(els, generators, carry=()) -> dict[tuple[Perm, ...], tuple[Perm, ...]]:
    """The conjugates of the subgroup ``els`` under the group that
    ``generators`` generate, each as a sorted element tuple, mapped to the
    tuple ``carry`` conjugated by the same element.

    Breadth-first over conjugation by the generators alone, which reaches the
    whole orbit because the group is finite: |generators| |orbit| |els|
    conjugations in all.  ``carry`` holds elements of ``els`` (say, its
    generators, and then each member's value generates that member); each
    value holds the member's own element objects, so it costs no memory
    beyond its tuple.
    """
    def shared(member, perms):
        return tuple(member[bisect_left(member, p)] for p in perms)

    start = tuple(sorted(els))
    if not set(carry) <= set(start):
        raise ValueError("carry must hold elements of els")
    orbit = {start: shared(start, carry)}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for g in generators:
            nxt = tuple(sorted(conjugate(h, g) for h in cur))
            if nxt not in orbit:
                orbit[nxt] = shared(nxt, [conjugate(c, g) for c in orbit[cur]])
                queue.append(nxt)
    return orbit


def _join_walk(seed_gens, ambient_elements, degree: int, cap: int, conj_gens=()):
    """Every subgroup of the ambient group that contains <seed_gens>.

    Works up from <seed_gens> by joining each subgroup H found with one
    element per double coset H g H outside H: <H, a g b> == <H, g> for a, b
    in H, so the double coset representatives (``_double_coset_reps``, walked
    from H's generators) cover every join, and each subgroup over the seed is
    reached through a chain of joins.  Each join at least doubles the order,
    so a subgroup of order m is reached with at most log2(m) generators.
    Returns (generators, orbit) for each subgroup registered, in order of
    discovery; the orbit is its conjugacy orbit under <conj_gens>
    (``conjugacy_orbit``), mapping each member, a sorted element tuple, to
    the generators conjugated along with it.  With no ``conj_gens`` the orbit
    is the subgroup alone and every subgroup is registered; with them one
    subgroup per conjugacy class is, because a join is skipped once any
    conjugate of it is known.
    """
    found = []
    known = set()
    todo = deque()

    def register(gens, eset):
        orbit = conjugacy_orbit(eset, conj_gens, gens)
        known.update(frozenset(els) for els in orbit)
        found.append((gens, orbit))
        todo.append((gens, eset))

    ambient = frozenset(ambient_elements)
    alt = None
    if degree >= 5 and len(ambient) == factorial(degree):
        alt = frozenset(p for p in ambient_elements if is_even(p))
    register(seed_gens, frozenset(close(seed_gens, cap, degree=degree)))
    while todo:
        gens, eset = todo.popleft()
        H = tuple(eset)
        for g in _double_coset_reps(gens, ambient_elements):
            if g in eset:
                continue
            joined = _extend(H, gens + (g,), cap, ambient, alt)
            if joined not in known:
                register(gens + (g,), joined)
    return found


def _extend(H, gens, cap: int, ambient: frozenset, alt: frozenset | None = None) -> frozenset:
    """The element set of <gens>, where ``gens`` extends a generating set of
    the subgroup whose elements are the tuple ``H``, built coset by coset as
    in Dimino's algorithm.

    The result is kept as a union of cosets H r = {compose(h, r) : h in H}.
    Only the representatives r are multiplied by the generators: when
    compose(r, s) lies outside the union, its whole coset joins with it as
    representative.  Once every representative has been tried, the union
    holds H and is closed under multiplication by every generator (if
    compose(r, s) = compose(h', r'), then compose(compose(h, r), s) lies in
    H r'), so it is <gens>.  Cosets join whole, so this raises
    ``ClosureExceedsCap`` exactly when ``close`` would: when the order
    exceeds ``cap``.

    ``ambient`` is the element set of a group containing ``gens``.  Once the
    union holds more than half of it, <gens> is the whole ambient
    (its order divides |ambient|, by Lagrange), which is returned at once,
    after the same cap test.

    ``alt``, when given, is the element set of Alt(n), and ``ambient`` that
    of Sym(n), for n >= 5.  Then the cut comes sooner, once the union holds
    more than (n-1)! elements: <gens> has index below n there, and for
    n >= 5 the only such subgroups of Sym(n) are Alt(n) and Sym(n) (Dixon &
    Mortimer, *Permutation Groups*, 1996, ch. 5).  So <gens> is ``alt`` when
    every generator is even and ``ambient`` otherwise, again after the cap
    test.
    """
    elements = set(H)
    reps = [H[0]]  # any element of H represents H itself
    limit = len(ambient) // 2 if alt is None else 2 * len(alt) // len(H[0])
    for r in reps:
        for s in gens:
            t = tuple([s[x] for x in r])
            if t not in elements:
                if len(elements) + len(H) > cap:
                    raise ClosureExceedsCap(f"closure exceeds cap={cap}")
                elements.update([tuple([t[x] for x in h]) for h in H])
                if len(elements) > limit:
                    whole = alt if alt is not None and all(map(is_even, gens)) else ambient
                    if len(whole) > cap:
                        raise ClosureExceedsCap(f"closure exceeds cap={cap}")
                    return whole
                reps.append(t)
    return frozenset(elements)


def _sorted_groups(degree: int, walk, cap: int) -> tuple[GeneratedGroup, ...]:
    """The subgroups of a walk without conjugacy dedupe, by order, then by
    sorted element list."""
    groups = sorted(((gens, els) for gens, (els,) in walk), key=lambda ge: (len(ge[1]), ge[1]))
    return tuple(GeneratedGroup(degree, gens, cap, _elements=els) for gens, els in groups)


@lru_cache(maxsize=None)
def _subgroup_classes(degree: int, cap: int):
    """Conjugacy classes of subgroups of Sym(degree), in order of discovery,
    each as the tuple of its members' (sorted element tuple, generators)
    pairs, sorted by element tuple."""
    ambient = tuple(sorted(itertools.permutations(range(degree))))
    walk = _join_walk((), ambient, degree, cap, symmetric_group(degree, cap).generators)
    return tuple(tuple(sorted(orbit.items())) for _, orbit in walk)


@lru_cache(maxsize=None)
def enumerate_subgroups(degree: int, cap: int = DEFAULT_CAP):
    """All subgroups of Sym(degree), each exactly once, plus conjugacy classes.

    Returns (subgroups, classes): subgroups is a tuple of GeneratedGroup in a
    deterministic order (by order, then by sorted element list); classes is a
    tuple of tuples of indices into it, one per conjugacy class.  Each
    subgroup carries the join walk's short generating set (none for the
    trivial group, at most log2 of the order), conjugated from its class
    representative, and its sorted element list.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree > 6:
        raise DegreeTooLarge("exhaustive subgroup enumeration supports degree <= 6")
    if factorial(degree) > cap:
        raise ClosureExceedsCap(f"|Sym({degree})| exceeds cap={cap}")
    expanded = _subgroup_classes(degree, cap)
    gens_of = {els: gens for cls in expanded for els, gens in cls}
    flat = sorted(gens_of, key=lambda e: (len(e), e))
    index = {els: i for i, els in enumerate(flat)}
    subgroups = tuple(
        GeneratedGroup(degree, gens_of[els], cap, _elements=els) for els in flat
    )
    classes = tuple(tuple(sorted(index[e] for e, _ in cls)) for cls in expanded)
    classes = tuple(sorted(classes, key=lambda c: c[0]))
    return subgroups, classes


def subgroups_of(G: GeneratedGroup, cap: int = DEFAULT_CAP) -> tuple[GeneratedGroup, ...]:
    """All subgroups of an explicitly enumerable ambient group, by order,
    then by sorted element list; fine for ambient orders in the hundreds."""
    return _sorted_groups(G.degree, _join_walk((), G.elements, G.degree, cap), cap)


def overgroups_of_cycle(degree: int, cap: int = DEFAULT_CAP) -> tuple[GeneratedGroup, ...]:
    """Every subgroup of Sym(degree) containing the standard degree-cycle.

    Every transitive subgroup of prime degree p contains a p-cycle (Cauchy),
    and all p-cycles are conjugate, so for prime degree this interval carries
    a representative of every transitive conjugacy class.
    """
    ambient = tuple(sorted(itertools.permutations(range(degree))))
    cycle = from_cycles(degree, tuple(range(degree)))
    return _sorted_groups(degree, _join_walk((cycle,), ambient, degree, cap), cap)


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------

def group_to_json(G: GeneratedGroup, include_elements: bool = False) -> dict:
    data = {"degree": G.degree, "generators": [list(g) for g in G.generators]}
    if include_elements:
        data["elements"] = [list(p) for p in G.elements]
    return data


def perms_from_json(data, size_key: str, offset: int = 0) -> tuple[int, list[Perm]]:
    """``(size, generators)`` of a JSON object ``{size_key: size, "generators":
    [...]}`` whose generators are permutations of ``range(size + offset)``.

    Anything else raises ``ValueError``, so a malformed input file is refused
    as bad input rather than failing partway with a ``KeyError``.
    """
    if not isinstance(data, dict) or size_key not in data or "generators" not in data:
        raise ValueError(f'expected a JSON object with keys "{size_key}" '
                         f'and "generators"')
    try:
        size = int(data[size_key])
        gens = [tuple(int(x) for x in g) for g in data["generators"]]
    except TypeError as exc:
        raise ValueError(f"malformed generators: {exc}") from None
    degree = size + offset
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise ValueError(f"bad generator for degree {degree}: {g}")
    return size, gens


def group_from_json(data, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    degree, gens = perms_from_json(data, "degree")
    return GeneratedGroup(degree, gens, cap)


def load_group(path, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh), cap)
