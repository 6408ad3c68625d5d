"""Rooted tree T_{d,q}, vertex addressing, colour schemes and label counts.

The tree has a root with ``q`` children; every other vertex has ``d``
children.  Addresses are digit tuples, with no string form: the first digit
is in {0..q-1}, later digits in {0..d-1}.  ``TreeShape.validate`` refuses
any other tuple; ``edge_colour_walk`` and ``orbit_label`` walk one address
from the root, and are the oracles of ``thompson.is_label_preserving``,
which labels a whole frontier in one walk through ``child_colours``.

Colour schemes fix an edge colouring of the ambient (d+1)-regular tree with
colours D = {0..d}, legal in the sense that the edges at each vertex carry
pairwise distinct colours.  The concrete colouring is deterministic: at a
vertex whose parent edge has colour ``a``, the j-th child edge receives the
j-th colour of D \\ {a} in ascending (orbit index, colour value) order.

This orbit order makes the sequence of child labels depend only on the orbit
of the parent colour, which is exactly the compatibility needed for the
label-preserving tree-pair calculus to be closed under composition, and it is
the one colouring every walk, form, census and tree-pair check uses.  Only
the label layer (``child_colours``, ``cone_level_colours``,
``cone_level_labels``, ``cone_leaf_labels`` and ``level_counts_direct``) also
takes ``policy="value"``, plain ascending colour value, so that label counts
per level can be checked not to depend on the order.

``local_maps`` is the one local-action rule: which sigma in F may carry a
vertex of parent-edge colour c onto one of colour c', and which colour each
child's image then has.  The coloured forms, ``Matcher``, the census, the map
enumerator and the constrained-map test of ``classify`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perm import (GeneratedGroup, _is_json_int, orbits as group_orbits, perms_from_json,
                   symmetric_group)

Address = tuple[int, ...]


class DepthExceeded(ValueError):
    pass


class RootHasNoLabel(ValueError):
    pass


class DepthMismatch(ValueError):
    pass


class ColourSchemeMismatch(ValueError):
    pass


def check_tree(d: int, q: int, error: type[ValueError] = ValueError) -> None:
    """Refuse all but integers d >= 2 and q >= 2 (bools too) by raising
    ``error``, checking d before q."""
    if not (_is_json_int(d) and _is_json_int(q)):
        raise error(f"need integers d >= 2 and q >= 2, not {d!r}, {q!r}")
    if d < 2:
        raise error(f"need d >= 2, not {d}")
    if q < 2:
        raise error(f"need q >= 2, not {q}")


def level_depth(degree: int, d: int, q: int) -> int:
    """The depth n of a level of ``degree`` = q*d^n points of T_{d,q}."""
    check_tree(d, q)  # with d = 1 the loop below would never end
    n, size = 0, q
    while size < degree:
        n, size = n + 1, size * d
    if size != degree:
        raise ValueError(f"degree {degree} is not q*d^n for q={q}, d={d}")
    return n


@dataclass(frozen=True)
class TreeShape:
    d: int
    q: int

    def __post_init__(self):
        check_tree(self.d, self.q)

    def arity(self, depth: int) -> int:
        return self.q if depth == 0 else self.d

    def validate(self, addr: Address) -> Address:
        addr = tuple(addr)
        for j, digit in enumerate(addr):
            if type(digit) is not int:  # 0.0 and True would pass the range test
                raise ValueError(f"bad digit {digit!r} at position {j} in {addr}: not an int")
            if not 0 <= digit < self.arity(j):
                raise ValueError(f"bad digit {digit} at position {j} in {addr}")
        return addr


@dataclass(frozen=True)
class ColourScheme:
    """A local-action group F <= Sym(D) on the colour set D = {0..d}."""

    d: int
    F: GeneratedGroup
    orbits: tuple[tuple[int, ...], ...] = field(init=False)
    orbit_index: tuple[int, ...] = field(init=False)
    reps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        check_cone(self.d, 0)
        if self.F.degree != self.d + 1:
            raise ValueError(f"F must act on {self.d + 1} colours")
        orbs = group_orbits(self.F)
        idx = [0] * (self.d + 1)
        for i, orb in enumerate(orbs):
            for c in orb:
                idx[c] = i
        object.__setattr__(self, "orbits", orbs)
        object.__setattr__(self, "orbit_index", tuple(idx))
        object.__setattr__(self, "reps", tuple(min(o) for o in orbs))

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    @classmethod
    def full(cls, d: int) -> "ColourScheme":
        return cls(d, symmetric_group(d + 1))

    @classmethod
    def trivial(cls, d: int) -> "ColourScheme":
        return cls(d, GeneratedGroup(d + 1, []))

    @classmethod
    def from_generators(cls, d: int, generators) -> "ColourScheme":
        return cls(d, GeneratedGroup(d + 1, generators))


# ---------------------------------------------------------------------------
# the cone context: branching, depth, colour scheme and parent colour
# ---------------------------------------------------------------------------

def check_cone(d: int, depth: int) -> None:
    """Refuse all but integers d >= 2 and depth >= 0 (bools too)."""
    if not _is_json_int(d):
        raise ValueError(f"bad d {d!r}: not an int")
    if d < 2:
        raise ValueError(f"need d >= 2, not {d}")
    if not _is_json_int(depth):
        raise DepthMismatch(f"bad depth {depth!r}: not an int")
    if depth < 0:
        raise DepthMismatch("negative depth")


def check_scheme(scheme: ColourScheme, d: int) -> ColourScheme:
    """Refuse a scheme for another branching than ``d``."""
    if scheme.d != d:
        raise ColourSchemeMismatch(f"scheme is for d={scheme.d}, not {d}")
    return scheme


def check_colour(scheme: ColourScheme, colour: int) -> int:
    """Refuse a colour that is not an integer in D = {0..d} (bools too)."""
    if not _is_json_int(colour):
        raise ColourSchemeMismatch(f"bad colour {colour!r}: not an int")
    if not 0 <= colour <= scheme.d:
        raise ColourSchemeMismatch(f"colour {colour} outside 0..{scheme.d}")
    return colour


def check_label(scheme: ColourScheme, label: int, name: str) -> int:
    """Refuse a label (an index into ``scheme.reps``) that is no int or names no orbit."""
    if not _is_json_int(label):
        raise ValueError(f"bad {name} {label!r}: not an int")
    if not 0 <= label < scheme.n_orbits:
        raise ValueError(f"{name} {label} out of range")
    return label


def cone_colour(d: int, depth: int, scheme: ColourScheme | None,
                parent_colour: int | None) -> int | None:
    """The checked parent-edge colour of a depth-``depth`` cone of branching
    ``d``: None in full mode (no scheme), where a colour is refused, and by
    default the first orbit representative in coloured mode."""
    check_cone(d, depth)
    if scheme is None:
        if parent_colour is not None:
            raise ValueError("parent_colour needs a colour scheme")
        return None
    check_scheme(scheme, d)
    return scheme.reps[0] if parent_colour is None else check_colour(scheme, parent_colour)


def child_colours(scheme: ColourScheme | None, parent_colour: int | None,
                  arity: int, policy: str = "orbit") -> tuple[int, ...]:
    """Colours of the child edges of a vertex, in child order.

    ``parent_colour`` is None at the root, which simply takes the first
    ``arity`` colours in the chosen order (this needs q <= d+1).
    """
    if scheme is None:
        raise ValueError("child_colours needs a colour scheme")
    if parent_colour is not None:
        check_colour(scheme, parent_colour)
    avail = [c for c in range(scheme.d + 1) if c != parent_colour]
    if policy == "value":
        avail.sort()
    elif policy == "orbit":
        avail.sort(key=lambda c: (scheme.orbit_index[c], c))
    else:
        raise ValueError(f"unknown colouring policy: {policy}")
    if arity > len(avail):
        raise ValueError(f"arity {arity} exceeds available colours {len(avail)}")
    return tuple(avail[:arity])


def local_maps(scheme: ColourScheme, c: int, c_img: int) -> tuple[tuple[int, ...], ...]:
    """The local actions that may carry a vertex of parent-edge colour ``c``
    onto one of parent-edge colour ``c_img``: for each sigma in F with
    sigma(c) = c_img, in F's element order, the tuple (sigma(c_0), ...,
    sigma(c_{d-1})) over the vertex's child colours ``child_colours(scheme,
    c, d)``.  Entry j is the parent-edge colour of child j's image.  Empty
    when c and c_img lie in different F-orbits.  At most (d+1)^2 tables, kept
    on ``scheme.F.memo`` (the scheme is a function of F)."""
    def build():
        check_colour(scheme, c)  # child_colours would take None for the root
        check_colour(scheme, c_img)
        kids = child_colours(scheme, c, scheme.d)
        return tuple(tuple([sigma[x] for x in kids])
                     for sigma in scheme.F.elements if sigma[c] == c_img)

    return scheme.F.memo(("tree.local_maps", c, c_img), build)


def edge_colour_walk(shape: TreeShape, scheme: ColourScheme,
                     addr: Address) -> tuple[int, ...]:
    """Colour of each edge along the path from the root to addr; the scheme
    must be for the shape's d."""
    check_scheme(scheme, shape.d)
    addr = shape.validate(addr)
    colours = []
    parent: int | None = None
    for depth, digit in enumerate(addr):
        cc = child_colours(scheme, parent, shape.arity(depth))
        parent = cc[digit]
        colours.append(parent)
    return tuple(colours)


def orbit_label(shape: TreeShape, scheme: ColourScheme, v: Address) -> int:
    """The F-orbit index of the colour of v's parent edge."""
    check_scheme(scheme, shape.d)
    v = shape.validate(v)
    if not v:
        raise RootHasNoLabel("the root has no parent edge")
    return scheme.orbit_index[edge_colour_walk(shape, scheme, v)[-1]]


def cone_level_colours(scheme: ColourScheme, parent_colour: int | None, n: int,
                       policy: str = "orbit") -> tuple[tuple[int, ...], ...]:
    """Parent-edge colours of a cone's vertices, one tuple per depth 0..n, in
    vertex order: the cone root's is ``parent_colour`` (checked; by default the
    first orbit representative), and every vertex in the cone has d children."""
    d = scheme.d
    out = [(cone_colour(d, n, scheme, parent_colour),)]
    kids = [child_colours(scheme, c, d, policy) for c in range(d + 1)]
    for _ in range(n):
        out.append(tuple([x for c in out[-1] for x in kids[c]]))
    return tuple(out)


def cone_level_labels(scheme: ColourScheme, parent_colour: int | None, n: int,
                      policy: str = "orbit") -> tuple[tuple[int, ...], ...]:
    """Labels of a cone's vertices, one tuple per depth 0..n, in vertex order:
    the F-orbit indices of ``cone_level_colours``."""
    label = scheme.orbit_index
    return tuple(tuple([label[c] for c in level])
                 for level in cone_level_colours(scheme, parent_colour, n, policy))


def cone_leaf_labels(scheme: ColourScheme, parent_colour: int | None, n: int,
                     policy: str = "orbit") -> tuple[int, ...]:
    """Labels of the depth-n leaves of a cone, in leaf order."""
    label = scheme.orbit_index
    return tuple([label[c] for c in cone_level_colours(scheme, parent_colour, n, policy)[-1]])


# ---------------------------------------------------------------------------
# label counts per level: matrix formula and traversal oracle
# ---------------------------------------------------------------------------

def level_counts(scheme: ColourScheme, n: int, root_label: int) -> tuple[int, ...]:
    """Count of depth-n cone leaves per label orbit, by the matrix recursion.

    With M the (l+1)x(l+1) matrix whose row i is constantly |D^(i)|, the count
    vector is (M - I)^(n-1) applied to the start vector |D^(j)| - [j == root
    label].  (M - I) v only needs the row structure: entry i of the product is
    |D^(i)| * sum(v) - v_i, so the whole computation is exact integer work.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_label(scheme, root_label, "root_label")
    sizes = scheme.orbit_sizes()
    v = [sizes[j] - (1 if j == root_label else 0) for j in range(scheme.n_orbits)]
    for _ in range(n - 1):
        s = sum(v)
        v = [sizes[i] * s - v[i] for i in range(scheme.n_orbits)]
    return tuple(v)


def level_counts_direct(scheme: ColourScheme, n: int, parent_colour: int,
                        policy: str = "orbit") -> tuple[int, ...]:
    """Same counts by explicit traversal of the concretely coloured cone."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 16:
        raise DepthExceeded("direct traversal capped at depth 16")
    counts = [0] * scheme.n_orbits
    for lab in cone_leaf_labels(scheme, parent_colour, n, policy):
        counts[lab] += 1
    return tuple(counts)


def scheme_from_json(data) -> ColourScheme:
    """The scheme of a JSON object ``{"d": d, "generators": [...]}``; each
    generator must permute the d+1 colours, else ``ValueError``."""
    d, gens = perms_from_json(data, "d", offset=1)
    return ColourScheme.from_generators(d, gens)
