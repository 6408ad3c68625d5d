"""Rooted tree T_{d,q}, vertex addressing, colour schemes and label counts.

The tree has a root with ``q`` children; every other vertex has ``d``
children.  Addresses are digit tuples: the first digit is in {0..q-1}, later
digits in {0..d-1}.

Colour schemes fix an edge colouring of the ambient (d+1)-regular tree with
colours D = {0..d}, legal in the sense that the edges at each vertex carry
pairwise distinct colours.  The concrete colouring is deterministic: at a
vertex whose parent edge has colour ``a``, the j-th child edge receives the
j-th colour of D \\ {a} in a fixed order.  Two orders are supported:

* ``"value"``   -- plain ascending colour value;
* ``"orbit"``   -- ascending (orbit index, colour value).

The orbit order makes the sequence of child labels depend only on the orbit
of the parent colour, which is exactly the compatibility needed for the
label-preserving tree-pair calculus to be closed under composition.  Label
counts per level are order-independent; tests check that explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perm import GeneratedGroup, orbits as group_orbits, perms_from_json, symmetric_group

Address = tuple[int, ...]


class DepthExceeded(ValueError):
    pass


class RootHasNoLabel(ValueError):
    pass


@dataclass(frozen=True)
class TreeShape:
    d: int
    q: int
    n_max: int = 24

    def __post_init__(self):
        if self.d < 2 or self.q < 2:
            raise ValueError("need d >= 2 and q >= 2")

    def level_size(self, n: int) -> int:
        if n < 0 or n > self.n_max:
            raise DepthExceeded(f"level {n} out of range")
        return 1 if n == 0 else self.q * self.d ** (n - 1)

    def arity(self, depth: int) -> int:
        return self.q if depth == 0 else self.d

    def validate(self, addr: Address) -> Address:
        addr = tuple(addr)
        if len(addr) > self.n_max:
            raise DepthExceeded(f"address deeper than n_max={self.n_max}")
        for j, digit in enumerate(addr):
            if not 0 <= digit < self.arity(j):
                raise ValueError(f"bad digit {digit} at position {j} in {addr}")
        return addr


def parse_address(text: str) -> Address:
    return tuple(int(ch) for ch in text)


def format_address(addr: Address) -> str:
    return "".join(str(d) for d in addr)


def cone(shape: TreeShape, u: Address, n: int) -> tuple[Address, ...]:
    """All addresses extending u by n digits, in lexicographic order."""
    u = shape.validate(u)
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(u) + n > shape.n_max:
        raise DepthExceeded(f"cone depth {len(u) + n} exceeds n_max={shape.n_max}")
    out = [u]
    for level in range(len(u), len(u) + n):
        arity = shape.arity(level)
        out = [addr + (j,) for addr in out for j in range(arity)]
    return tuple(out)


@dataclass(frozen=True)
class ColourScheme:
    """A local-action group F <= Sym(D) on the colour set D = {0..d}."""

    d: int
    F: GeneratedGroup
    orbits: tuple[tuple[int, ...], ...] = field(init=False)
    orbit_index: tuple[int, ...] = field(init=False)
    reps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
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


def child_colours(scheme: ColourScheme | None, parent_colour: int | None,
                  arity: int, policy: str = "orbit") -> tuple[int, ...]:
    """Colours of the child edges of a vertex, in child order.

    ``parent_colour`` is None at the root, which simply takes the first
    ``arity`` colours in the chosen order (this needs q <= d+1).
    """
    if scheme is None:
        raise ValueError("child_colours needs a colour scheme")
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


def edge_colour_walk(shape: TreeShape, scheme: ColourScheme, addr: Address,
                     policy: str = "orbit") -> tuple[int, ...]:
    """Colour of each edge along the path from the root to addr."""
    addr = shape.validate(addr)
    colours = []
    parent: int | None = None
    for depth, digit in enumerate(addr):
        cc = child_colours(scheme, parent, shape.arity(depth), policy)
        parent = cc[digit]
        colours.append(parent)
    return tuple(colours)


def orbit_label(shape: TreeShape, scheme: ColourScheme, v: Address,
                policy: str = "orbit") -> int:
    """The F-orbit index of the colour of v's parent edge."""
    v = shape.validate(v)
    if not v:
        raise RootHasNoLabel("the root has no parent edge")
    return scheme.orbit_index[edge_colour_walk(shape, scheme, v, policy)[-1]]


def cone_level_labels(scheme: ColourScheme, parent_colour: int, n: int,
                      policy: str = "orbit") -> tuple[tuple[int, ...], ...]:
    """Labels of a cone's vertices, one tuple per depth 0..n, in vertex order.

    The cone root's parent edge has colour ``parent_colour``; every vertex in
    the cone has d children.  Entry j lists the F-orbit indices of the
    parent-edge colours of the d^j vertices at depth j.
    """
    kids: dict[int, tuple[int, ...]] = {}  # child colours depend only on the colour
    colours = [parent_colour]
    out = [(scheme.orbit_index[parent_colour],)]
    for _ in range(n):
        nxt = []
        for c in colours:
            if c not in kids:
                kids[c] = child_colours(scheme, c, scheme.d, policy)
            nxt.extend(kids[c])
        colours = nxt
        out.append(tuple(scheme.orbit_index[c] for c in colours))
    return tuple(out)


def cone_leaf_labels(scheme: ColourScheme, parent_colour: int, n: int,
                     policy: str = "orbit") -> tuple[int, ...]:
    """Labels of the depth-n leaves of a cone, in leaf order."""
    return cone_level_labels(scheme, parent_colour, n, policy)[-1]


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
    if not 0 <= root_label < scheme.n_orbits:
        raise ValueError(f"root_label {root_label} out of range")
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
