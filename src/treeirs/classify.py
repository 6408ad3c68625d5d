"""Subgroup taxonomy on boundary levels: transitive profiles, large-alternating
classes, the Praeger-Saxl audit, theta events, and level-to-level heredity.

Points of a level are indexed cone-major: with q cones of d^n leaves each,
cone x occupies [x d^n, (x+1) d^n) and the children of level-n point x are
the level-(n+1) points x d + j.  So a level permutation is read cone by cone
with ``perm.wreath_split`` (theta events, the constrained-map test) and
built from a cone permutation and per-cone maps with ``perm.wreath_join``
(the boundary quotient, the block lift).

No command reads theta events.  ``boundary_quotient_elements`` is the oracle
that acceptance criterion C8 and the tier-1 and CI sweeps check
``theta_event`` against.  ``build_alt_wreath_chain`` builds the chains that
the tests of ``children_heredity_check`` run on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .canon import enumerate_cone_maps
from .perm import (
    DegreeTooLarge,
    GeneratedGroup,
    Perm,
    composer,
    contains_alt_on,
    enumerate_subgroups,
    from_cycles,
    minimal_blocks,
    orbits,
    overgroups_of_cycle,
    wreath_join,
    wreath_split,
)
from .tree import ColourScheme, check_scheme, check_tree, child_colours, level_depth, local_maps


class LabelPartitionViolated(ValueError):
    pass


class LabelMismatch(ValueError):
    pass


class IncompatibleChain(ValueError):
    pass


# ---------------------------------------------------------------------------
# transitive profiles and the large-alternating classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitiveProfile:
    sizes: tuple[int, ...]                 # descending
    components: tuple[tuple[int, ...], ...]  # matching order; ties by min point

    @property
    def t_max(self) -> int:
        return self.sizes[0]

    @property
    def giant(self) -> tuple[int, ...]:
        return self.components[0]


def profile(G: GeneratedGroup) -> TransitiveProfile:
    comps = sorted(orbits(G), key=lambda o: (-len(o), o))
    return TransitiveProfile(tuple(len(c) for c in comps), tuple(comps))


@dataclass(frozen=True)
class XiWitness:
    U: tuple[int, ...]
    delta: int


def _orbit_union_candidates(orbit_list, min_size: int):
    """Unions of orbits of size >= min_size, smallest unions first."""
    out = []
    for r in range(1, len(orbit_list) + 1):
        for combo in itertools.combinations(orbit_list, r):
            u = tuple(sorted(x for orb in combo for x in orb))
            if len(u) >= min_size:
                out.append(u)
    out.sort(key=lambda u: (len(u), u))
    return out


def in_Xi(G: GeneratedGroup, delta: int) -> tuple[bool, XiWitness | None]:
    """Is there U with |U| >= degree - delta, Alt(U) x {id} <= G <= Sym(U) x Sym(U^c)?

    The two-sided condition forces U to be a union of G-orbits (that is the
    setwise-invariance half), so only orbit unions need scanning; the
    alternating half is exactly the rigid-stabilizer test.  When need =
    degree - delta is at least 3, every candidate U needs |G| >= |U|!/2 >=
    need!/2, so a smaller group is refused before any orbit is computed.
    """
    need = G.degree - delta
    if need >= 3 and G.order < factorial(need) // 2:
        return False, None
    for U in _orbit_union_candidates(orbits(G), max(need, 0)):
        if contains_alt_on(G, U):
            return True, XiWitness(U, delta)
    return False, None


def in_Pi(G: GeneratedGroup, labels, delta: int) -> tuple[bool, tuple[XiWitness, ...] | None]:
    """Per-label-class version: for every class i there must be U_i of size at
    least |class i| - delta with Alt(U_i) x {id} <= G, all classes invariant.
    """
    labels = tuple(labels)
    if len(labels) != G.degree:
        raise LabelPartitionViolated("labels must cover every point")
    for g in G.generators:
        for x in range(G.degree):
            if labels[g[x]] != labels[x]:
                raise LabelPartitionViolated(
                    f"generator moves point {x} across label classes")
    witnesses = []
    for i in sorted(set(labels)):
        pts = [x for x in range(G.degree) if labels[x] == i]
        class_orbits = [o for o in orbits(G) if o[0] in set(pts)]
        found = None
        for U in _orbit_union_candidates(class_orbits, max(len(pts) - delta, 0)):
            if contains_alt_on(G, U):
                found = XiWitness(U, delta)
                break
        if found is None:
            return False, None
        witnesses.append(found)
    return True, tuple(witnesses)


# ---------------------------------------------------------------------------
# Praeger-Saxl audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PraegerRow:
    degree: int
    order: int
    bound: int


@dataclass(frozen=True)
class PraegerReport:
    rows: tuple[PraegerRow, ...]
    violations: tuple[PraegerRow, ...]
    max_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def praeger_saxl_check(max_degree: int) -> PraegerReport:
    """Audit |L| <= 4^m for every primitive, non-Alt-containing L <= Sym(m).

    Degrees up to 6 are filtered from the full subgroup lattice.  Degree 7 is
    prime: every transitive group of prime degree is primitive and contains a
    full cycle (Cauchy), and all 7-cycles are conjugate, so the interval above
    one fixed 7-cycle carries a representative of every relevant conjugacy
    class, and the order bound is a class invariant.
    """
    if max_degree > 7:
        raise DegreeTooLarge("audit supports degree <= 7")
    rows = []
    for m in range(1, max_degree + 1):
        if m <= 6:
            candidates, _ = enumerate_subgroups(m)
        else:
            candidates = overgroups_of_cycle(m)
        for L in candidates:
            if len(orbits(L)) != 1:
                continue
            if minimal_blocks(L) is not None:
                continue
            if contains_alt_on(L, range(L.degree)):
                continue
            rows.append(PraegerRow(m, L.order, 4 ** m))
    violations = tuple(r for r in rows if r.order > r.bound)
    max_ratio = max((r.order / r.bound for r in rows), default=0.0)
    return PraegerReport(tuple(rows), violations, max_ratio)


# ---------------------------------------------------------------------------
# theta events on boundary levels
# ---------------------------------------------------------------------------

def root_colours(scheme: ColourScheme, q: int) -> tuple[int, ...]:
    """Parent-edge colours of the q cone roots (needs q <= d+1)."""
    return child_colours(scheme, None, q)


def _is_constrained_cone_map(m, level: int, scheme: ColourScheme,
                             c_from: int, c_to: int) -> bool:
    """Is the leaf bijection m the depth-`level` truncation of an F-local map?

    Checks that m is tree-structured (children blocks map onto children
    blocks) and that at every internal vertex the parent-edge colours of its
    children's images form one of the local actions ``local_maps`` allows
    from the vertex's colour to its image's.
    """
    if level == 0:
        return True
    split = wreath_split(m, scheme.d ** (level - 1))
    if split is None:
        return False
    targets, subs = split
    cs = child_colours(scheme, c_from, scheme.d)
    ct = child_colours(scheme, c_to, scheme.d)
    if composer(targets)(ct) not in local_maps(scheme, c_from, c_to):
        return False
    return all(_is_constrained_cone_map(sub, level - 1, scheme, c, ct[jj])
               for sub, c, jj in zip(subs, cs, targets))


def theta_event(G: GeneratedGroup, u: int, v: int, d: int, q: int, n: int,
                scheme: ColourScheme) -> bool:
    """Does G contain an F-realizable boundary permutation carrying cone u to cone v?

    An element of the boundary quotient permutes the q cone leaf-sets along
    some label-preserving cone permutation and restricts, on each cone, to
    the truncation of a map with all local colour actions in F.  The test
    scans the elements of G for that structure, requiring cone u to land on
    cone v.
    """
    if not 0 <= u < q or not 0 <= v < q or u == v:
        raise ValueError("u, v must be distinct cone indices")
    if level_depth(G.degree, d, q) != n:
        raise ValueError(f"degree {G.degree} is not q*d^n for q={q}, d={d}, n={n}")
    rc = root_colours(check_scheme(scheme, d), q)
    if scheme.orbit_index[rc[u]] != scheme.orbit_index[rc[v]]:
        raise LabelMismatch("cones u and v carry different root labels")
    labels = composer(rc)(scheme.orbit_index)
    splits = filter(None, (wreath_split(h, d ** n) for h in G.elements))
    return any(rho[u] == v and composer(rho)(labels) == labels
               and all(_is_constrained_cone_map(m, n, scheme, c, rc[y])
                       for m, c, y in zip(cones, rc, rho))
               for rho, cones in splits)


def boundary_quotient_elements(d: int, q: int, n: int, scheme: ColourScheme,
                               cap: int = 200_000) -> tuple[Perm, ...]:
    """Brute-force enumeration of the whole boundary quotient at small depth.

    Every label-preserving cone permutation combined with every per-cone
    F-realizable truncation; the test oracle for ``theta_event``.
    """
    check_tree(d, q)
    rc = root_colours(check_scheme(scheme, d), q)
    labels = composer(rc)(scheme.orbit_index)
    out = []
    for rho in itertools.permutations(range(q)):
        if composer(rho)(labels) != labels:
            continue
        per_cone = [enumerate_cone_maps(n, d, scheme, c, rc[y], cap)
                    for c, y in zip(rc, rho)]
        for choice in itertools.product(*per_cone):
            out.append(wreath_join(rho, choice, d ** n))
            if len(out) > cap:
                raise ValueError(f"boundary quotient exceeds cap={cap}")
    return tuple(out)


# ---------------------------------------------------------------------------
# case classification for the bounds table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseReport:
    case: str          # "Xi" | "I" | "II" | "III" | "alt-giant"
    t_max: int
    witness: XiWitness | None


def classify_case(G: GeneratedGroup, q: int, delta: int) -> CaseReport:
    """Mutually exclusive case assignment for a level subgroup.

    Xi first; otherwise case I when the giant component is no bigger than
    (1 - 1/2q) of the level, case II/III by (im)primitivity of the giant
    projection when it is.  "alt-giant" flags the residual configuration
    (giant projection primitive and alternating-containing, yet not Xi),
    which the bounds do not cover; at desk scales it should not occur.
    The giant projection is G itself when the giant covers every point and
    is kept on G's memo otherwise, so repeated calls on one group, over q
    and delta, reuse its orbits, blocks and alternating tests.
    """
    if q < 1:  # the case I threshold divides by q; the CLI holds q to q >= 2
        raise ValueError(f"need q >= 1, not {q}")
    ok, wit = in_Xi(G, delta)
    prof = profile(G)
    if ok:
        return CaseReport("Xi", prof.t_max, wit)
    kn = G.degree
    if prof.t_max <= (1 - 1 / (2 * q)) * kn:
        return CaseReport("I", prof.t_max, None)
    if prof.t_max == kn:
        proj = G
    else:
        proj = G.memo("classify.giant", lambda: G.restricted(prof.giant))
    if minimal_blocks(proj) is not None:
        return CaseReport("III", prof.t_max, None)
    if contains_alt_on(proj, range(proj.degree)):
        return CaseReport("alt-giant", prof.t_max, None)
    return CaseReport("II", prof.t_max, None)


# ---------------------------------------------------------------------------
# level-to-level heredity of the giant component
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeredityReport:
    xi_ok: bool
    wreath_ok: bool
    parent_to_children_failures: tuple[int, ...]
    children_to_parent_failures: tuple[int, ...]

    @property
    def compatible(self) -> bool:
        return self.xi_ok and self.wreath_ok

    @property
    def holds(self) -> bool:
        return (not self.parent_to_children_failures
                and not self.children_to_parent_failures)


def _giant(G: GeneratedGroup) -> set[int]:
    return set(profile(G).giant)


def _block_lift(g: Perm, d: int) -> Perm:
    """Level-(n+1) image of a level-n permutation: child j follows its parent."""
    return wreath_join(g, [range(d)] * len(g), d)


def _wreath_generators(U, degree_n: int, d: int) -> list[Perm]:
    """Even generators of the child-level wreath group over the set U."""
    U = sorted(U)
    gens = []
    if len(U) >= 3:
        for a, b, c in zip(U, U[1:], U[2:]):
            gens.append(_block_lift(from_cycles(degree_n, (a, b, c)), d))
    m = degree_n * d
    if d >= 3:
        for x in U:
            gens.append(from_cycles(m, (x * d, x * d + 1, x * d + 2)))
    elif d == 2 and len(U) >= 2:
        for x, y in zip(U, U[1:]):
            gens.append(from_cycles(m, (x * d, x * d + 1), (y * d, y * d + 1)))
    return gens


def build_alt_wreath_chain(degree_n: int, d: int, U,
                           drop_child: int | None = None):
    """A compatible (Gamma_n, Gamma_{n+1}) pair: Alt(U) above, its even wreath below.

    ``drop_child`` (an index into level n+1) deliberately breaks the chain by
    replacing the child-level group with the alternating group on the
    children of U minus that child.
    """
    U = tuple(sorted(U))
    gens_n = []
    if len(U) >= 3:
        gens_n = [from_cycles(degree_n, trip) for trip in zip(U, U[1:], U[2:])]
    gamma_n = GeneratedGroup(degree_n, gens_n)
    if drop_child is None:
        gamma_n1 = GeneratedGroup(degree_n * d, _wreath_generators(U, degree_n, d))
    else:
        kids = [x * d + j for x in U for j in range(d) if x * d + j != drop_child]
        gens = [from_cycles(degree_n * d, trip) for trip in zip(kids, kids[1:], kids[2:])]
        gamma_n1 = GeneratedGroup(degree_n * d, gens)
    return gamma_n, gamma_n1


def children_heredity_check(gamma_n: GeneratedGroup, gamma_n1: GeneratedGroup,
                            d: int, delta: int,
                            strict: bool = False) -> HeredityReport:
    """Check both directions of: x is in the giant of level n iff all of its
    children are in the giant of level n+1.

    Compatibility preconditions (the Xi membership of the upper group and the
    presence of the giant's even wreath generators below) are evaluated and
    reported; ``strict=True`` raises IncompatibleChain instead of reporting a
    broken instance.
    """
    if gamma_n1.degree != gamma_n.degree * d:
        raise ValueError("level sizes must differ by a factor of d")
    xi_ok, _ = in_Xi(gamma_n, delta)
    Yn = _giant(gamma_n)
    wreath_ok = all(g in gamma_n1
                    for g in _wreath_generators(sorted(Yn), gamma_n.degree, d))
    if strict and not (xi_ok and wreath_ok):
        raise IncompatibleChain("chain fails the compatibility preconditions")
    Yn1 = _giant(gamma_n1)
    p2c = tuple(x for x in sorted(Yn)
                if not all(x * d + j in Yn1 for j in range(d)))
    c2p = tuple(x for x in range(gamma_n.degree)
                if all(x * d + j in Yn1 for j in range(d)) and x not in Yn)
    return HeredityReport(xi_ok, wreath_ok, p2c, c2p)
