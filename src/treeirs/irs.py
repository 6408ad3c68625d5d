"""Conjugation-invariant measures on subgroup lattices and exact inequality checks.

A finitely supported probability measure on the subgroups of an enumerable
ambient group stands in for an invariant random subgroup.  All probabilities
and expectations are exact ``fractions.Fraction`` values: the inequalities
checked here can be tight, and floating point would manufacture spurious
failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .perm import (
    GeneratedGroup,
    Perm,
    compose,
    conjugacy_orbit,
    conjugate,
    inverse,
    memoized,
    restrict,
    rigid_stabilizer,
)


class NotASubgroup(ValueError):
    pass


class NotConjInvariant(ValueError):
    pass


class BadFactorization(ValueError):
    """The side partition is not invariant under the ambient group."""


class BadTransporterSet(ValueError):
    """An element of Q fails to carry U onto V."""


PartialMap = tuple[int, ...]  # images of sorted(U), as raw points


def restriction_map(p: Perm, U: tuple[int, ...]) -> PartialMap:
    """The partial map p|_U, encoded as images along sorted(U)."""
    return tuple([p[x] for x in U])


@dataclass(frozen=True)
class Transporter:
    """Elements of H carrying U onto V, with their deduplicated restrictions."""

    H: GeneratedGroup
    U: tuple[int, ...]
    V: tuple[int, ...]
    elements: tuple[Perm, ...]
    restrictions: tuple[PartialMap, ...]


def transporter(H: GeneratedGroup, U, V) -> Transporter:
    U = tuple(sorted(U))
    V = tuple(sorted(V))
    if U != V and set(U) & set(V):
        raise ValueError("U and V must be disjoint or equal")
    Vset = set(V)
    els = tuple(h for h in H.elements if {h[x] for x in U} == Vset)
    restrictions = tuple(sorted({restriction_map(h, U) for h in els}))
    return Transporter(H, U, V, els, restrictions)


def transporters(H: GeneratedGroup, U) -> dict[tuple[int, ...], Transporter]:
    """``transporter(H, U, V)`` for every V it is defined on (disjoint from U,
    or U itself) whose transporter is non-empty, from one pass over H.

    The elements are bucketed by the sorted image of U, in H's element
    order, so each value equals the one ``transporter`` gives.
    """
    U = tuple(sorted(U))
    buckets: dict[tuple[int, ...], tuple[list, set]] = {}
    for h in H.elements:
        r = restriction_map(h, U)
        V = tuple(sorted(r))
        if V not in buckets:
            buckets[V] = ([], set())
        els, rs = buckets[V]
        els.append(h)
        rs.add(r)
    Uset = set(U)
    return {V: Transporter(H, U, V, tuple(els), tuple(sorted(rs)))
            for V, (els, rs) in buckets.items() if V == U or Uset.isdisjoint(V)}


def kept_transporters(H: GeneratedGroup, U) -> dict[tuple[int, ...], Transporter]:
    """``transporters(H, U)``, computed once per sorted U and kept on H
    (``GeneratedGroup.memo``, at most 2^degree entries, freed with H)."""
    U = tuple(sorted(U))
    return H.memo(("irs.transporters", U), lambda: transporters(H, U))


@dataclass(frozen=True)
class ConjInvariantMeasure:
    """A finitely supported measure on subgroups of ``ambient``.

    Subgroups in the support are deduplicated by element set; weights are
    exact and sum to one.  Conjugation invariance is checked by ``classes``
    on generators of the ambient group (which generate all inner
    automorphisms).  The measure is immutable, so a check that passes is
    remembered on it and not run again; one that fails raises on every call.
    """

    ambient: GeneratedGroup
    support: tuple[tuple[GeneratedGroup, Fraction], ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = sum(w for _, w in self.support)
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    def memo(self, key, build):
        """``build()``, computed once per ``key`` and kept on this measure,
        as ``GeneratedGroup.memo`` keeps data on a group; freed with the
        measure.  A ``build`` that raises keeps nothing.  Callers keep their
        keys distinct and bounded."""
        return memoized(self._memo, key, build)

    def check_invariance(self) -> None:
        self.classes()

    def expectation(self, fn) -> Fraction:
        return sum((w * fn(H) for H, w in self.support), Fraction(0))

    def classes(self) -> tuple[tuple[GeneratedGroup, Fraction, tuple], ...]:
        """The support split into ambient conjugacy classes, as (R, w,
        members): R is the class's first support member, w each member's
        weight, and members the pairs (H, g) in sorted element order, with
        H = {conjugate(r, g) : r in R}, g in the ambient (the identity for R).
        This is the invariance check: each class is walked once by
        ``conjugacy_orbit`` from R, and every conjugate must be in the
        support with weight w (``NotConjInvariant``).  Each conjugator g is
        checked as it is read: g^-1 R g equals H exactly when |H| = |R| and
        R's generators conjugated by g lie in H (``RuntimeError``, a fault
        of the walk, otherwise).  Kept on the measure."""
        return self.memo("irs.classes", self._classes)

    def _classes(self):
        unplaced = {H.element_set: (H, w) for H, w in self.support}
        out = []
        for R, w in self.support:
            if R.element_set not in unplaced:
                continue
            c = len(out)
            members = []
            for i, (els, g) in enumerate(sorted(
                    conjugacy_orbit(R.elements, self.ambient.generators).items())):
                H, v = unplaced.pop(frozenset(els), (None, None))
                if v != w:
                    raise NotConjInvariant(f"support not closed under conjugation "
                                           f"with constant weight {w} (class {c})")
                if H.order != R.order or not all(conjugate(a, g) in H for a in R.generators):
                    raise RuntimeError(f"no conjugator carries subgroup 0 of class {c} "
                                       f"onto subgroup {i} of class {c}")
                members.append((H, g))
            out.append((R, w, tuple(members)))
        return tuple(out)


def point_mass(H: GeneratedGroup, ambient: GeneratedGroup) -> ConjInvariantMeasure:
    if not H.is_subgroup_of(ambient):
        raise NotASubgroup("H is not a subgroup of the ambient group")
    return ConjInvariantMeasure(ambient, ((H, Fraction(1)),))


def uniform_conjugate_measure(gamma: GeneratedGroup,
                              ambient: GeneratedGroup) -> ConjInvariantMeasure:
    """Uniform measure over the distinct ambient-conjugates of gamma.

    Like ``ConjInvariantMeasure.classes``, this relies on
    ``ambient.generators`` generating the ambient group: the conjugates are
    found breadth-first by conjugating with the generators alone
    (``perm.conjugacy_orbit``), at a cost of |generators| |orbit| |gamma|
    conjugations.  The support is ordered by sorted element list, so its
    first member is the one class's R.
    """
    if not gamma.is_subgroup_of(ambient):
        raise NotASubgroup("gamma is not a subgroup of the ambient group")
    conjs = [GeneratedGroup(gamma.degree, els, gamma.cap, _elements=els)
             for els in sorted(conjugacy_orbit(gamma.elements, ambient.generators))]
    w = Fraction(1, len(conjs))
    return ConjInvariantMeasure(ambient, tuple((H, w) for H in conjs))


def stabilizer_measure(ambient: GeneratedGroup) -> ConjInvariantMeasure:
    """Pushforward of the uniform measure on points under x -> St(x)."""
    counts: dict[frozenset, tuple[GeneratedGroup, int]] = {}
    for x in range(ambient.degree):
        els = tuple(sorted(h for h in ambient.elements if h[x] == x))
        key = frozenset(els)
        if key in counts:
            H, c = counts[key]
            counts[key] = (H, c + 1)
        else:
            counts[key] = (GeneratedGroup(ambient.degree, els, ambient.cap,
                                          _elements=els), 1)
    items = [counts[k] for k in sorted(counts, key=lambda k: tuple(sorted(k)))]
    return ConjInvariantMeasure(
        ambient, tuple((H, Fraction(c, ambient.degree)) for H, c in items))


@dataclass(frozen=True)
class VerifyResult:
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _ambient_E1_data(ambient: GeneratedGroup, U) -> tuple[dict, frozenset]:
    """The ambient's U -> V restriction sets, by V, and its rigid stabilizer
    R(U) as U -> U restriction maps, one per element, computed once per
    ambient and U and kept on the ambient (at most 2^degree entries)."""
    return ambient.memo(("irs.E1", U), lambda: (
        {V: frozenset(t.restrictions) for V, t in transporters(ambient, U).items()},
        frozenset(restriction_map(r, U) for r in rigid_stabilizer(ambient, U).elements)))


def _E1_profile(mu: ConjInvariantMeasure, U) -> dict:
    """What ``verify_E1`` needs of the support for a fixed U, by V: for
    each conjugacy class, its member weight w and the restriction sets of
    its members carrying U onto V, and those members' weights summed by the
    meet size |R(U) n H|_{U->U}|.

    Built one class at a time from its first member R alone
    (``ConjInvariantMeasure.classes``).  A member H = g^-1 R g carries U onto
    V through g^-1 r g exactly when r carries U' = g^-1 U onto g^-1 V, and
    that element maps x in U to g(r(g^-1 x)).  So R's transporters at U'
    (``kept_transporters``, built once per measure and U') are relabelled
    through g, and the members are counted by meet size in integers, then
    scaled by w.  Computed once per measure and U and kept on the measure
    (at most 2^degree entries)."""
    def build():
        RU = _ambient_E1_data(mu.ambient, U)[1]
        profile: dict = {}
        for R, w, members in mu.classes():
            found: dict = {}
            for _, g in members:
                g_inv = inverse(g)
                Ug = sorted(g_inv[x] for x in U)
                at = [Ug.index(g_inv[x]) for x in U]
                sets = {tuple(sorted(g[y] for y in Vg)):
                        frozenset([tuple([g[r[i]] for i in at]) for r in t.restrictions])
                        for Vg, t in kept_transporters(R, Ug).items()}
                meet = len(RU.intersection(sets.pop(U)))
                for V, rs in sets.items():
                    rss, meets = found.setdefault(V, ([], {}))
                    rss.append(rs)
                    meets[meet] = meets.get(meet, 0) + 1
            for V, (rss, meets) in found.items():
                classes, by_meet = profile.setdefault(V, ([], {}))
                classes.append((w, rss))
                for m, count in meets.items():
                    by_meet[m] = by_meet.get(m, 0) + count * w
        return profile
    return mu.memo(("irs.E1", U), build)


def verify_E1(mu: ConjInvariantMeasure, U, V, A) -> VerifyResult:
    """Check the subgroup-index inequality for the event {H|_{U->V} meets A}.

    lhs = P(restrictions of H carrying U to V meet A);
    rhs = E[ min(|A| / [R(U) : H|_{U->U} n R(U)], 1) on the event that H
    carries U onto V ], with both groups in the index viewed as permutation
    groups of U.  Exact rationals throughout.  The index is |R(U)| / m for
    the meet size m, so the rhs is a sum over the meet sizes of the support
    (``_E1_profile``).
    """
    U = tuple(sorted(U))
    V = tuple(sorted(V))
    if not U or not V or set(U) & set(V):
        raise ValueError("U, V must be disjoint and non-empty")
    mu.check_invariance()
    A = {tuple(a) for a in A}
    ambient_restrictions, RU = _ambient_E1_data(mu.ambient, U)
    if not A <= ambient_restrictions.get(V, frozenset()):
        raise ValueError("A must consist of restrictions of ambient transporter elements")

    # an empty transporter gives no lhs mass, and its indicator kills the rhs term
    classes, by_meet = _E1_profile(mu, U).get(V, ((), {}))
    lhs = sum((w * sum(1 for rs in rss if not A.isdisjoint(rs)) for w, rss in classes),
              Fraction(0))
    rhs = sum((W * min(Fraction(len(A) * m, len(RU)), Fraction(1))
               for m, W in by_meet.items()), Fraction(0))
    return VerifyResult(lhs, rhs, lhs <= rhs)


def verify_index(nu: ConjInvariantMeasure, Q, U, V) -> VerifyResult:
    """Check P_nu(H meets Q) <= E_nu[|H|] |Q_U| / |U|!.

    Q must consist of permutations carrying U onto V; Q_U is the set of their
    restrictions to U, deduplicated.  For the uniform measure on the
    Sym(X)-conjugates of gamma the bound is |gamma| |Q_U| / |U|!.
    """
    U = tuple(sorted(U))
    V = tuple(sorted(V))
    Q = [tuple(q) for q in Q]
    Vset = set(V)
    for q in Q:
        if {q[x] for x in U} != Vset:
            raise BadTransporterSet(f"element does not carry U onto V: {q}")
    nu.check_invariance()
    Qset = set(Q)
    lhs = sum((w for H, w in nu.support if not Qset.isdisjoint(H.element_set)), Fraction(0))
    QU = {restriction_map(q, U) for q in Q}
    mean_order = nu.memo("irs.mean_order", lambda: nu.expectation(lambda H: H.order))
    rhs = mean_order * len(QU) / factorial(len(U))
    return VerifyResult(lhs, rhs, lhs <= rhs)


def verify_E2(mu: ConjInvariantMeasure, side1, side2, B) -> VerifyResult:
    """Check the conjugacy-class-size inequality in a product of two groups.

    The ambient group of ``mu`` must preserve the partition side1 | side2 and
    play the role of the full product L1 x L2: the inequality needs measures
    invariant under conjugation by L1 x {id}, which uniform-on-conjugates
    measures over the product ambient are.  For each subgroup H in the
    support, H_1 is the part of H acting trivially on side2, N_1 the
    normalizer of its side-1 restriction inside the side-1 restriction of the
    ambient, and the bound counts N_1-conjugates of the coset-like set
    pi_1(B) H_1.
    """
    side1 = tuple(sorted(side1))
    side2 = tuple(sorted(side2))
    amb = mu.ambient
    if sorted(side1 + side2) != list(range(amb.degree)):
        raise BadFactorization("side1, side2 must partition the points")
    s1set = set(side1)
    for g in amb.generators:
        if any((g[x] in s1set) != (x in s1set) for x in range(amb.degree)):
            raise BadFactorization("ambient group mixes the two sides")
    mu.check_invariance()
    B = [tuple(b) for b in B]
    for b in B:
        if b not in amb:
            raise ValueError("B must be a subset of the ambient group")

    L1 = amb.restricted(side1)
    pi2B = {restrict(b, side2) for b in B}
    Bset = set(B)

    lhs = Fraction(0)
    rhs = Fraction(0)
    for H, w in mu.support:
        if Bset <= H.element_set:
            lhs += w
        pi2H = {restrict(h, side2) for h in H.elements}
        if not pi2B <= pi2H:
            continue
        H1 = frozenset(restrict(h, side1) for h in H.elements
                       if all(h[x] == x for x in side2))
        N1 = [n for n in L1.elements
              if frozenset(conjugate(h, n) for h in H1) == H1]
        S = frozenset(compose(restrict(b, side1), h) for b in B for h in H1)
        classes = {frozenset(conjugate(s, n) for s in S) for n in N1}
        rhs += w * Fraction(1, len(classes))
    return VerifyResult(lhs, rhs, lhs <= rhs)
