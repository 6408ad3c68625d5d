import dataclasses
import gc
import itertools
import weakref
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from conftest import alternating_group, listed_by_elements
from treeirs import cli, irs, perm
from treeirs.irs import (
    BadFactorization,
    BadTransporterSet,
    ConjInvariantMeasure,
    NotASubgroup,
    NotConjInvariant,
    NotSymmetricAmbient,
    VerifyResult,
    _E1_profile,
    kept_transporters,
    transporter,
    transporters,
    uniform_conjugate_measure,
    verify_E1,
    verify_E2,
    verify_index,
)
from treeirs.perm import (
    GeneratedGroup,
    class_records,
    compose,
    composer,
    conjugacy_orbit,
    conjugate,
    enumerate_subgroups,
    from_cycles,
    identity,
    product_of_symmetric,
    restrict,
    rigid_stabilizer,
    subgroups_of,
    symmetric_group,
)


# measures that only the tests below build
def point_mass(H: GeneratedGroup, ambient: GeneratedGroup) -> ConjInvariantMeasure:
    return ConjInvariantMeasure(ambient, ((H, Fraction(1)),))


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


def test_uniform_conjugate_measure_examples():
    s4 = symmetric_group(4)
    # normal subgroup: point mass
    mu = uniform_conjugate_measure(s4, s4)
    assert len(mu.support) == 1 and mu.support[0][1] == 1

    gamma = GeneratedGroup(4, [from_cycles(4, (0, 1), (2, 3))])
    mu = uniform_conjugate_measure(gamma, s4)
    assert len(mu.support) == 3
    assert all(w == Fraction(1, 3) for _, w in mu.support)
    mu.check_invariance()

    triv = GeneratedGroup(4, [])
    mu = uniform_conjugate_measure(triv, s4)
    assert len(mu.support) == 1


def test_uniform_conjugate_measure_not_a_subgroup():
    with pytest.raises(NotASubgroup):
        uniform_conjugate_measure(symmetric_group(3), alternating_group(3))


def uniform_conjugate_measure_oracle(gamma, ambient):
    """Brute force: conjugate gamma by every element of the ambient group."""
    seen = {}
    for g in ambient.elements:
        els = tuple(sorted(conjugate(h, g) for h in gamma.elements))
        seen.setdefault(els, GeneratedGroup(gamma.degree, els, gamma.cap, _elements=els))
    conjs = [seen[k] for k in sorted(seen)]
    return tuple((H, Fraction(1, len(conjs))) for H in conjs)


def support_key(support):
    return [(H.degree, H.elements, w) for H, w in support]


def assert_measure_matches_oracle(ambient):
    # the oracle's members are generated by their element lists; the
    # measure's carry gamma's generators, conjugated by one ambient element
    # that carries gamma onto the member
    for gamma in subgroups_of(ambient):
        mu = uniform_conjugate_measure(gamma, ambient)
        assert mu.ambient is ambient
        expect = uniform_conjugate_measure_oracle(gamma, ambient)
        assert support_key(mu.support) == support_key(expect), gamma.elements
        for H, _ in mu.support:
            assert any(H.generators == tuple(conjugate(a, g) for a in gamma.generators)
                       and H.element_set == {conjugate(h, g) for h in gamma.elements}
                       for g in ambient.elements), (gamma.elements, H.elements)


def test_uniform_conjugate_measure_vs_bruteforce_product():
    assert_measure_matches_oracle(product_of_symmetric([2, 3]))


@pytest.mark.parametrize("build", [
    # enumerated subgroups and restrictions carry short generating sets, so
    # these two are rebuilt with element-list generators
    lambda: listed_by_elements(enumerate_subgroups(4)[0][-1]),  # Sym(4)
    lambda: rigid_stabilizer(symmetric_group(5), (0, 1, 2, 3)),
    lambda: listed_by_elements(product_of_symmetric([2, 3]).restricted((2, 3, 4))),
], ids=["enumerate_subgroups", "rigid_stabilizer", "restricted"])
def test_uniform_conjugate_measure_vs_bruteforce_element_generators(build):
    ambient = build()
    assert ambient.generators == ambient.elements
    assert_measure_matches_oracle(ambient)


def test_conjugation_invariance_exhaustive_small():
    for degree in (2, 3, 4, 5):
        from treeirs.perm import enumerate_subgroups
        subs, _ = enumerate_subgroups(degree)
        amb = symmetric_group(degree)
        for G in subs:
            uniform_conjugate_measure(G, amb).check_invariance()


def test_stabilizer_measure_sym3():
    mu = stabilizer_measure(symmetric_group(3))
    assert len(mu.support) == 3
    assert all(w == Fraction(1, 3) and H.order == 2 for H, w in mu.support)
    mu.check_invariance()


def test_stabilizer_measure_trivial_group():
    triv = GeneratedGroup(4, [])
    mu = stabilizer_measure(triv)
    assert len(mu.support) == 1
    assert mu.support[0][0].order == 1


def test_stabilizer_measure_regular_action():
    # C4 acting on itself: free action, stabilizers trivial
    c4 = GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))])
    mu = stabilizer_measure(c4)
    assert len(mu.support) == 1
    assert mu.support[0][0].order == 1


def test_stabilizer_measure_equals_conjugates_of_point_stabilizer():
    for G in (symmetric_group(4), alternating_group(4),
              GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))])):
        mu = stabilizer_measure(G)
        st0 = [H for H, _ in mu.support if all(h[0] == 0 for h in H.elements)]
        nu = uniform_conjugate_measure(st0[0], G)
        assert {H.element_set: w for H, w in mu.support} == \
               {H.element_set: w for H, w in nu.support}


def test_transporter_examples():
    s3 = symmetric_group(3)
    t = transporter(s3, (0,), (1,))
    assert set(t.elements) == {from_cycles(3, (0, 1)), from_cycles(3, (0, 1, 2))}
    assert t.restrictions == ((1,),)

    t2 = transporter(s3, (0,), (0,))
    assert set(t2.elements) == {identity(3), from_cycles(3, (1, 2))}

    triv = GeneratedGroup(3, [])
    assert transporter(triv, (0,), (1,)).elements == ()


def nonempty_subsets(points):
    return [S for r in range(1, len(points) + 1) for S in itertools.combinations(points, r)]


@pytest.mark.parametrize("ambient", [
    symmetric_group(4), product_of_symmetric([2, 3]),
], ids=["S4", "S2xS3"])
def test_transporters_equal_transporter(ambient):
    points = tuple(range(ambient.degree))
    for H in subgroups_of(ambient):
        for U in nonempty_subsets(points):
            # every V that transporter accepts: U itself and the disjoint sets
            rest = tuple(x for x in points if x not in U)
            Vs = [U] + nonempty_subsets(rest)
            # a V missing from transporters must have an empty transporter;
            # Transporter equality compares the element tuples, so this
            # checks the element order too
            expect = {V: t for V in Vs if (t := transporter(H, U, V)).elements}
            got = transporters(H, U)
            assert got == expect
            assert U in got  # the identity carries U onto itself


class _Probe:
    """A weakly referenceable object to keep on a group's memo, freed with it."""


def test_groups_keeping_transporters_are_freed_without_the_cyclic_gc():
    # a Transporter holds no reference to its group, so a group that keeps
    # its transporters on its memo, and the ambient and members that
    # verify_E1 reads, are freed by reference counting alone
    enabled = gc.isenabled()
    gc.disable()
    try:
        H = symmetric_group(4)
        kept_transporters(H, (0, 1))
        probes = [weakref.ref(H.memo("test.probe", _Probe))]
        s4 = symmetric_group(4)
        mu = uniform_conjugate_measure(GeneratedGroup(4, [from_cycles(4, (0, 1))]), s4)
        assert verify_E1(mu, (0,), (1,), [(1,)]).holds
        probes += [weakref.ref(G.memo("test.probe", _Probe))
                   for G in [s4] + [R for R, _ in mu.support]]
        del H, s4, mu
        assert [probe() for probe in probes] == [None] * 8
    finally:
        if enabled:
            gc.enable()


def test_verify_e1_point_mass_full_group():
    s4 = symmetric_group(4)
    mu = point_mass(s4, s4)
    A = transporter(s4, (0,), (1,)).restrictions
    res = verify_E1(mu, (0,), (1,), A)
    assert res.holds and res.lhs == 1


def test_verify_e1_point_mass_trivial():
    s4 = symmetric_group(4)
    mu = point_mass(GeneratedGroup(4, []), s4)
    A = transporter(s4, (0,), (1,)).restrictions
    res = verify_E1(mu, (0,), (1,), A)
    assert res.lhs == 0 and res.holds


def test_verify_e1_c4_example():
    s4 = symmetric_group(4)
    gamma = GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))])
    mu = uniform_conjugate_measure(gamma, s4)
    res = verify_E1(mu, (0,), (1,), [(1,)])
    assert res.holds
    # oracle: of the 3 conjugates of C4, those containing an element sending
    # 0 to 1 -- enumerate directly
    hits = sum(1 for H, _ in mu.support if any(h[0] == 1 for h in H.elements))
    assert res.lhs == Fraction(hits, len(mu.support))


def test_verify_e1_rejects_bad_A():
    s4 = symmetric_group(4)
    mu = point_mass(s4, s4)
    with pytest.raises(ValueError):
        verify_E1(mu, (0,), (1,), [(2,)])  # 0 -> 2 is not a U->V restriction


def test_verify_index_examples():
    s4 = symmetric_group(4)
    gamma = GeneratedGroup(4, [from_cycles(4, (0, 1), (2, 3))])
    nu = uniform_conjugate_measure(gamma, s4)

    res = verify_index(nu, [], (0,), (1,))
    assert res.lhs == 0 and res.holds

    res = verify_index(nu, [from_cycles(4, (0, 1), (2, 3))], (0,), (1,))
    assert res.lhs == Fraction(1, 3)
    assert res.rhs == 2
    assert res.holds

    res = verify_index(uniform_conjugate_measure(s4, s4),
                       [from_cycles(4, (0, 2), (1, 3))], (0, 1), (2, 3))
    assert res.rhs == Fraction(24 * 1, 2)
    assert res.holds


def test_verify_index_bad_q():
    gamma = GeneratedGroup(4, [from_cycles(4, (0, 1), (2, 3))])
    nu = uniform_conjugate_measure(gamma, symmetric_group(4))
    with pytest.raises(BadTransporterSet):
        verify_index(nu, [identity(4)], (0,), (1,))


def _diagonal_group(gens3):
    """{(g, g)} acting on 0-2 and 3-5."""
    degree = 6
    out = []
    for g in gens3:
        out.append(tuple(list(g) + [x + 3 for x in g]))
    return GeneratedGroup(degree, out)


def test_verify_e2_singleton_identity():
    amb = product_of_symmetric([2, 3])
    mu = uniform_conjugate_measure(GeneratedGroup(5, [from_cycles(5, (0, 1))]), amb)
    res = verify_E2(mu, (0, 1), [identity(5)])
    assert res.lhs == 1 and res.rhs == 1 and res.holds


def test_verify_e2_full_product_point_mass():
    amb = product_of_symmetric([2, 3])
    mu = point_mass(amb, amb)
    for b in amb.elements:
        res = verify_E2(mu, (0, 1), [b])
        assert res.lhs == 1 and res.rhs == 1 and res.holds


def test_verify_e2_diagonal_in_full_product():
    # ambient: Sym(3) x Sym(3); measure: uniform over product-conjugates of the
    # diagonal Alt(3).  Alt(3) is abelian with centralizer Alt(3) in Sym(3), so
    # there are exactly two twisted diagonals: {(a, a)} and {(a, a^-1)}.
    amb = product_of_symmetric([3, 3])
    diag_a3 = _diagonal_group([from_cycles(3, (0, 1, 2))])
    mu = uniform_conjugate_measure(diag_a3, amb)
    assert len(mu.support) == 2
    b = tuple(list(from_cycles(3, (0, 1, 2))) + [x + 3 for x in from_cycles(3, (0, 1, 2))])
    res = verify_E2(mu, (0, 1, 2), [b])
    assert res.lhs == Fraction(1, 2)
    assert res.rhs == Fraction(1, 2)
    assert res.holds


def test_verify_e2_needs_product_ambient_invariance():
    # With the diagonal subgroup itself as ambient, the point mass on the
    # diagonal Alt(3) is conjugation-invariant, yet the conjugacy-class bound
    # fails: 1 > 1/2.  The inequality genuinely requires invariance under the
    # full product, which is what uniform-on-product-conjugates provides.
    diag_s3 = _diagonal_group([from_cycles(3, (0, 1)), from_cycles(3, (0, 1, 2))])
    diag_a3 = _diagonal_group([from_cycles(3, (0, 1, 2))])
    mu = point_mass(diag_a3, diag_s3)
    mu.check_invariance()
    b = tuple(list(from_cycles(3, (0, 1, 2))) + [x + 3 for x in from_cycles(3, (0, 1, 2))])
    res = verify_E2(mu, (0, 1, 2), [b])
    assert res.lhs == 1 and res.rhs == Fraction(1, 2)
    assert not res.holds


def test_verify_e2_bad_factorization():
    s4 = symmetric_group(4)
    mu = point_mass(s4, s4)
    with pytest.raises(BadFactorization):
        verify_E2(mu, (0, 1), [identity(4)])


def test_verify_e2_product_sweep_smoke():
    # small slice of the exhaustive acceptance sweep
    amb = product_of_symmetric([2, 3])
    subs = subgroups_of(amb)
    for lam in subs[:6]:
        mu = uniform_conjugate_measure(lam, amb)
        for b in lam.elements:
            res = verify_E2(mu, (0, 1), [b])
            assert res.holds


# Oracles: the verifiers as they were before the ambient data was kept per
# ambient and invariance per measure.  Every call checks invariance on a
# fresh copy of the measure, recomputes the ambient transporter and rigid
# stabilizer, and (for the index bound) rebuilds the conjugate measure.

def verify_E1_oracle(mu, U, V, A):
    U = tuple(sorted(U))
    V = tuple(sorted(V))
    ConjInvariantMeasure(mu.ambient, mu.support).check_invariance()
    A = {tuple(a) for a in A}
    ambient_T = transporter(mu.ambient, U, V)
    if not A <= set(ambient_T.restrictions):
        raise ValueError("A must consist of restrictions of ambient transporter elements")
    RU = frozenset(restrict(p, U) for p in rigid_stabilizer(mu.ambient, U).elements)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for H, w in mu.support:
        tv = transporter(H, U, V)
        if not tv.elements:
            continue
        if A & set(tv.restrictions):
            lhs += w
        barHUU = frozenset(restrict(p, U) for p in transporter(H, U, U).elements)
        index = Fraction(len(RU), len(RU & barHUU))
        rhs += w * min(Fraction(len(A)) / index, Fraction(1))
    return VerifyResult(lhs, rhs, lhs <= rhs)


def verify_index_oracle(gamma, Q, U, V, ambient):
    U = tuple(sorted(U))
    Q = [tuple(q) for q in Q]
    nu = uniform_conjugate_measure(gamma, ambient)
    Qset = set(Q)
    lhs = nu.expectation(lambda H: Fraction(1) if Qset & H.element_set else Fraction(0))
    QU = set(map(composer(U), Q))  # the restrictions q|_U
    rhs = Fraction(gamma.order * len(QU), factorial(len(U)))
    return VerifyResult(lhs, rhs, lhs <= rhs)


def disjoint_pairs(degree):
    pts = range(degree)
    for ru in range(1, degree):
        for U in itertools.combinations(pts, ru):
            rest = [x for x in pts if x not in U]
            for rv in range(1, len(rest) + 1):
                yield from ((U, V) for V in itertools.combinations(rest, rv))


def with_class_measures(ambient):
    """(gamma, mu) for every subgroup gamma of the ambient, where mu is one
    uniform conjugate measure shared by gamma's whole conjugacy class, as
    cli.counting_rows shares it; members of a class are not adjacent, so
    each measure is reused warm between other classes' members."""
    measures = {}
    for gamma in subgroups_of(ambient):
        key = frozenset(conjugacy_orbit(gamma.elements, ambient.generators))
        if key not in measures:
            measures[key] = uniform_conjugate_measure(gamma, ambient)
        assert measures[key] == uniform_conjugate_measure(gamma, ambient)
        yield gamma, measures[key]
    assert len(measures) < len(subgroups_of(ambient))  # some measure was shared


@pytest.mark.parametrize("ambient", [
    symmetric_group(4), product_of_symmetric([2, 3]),
], ids=["S4", "S2xS3"])
def test_verifiers_equal_recomputing_oracles(ambient):
    # one ambient object and one measure per conjugacy class for every
    # (U, V), so the kept ambient data, the remembered invariance, and the
    # measure's E1 profiles and mean order are all used warm; the index
    # bound is a Sym(X) statement, refused over the product
    pairs = list(disjoint_pairs(ambient.degree))
    symmetric = ambient.order == factorial(ambient.degree)
    checked = 0
    for gamma, mu in with_class_measures(ambient):
        for U, V in pairs:
            tv = transporter(gamma, U, V)
            for A in (tv.restrictions, transporter(ambient, U, V).restrictions[:1]):
                assert verify_E1(mu, U, V, A) == verify_E1_oracle(mu, U, V, A)
            if symmetric:
                assert (verify_index(mu, tv.elements, U, V)
                        == verify_index_oracle(gamma, tv.elements, U, V, ambient))
            else:
                with pytest.raises(NotSymmetricAmbient):
                    verify_index(mu, tv.elements, U, V)
            checked += 1
    assert checked == len(subgroups_of(ambient)) * len(pairs)


def test_verify_e1_meets_inside_rigid_stabilizer():
    # (C3 x C3) : (C2 x C2) on the blocks {0, 1, 2} and {3, 4, 5}.  For
    # U = {0, 1, 2}, R(U) = <(0 1 2)>, while some subgroups carry U onto
    # itself by (1 2): their U -> U restrictions neither contain nor lie in
    # R(U), so the index must be taken on the meet.  In a product of
    # symmetric groups those restrictions always lie in R(U).
    ambient = GeneratedGroup(6, [from_cycles(6, (0, 1, 2)), from_cycles(6, (3, 4, 5)),
                                 from_cycles(6, (1, 2), (4, 5)),
                                 from_cycles(6, (0, 3), (1, 4), (2, 5))])
    assert ambient.order == 36
    RU = {restrict(p, (0, 1, 2)) for p in rigid_stabilizer(ambient, (0, 1, 2)).elements}
    straddling = 0
    for gamma, mu in with_class_measures(ambient):
        HUU = {restrict(p, (0, 1, 2)) for p in transporter(gamma, (0, 1, 2), (0, 1, 2)).elements}
        straddling += not (HUU <= RU or RU <= HUU)
        for U, V in (((0, 1, 2), (3, 4, 5)), ((3, 4, 5), (0, 1, 2))):
            restrictions = transporter(ambient, U, V).restrictions
            for A in [restrictions] + [[a] for a in restrictions]:
                assert verify_E1(mu, U, V, A) == verify_E1_oracle(mu, U, V, A)
    assert straddling


def E1_profile_oracle(mu, U):
    """``irs._E1_profile`` as it was built member by member: every support
    member's own transporters at U, as (w, restriction set) pairs by V, and
    the weights summed by meet size."""
    RU = frozenset(map(composer(U), rigid_stabilizer(mu.ambient, U).elements))
    profile = {}
    for H, w in mu.support:
        ts = transporters(H, U)
        meet = len(RU.intersection(ts[U].restrictions))
        for V, t in ts.items():
            if V == U:
                continue
            members, by_meet = profile.setdefault(V, ([], {}))
            members.append((w, frozenset(t.restrictions)))
            by_meet[meet] = by_meet.get(meet, 0) + w
    return profile


def assert_profile_equals_oracle(mu):
    mu.check_invariance()
    for U in nonempty_subsets(tuple(range(mu.ambient.degree))):
        got = _E1_profile(mu, U)
        expect = E1_profile_oracle(mu, U)
        assert got.keys() == expect.keys()
        for V, (classes, by_meet) in got.items():
            members, want_by_meet = expect[V]
            assert Counter((w, rs) for w, rss in classes for rs in rss) == Counter(members)
            assert by_meet == want_by_meet


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_E1_profile_by_class_equals_member_by_member(degree):
    # every class measure of Sym(degree) and every U: the profile read off
    # the class representative through the conjugators is the one every
    # member's own transporters give
    ambient = symmetric_group(degree)
    subs, classes = enumerate_subgroups(degree)
    for cls in classes:
        mu = uniform_conjugate_measure(subs[cls[0]], ambient)
        assert len(mu.classes()) == 1
        assert_profile_equals_oracle(mu)


def mixture(parts, ambient):
    """The measure sum of w * mu over (w, mu) in parts, on disjoint supports."""
    support = [(H, w * v) for w, mu in parts for H, v in mu.support]
    return ConjInvariantMeasure(ambient, tuple(sorted(support, key=lambda Hw: Hw[0].elements)))


def test_E1_profile_over_several_classes_with_unequal_weights():
    # mixtures and a stabilizer measure: their classes are found by
    # conjugacy orbits, and each class carries its own member weight
    s4 = symmetric_group(4)
    subs, classes = enumerate_subgroups(4)
    cyclic = uniform_conjugate_measure(GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))]), s4)
    klein = point_mass(GeneratedGroup(4, [from_cycles(4, (0, 1), (2, 3)),
                                          from_cycles(4, (0, 2), (1, 3))]), s4)
    measures = [
        mixture([(Fraction(1, 3), cyclic), (Fraction(2, 3), klein)], s4),
        mixture([(Fraction(1, 4), uniform_conjugate_measure(subs[cls[0]], s4))
                 for cls in classes[1:5]], s4),
        stabilizer_measure(product_of_symmetric([2, 3])),  # weights 2/5 and 1/5
    ]
    for mu, n_classes, n_weights in zip(measures, (2, 4, 2), (2, 3, 2)):
        assert len(mu.classes()) == n_classes
        assert len({w for _, w, _ in mu.classes()}) == n_weights
        assert sum(len(members) for _, _, members in mu.classes()) == len(mu.support)
        assert_profile_equals_oracle(mu)
        for U, V in disjoint_pairs(mu.ambient.degree):
            restrictions = transporter(mu.ambient, U, V).restrictions
            for A in (restrictions[:1], restrictions):
                assert verify_E1(mu, U, V, A) == verify_E1_oracle(mu, U, V, A)


def test_uniform_conjugate_measure_keeps_its_class():
    # the one class that classes() walks from the first member is the
    # support in order, each member with a conjugator carrying the first
    # member onto it, even when gamma is not the first member; a copy walks
    # the same class
    s4 = symmetric_group(4)
    gamma = GeneratedGroup(4, [from_cycles(4, (0, 1))])
    mu = uniform_conjugate_measure(gamma, s4)
    assert mu.support[0][0].elements != tuple(sorted(gamma.elements))
    (R, w, members), = mu.classes()
    assert R is mu.support[0][0] and w == Fraction(1, 6)
    assert [H for H, _ in members] == [H for H, _ in mu.support]
    assert members[0][1] == identity(4)
    for H, g in members:
        assert tuple(sorted(conjugate(r, g) for r in R.elements)) == H.elements
    copy = dataclasses.replace(mu)
    (R2, w2, members2), = copy.classes()
    assert (R2, w2) == (R, w)
    assert {H.elements for H, _ in members2} == {H.elements for H, _ in members}
    for H, g in members2:
        assert tuple(sorted(conjugate(r, g) for r in R.elements)) == H.elements


def test_not_conj_invariant_raises_on_every_call():
    s3 = symmetric_group(3)
    bad = point_mass(GeneratedGroup(3, [from_cycles(3, (0, 1))]), s3)
    A = [(1,)]
    for _ in range(2):
        with pytest.raises(NotConjInvariant):
            verify_E1(bad, (0,), (1,), A)
        with pytest.raises(NotConjInvariant):
            verify_E2(bad, (0, 1, 2), [identity(3)])
    # another measure over the same ambient passes and warms its data
    good = uniform_conjugate_measure(GeneratedGroup(3, [from_cycles(3, (0, 1))]), s3)
    assert verify_E1(good, (0,), (1,), A).holds
    assert verify_E1(good, (0,), (1,), A).holds
    with pytest.raises(NotConjInvariant):
        verify_E1(bad, (0,), (1,), A)
    with pytest.raises(NotConjInvariant):
        verify_E2(bad, (0, 1, 2), [identity(3)])
    with pytest.raises(NotConjInvariant):
        verify_index(bad, [], (0,), (1,))


def test_not_conj_invariant_e2_over_product():
    amb = product_of_symmetric([2, 3])
    bad = point_mass(GeneratedGroup(5, [from_cycles(5, (2, 3))]), amb)
    for _ in range(2):
        with pytest.raises(NotConjInvariant):
            verify_E2(bad, (0, 1), [identity(5)])


def test_verify_e1_rejects_bad_A_with_warm_ambient():
    s4 = symmetric_group(4)
    mu = uniform_conjugate_measure(GeneratedGroup(4, [from_cycles(4, (0, 1, 2, 3))]), s4)
    assert verify_E1(mu, (0,), (1,), [(1,)]).holds
    for _ in range(2):
        with pytest.raises(ValueError, match="restrictions of ambient"):
            verify_E1(mu, (0,), (1,), [(2,)])
        with pytest.raises(ValueError, match="restrictions of ambient"):
            verify_E1(point_mass(s4, s4), (0,), (1,), [(1,), (3,)])
    assert verify_E1(mu, (0,), (1,), [(1,)]).holds


def test_verify_e1_refuses_a_wrong_conjugator(wrong_conjugators):
    # the stabilizer measure's class is walked by perm.conjugacy_orbit; a
    # walk that hands back wrong conjugators used to make verify_E1 relabel
    # the wrong members and answer 1/4 on both sides
    s4 = symmetric_group(4)
    A = transporter(s4, (0,), (2,)).restrictions
    half = Fraction(1, 2)
    assert verify_E1(stabilizer_measure(s4), (0,), (2,), A) == VerifyResult(half, half, True)
    wrong_conjugators()
    cold = symmetric_group(4)  # s4 keeps the class it walked
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no conjugator carries subgroup 0 of class 0"):
            verify_E1(stabilizer_measure(cold), (0,), (2,), A)


def test_unequal_weights_in_one_class_are_refused():
    # the four point stabilizers of Sym(4) form one closed class; with
    # weights 1/2, 1/6, 1/6, 1/6 the support is closed but not invariant
    s4 = symmetric_group(4)
    stabilizers = [H for H, _ in stabilizer_measure(s4).support]
    weights = [Fraction(1, 2)] + [Fraction(1, 6)] * 3
    bad = ConjInvariantMeasure(s4, tuple(zip(stabilizers, weights)))
    A = transporter(s4, (0,), (1,)).restrictions
    for refused in (bad.classes, bad.check_invariance,
                    lambda: verify_E1(bad, (0,), (1,), A),
                    lambda: verify_index(bad, [], (0,), (1,)),
                    lambda: verify_E2(bad, (0, 1, 2, 3), [identity(4)])):
        with pytest.raises(NotConjInvariant, match="not closed under conjugation"):
            refused()


S3 = symmetric_group(3)


@pytest.mark.parametrize("refused, error, message", [
    (lambda: transporter(S3, (0, 1), (1, 2)), ValueError, "U and V must be disjoint or equal"),
    (lambda: ConjInvariantMeasure(S3, ((S3, Fraction(1, 2)),)), ValueError,
     "weights sum to 1/2, not 1"),
    (lambda: point_mass(symmetric_group(4), alternating_group(4)), NotASubgroup,
     "is not a subgroup of the ambient group"),
    # a support of Sym(4) over Sym(3) used to be accepted and then fail in
    # classes() with an IndexError; over Alt(4) it was accepted and
    # verify_E1 answered for it
    (lambda: ConjInvariantMeasure(S3, ((symmetric_group(4), Fraction(1)),)), NotASubgroup,
     "subgroup of order 24 generated by .* is not a subgroup of the ambient group"),
    (lambda: ConjInvariantMeasure(alternating_group(4), ((symmetric_group(4), Fraction(1)),)),
     NotASubgroup, "order 24 .* is not a subgroup of the ambient group"),
    (lambda: verify_E1(point_mass(S3, S3), (), (1,), []), ValueError,
     "U, V must be disjoint and non-empty"),
    (lambda: verify_E1(point_mass(S3, S3), (0, 1), (1, 2), []), ValueError,
     "U, V must be disjoint and non-empty"),
    (lambda: verify_E2(point_mass(S3, S3), (0, 3), [identity(3)]), BadFactorization,
     r"side1: points must be distinct integers in 0\.\.2, not \(0, 3\)"),
    (lambda: verify_E2(point_mass(S3, S3), (1, 1), [identity(3)]), BadFactorization,
     r"side1: points must be distinct integers in 0\.\.2, not \(1, 1\)"),
    (lambda: verify_E2(point_mass(alternating_group(3), alternating_group(3)),
                       (0, 1, 2), [from_cycles(3, (0, 1))]), ValueError,
     "B must be a subset of the ambient group"),
], ids=["transporter-overlap", "weights", "point-mass", "support-over-S3", "support-over-A4",
        "E1-empty-U", "E1-overlap", "E2-partition", "E2-side1-repeated", "E2-B-outside"])
def test_irs_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


@pytest.mark.parametrize("U, V", [
    ((5,), (1,)), ((-1,), (1,)), ((0, 0), (1,)), ((0,), (1, 1)), ((0,), (3,)),
    ((0,), (True,)), ((0.0,), (1,)),
], ids=["past-degree", "negative", "repeated-U", "repeated-V", "V-past-degree",
        "bool", "float"])
def test_verifiers_refuse_points_outside_the_domain(U, V):
    # verify_E1 used to raise IndexError or KeyError for these or accept a
    # repeated point, and verify_index read p[-1] and answered
    s3 = symmetric_group(3)
    mu = point_mass(s3, s3)
    message = r"points must be distinct integers in 0\.\.2, not "
    with pytest.raises(ValueError, match=message):
        verify_E1(mu, U, V, [])
    with pytest.raises(ValueError, match=message):
        verify_index(mu, [], U, V)


def test_duplicated_support_is_refused():
    # two copies of Sym(3) at weight 1/2 each are the point mass at Sym(3)
    # written twice; verify_E1 used to answer 1/2 for it where the point
    # mass answers 1
    s3 = symmetric_group(3)
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match=r"subgroup of order 6 generated by .* twice"):
        ConjInvariantMeasure(s3, ((s3, half), (s3, half)))
    with pytest.raises(ValueError, match="twice"):  # the same elements, other generators
        ConjInvariantMeasure(s3, ((s3, half), (GeneratedGroup(3, s3.elements), half)))
    A = transporter(s3, (0,), (1,)).restrictions
    assert verify_E1(point_mass(s3, s3), (0,), (1,), A) == VerifyResult(1, 1, True)


def test_measures_over_a_walked_ambient_walk_no_orbit(monkeypatch):
    # class_records files every class it walks on the ambient, so a measure
    # over it reads its classes from there, and the class measures' members
    # are new groups with the records' elements and generators
    product = product_of_symmetric([2, 3])
    records = class_records(product)

    def refused(*args):
        raise AssertionError("conjugacy_orbit called")

    monkeypatch.setattr(perm, "conjugacy_orbit", refused)
    for rec in records:
        mu = uniform_conjugate_measure(rec.members[0][0], product)
        (R, w, members), = mu.classes()
        assert R is mu.support[0][0] and w == Fraction(1, len(rec.members))
        assert [(H, g) for H, g in members] == [(H, g) for (H, _), (_, g)
                                                 in zip(mu.support, rec.members)]
        for (H, _), (G, g) in zip(mu.support, rec.members):
            assert H is not G
            assert (H.elements, H.generators) == (G.elements, G.generators)
            assert H.element_set == {conjugate(r, g) for r in R.elements}
    assert len(stabilizer_measure(product).classes()) == 2


def test_class_record_with_a_wrong_conjugator_is_refused(monkeypatch):
    # each walk conjugator is checked against R's few walk generators as the
    # one class is filed; a cold walk of the six transpositions of Sym(4),
    # from their least member R, hands member 2 the conjugator of R, so no
    # record is filed and every read of the class raises
    s4 = symmetric_group(4)
    R = GeneratedGroup(4, [from_cycles(4, (2, 3))])
    real = perm.conjugacy_orbit

    def wrong(els, generators):
        orbit = real(els, generators)
        orbit[sorted(orbit)[2]] = orbit[min(orbit)]
        return orbit

    monkeypatch.setattr(perm, "conjugacy_orbit", wrong)
    assert len(R.generators) == 1
    for read in (lambda: perm.conjugacy_class(R, s4),
                 lambda: uniform_conjugate_measure(R, s4)):
        for _ in range(2):
            with pytest.raises(RuntimeError, match="onto subgroup 2 of class 0"):
                read()
    assert not s4.memo("perm.classes", dict)


@pytest.mark.parametrize("member", [1, 5])
def test_classes_refuses_a_corrupted_conjugator(monkeypatch, member):
    # the class table checks its conjugators as it files them, so only a
    # record corrupted after filing reaches the check in classes(): member
    # i of the six transpositions' class gets the identity as conjugator
    s4 = symmetric_group(4)
    R = GeneratedGroup(4, [from_cycles(4, (2, 3))])
    mu = uniform_conjugate_measure(R, s4)
    real = irs.conjugacy_class

    def corrupted(H, ambient, c=0):
        record = real(H, ambient, c)
        members = list(record.members)
        members[member] = (members[member][0], identity(4))
        return record._replace(members=tuple(members))

    monkeypatch.setattr(irs, "conjugacy_class", corrupted)
    for _ in range(2):  # a refused check keeps nothing on the measure
        with pytest.raises(RuntimeError, match=f"onto subgroup {member} of class 0"):
            mu.classes()
    monkeypatch.undo()
    assert len(mu.classes()) == 1


def W222():
    """The level-2 group W(2,2,2) of T_{2,2}, of order 128."""
    return GeneratedGroup(8, [from_cycles(8, (0, 4), (1, 5), (2, 6), (3, 7)),
                              from_cycles(8, (0, 2), (1, 3)), from_cycles(8, (0, 1))])


def test_verify_index_refuses_an_ambient_that_is_not_symmetric():
    # over W(2,2,2), the uniform measure on the 8 conjugates of the swap of
    # the two halves meets that swap's own transporter from U = (0,1,2,3)
    # to V = (4,5,6,7) with probability 1/8, above the Sym(8) bound
    # E[|H|] |Q_U| / |U|! = 1/12; that is no counterexample, since the bound
    # is for Sym(X)-invariant measures, so the question is refused
    W = W222()
    assert W.order == 128
    gamma = GeneratedGroup(8, [from_cycles(8, (0, 4), (1, 5), (2, 6), (3, 7))])
    mu = uniform_conjugate_measure(gamma, W)
    assert len(mu.support) == 8
    U, V = (0, 1, 2, 3), (4, 5, 6, 7)
    Q = transporter(gamma, U, V).elements
    assert sum(w for H, w in mu.support if set(Q) & H.element_set) == Fraction(1, 8)
    assert Fraction(2 * len(set(map(composer(U), Q))), factorial(4)) == Fraction(1, 12)
    with pytest.raises(NotSymmetricAmbient, match="order 128"):
        verify_index(mu, Q, U, V)
    assert verify_E1(mu, U, V, transporter(gamma, U, V).restrictions).holds
    product = product_of_symmetric([2, 3])
    nu = uniform_conjugate_measure(GeneratedGroup(5, [from_cycles(5, (0, 1))]), product)
    with pytest.raises(NotSymmetricAmbient, match="order 12"):
        verify_index(nu, [], (0,), (1,))


def verify_E2_oracle(mu, side1, side2, B):
    """``verify_E2``'s loop as it was before its B-independent data was
    kept on the measure: L_1, pi_2(H), H_1 and N_1 are rebuilt on every
    call."""
    side1 = tuple(sorted(side1))
    side2 = tuple(sorted(side2))
    ConjInvariantMeasure(mu.ambient, mu.support).check_invariance()
    B = [tuple(b) for b in B]
    L1 = mu.ambient.restricted(side1)
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


@pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_product_E2_rows_equal_the_per_call_oracle(a, b):
    # every row of cli.product_E2_rows, verified with one measure per
    # class and the kept E2 data, equals the per-call loop under a measure
    # built for each subgroup on its own
    product = product_of_symmetric([a, b])
    side1, side2 = tuple(range(a)), tuple(range(a, a + b))
    pts = lambda points: ";".join(map(str, points))
    expect = []
    for lid, lam in enumerate(subgroups_of(product)):
        mu = uniform_conjugate_measure(lam, product)
        for x in lam.elements:
            res = verify_E2_oracle(mu, side1, side2, [x])
            expect.append(["E2", a + b, lid, pts(side1), pts(side2),
                           res.lhs.numerator, res.lhs.denominator,
                           res.rhs.numerator, res.rhs.denominator, f"B={pts(x)}", res.holds])
    assert cli.product_E2_rows(a, b) == expect


def test_verify_E2_with_several_elements_equals_the_oracle():
    # the stabilizer count of S = pi_1(B) H_1 against the oracle's set of
    # N_1-conjugates, for B of 0, 2 and 3 elements under every class
    # measure of Sym(2) x Sym(3), with either factor as side 1; the last B
    # generates the product, so no member of a smaller class contains it
    product = product_of_symmetric([2, 3])
    Bs = [[], [from_cycles(5, (0, 1)), from_cycles(5, (2, 3, 4))],
          [from_cycles(5, (0, 1), (2, 3)), from_cycles(5, (2, 4)), identity(5)],
          [from_cycles(5, (0, 1)), from_cycles(5, (2, 3)), from_cycles(5, (2, 3, 4))]]
    records = class_records(product)
    uncontained = 0
    for rec in records:
        mu = uniform_conjugate_measure(rec.members[0][0], product)
        for sides in [((0, 1), (2, 3, 4)), ((2, 3, 4), (0, 1))]:
            for B in Bs:
                res = verify_E2(mu, sides[0], B)
                assert res == verify_E2_oracle(mu, *sides, B), (rec.members[0][0], sides, B)
                uncontained += res.lhs == 0 and B == Bs[-1]
    assert uncontained == 2 * (len(records) - 1)


def test_E2_refusals_come_before_the_kept_data(monkeypatch):
    # a bad factorization reads no memo at all, and a measure that is not
    # invariant reads only its class check, never the E2 data
    keys = []
    real = ConjInvariantMeasure.memo
    monkeypatch.setattr(ConjInvariantMeasure, "memo",
                        lambda self, key, build: keys.append(key) or real(self, key, build))
    s4 = symmetric_group(4)
    with pytest.raises(BadFactorization):
        verify_E2(point_mass(s4, s4), (0, 1), [identity(4)])
    assert keys == []
    product = product_of_symmetric([2, 3])
    bad = point_mass(GeneratedGroup(5, [from_cycles(5, (2, 3))]), product)
    for _ in range(2):
        with pytest.raises(NotConjInvariant):
            verify_E2(bad, (0, 1), [identity(5)])
    assert keys == ["irs.classes", "irs.classes"]
    good = uniform_conjugate_measure(GeneratedGroup(5, [from_cycles(5, (2, 3))]), product)
    with pytest.raises(ValueError, match="subset of the ambient"):
        verify_E2(good, (0, 1), [from_cycles(5, (1, 2))])
    assert ("irs.E2", (0, 1)) not in keys
    assert verify_E2(good, (0, 1), [identity(5)]).holds
    assert keys[-1] == ("irs.E2", (0, 1))
