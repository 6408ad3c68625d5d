import itertools
import math
import random
from fractions import Fraction

import pytest

from treeirs.canon import BudgetExceeded, ColourSchemeMismatch, canon_coloured, canon_full
from treeirs.montecarlo import (
    ESTIMATORS,
    Estimate,
    KTooLarge,
    TrialRng,
    estimate_colormatch,
    estimate_cut1,
    estimate_cut2,
    estimate_treematch,
    exact_colormatch,
    exact_cut1,
    exact_cut2,
    exact_treematch,
)
from treeirs.perm import enumerate_subgroups, from_cycles
from treeirs.tree import ColourScheme, cone_leaf_labels


def test_trial_rng_deterministic_and_distinct():
    a = [TrialRng(7, 3).next64() for _ in range(5)]
    b = [TrialRng(7, 3).next64() for _ in range(5)]
    assert a == b
    assert TrialRng(7, 4).next64() != TrialRng(7, 3).next64()
    assert TrialRng(8, 3).next64() != TrialRng(7, 3).next64()


def test_randbelow_range_and_rough_uniformity():
    rng = TrialRng(1, 1)
    counts = [0] * 6
    for _ in range(60000):
        counts[rng.randbelow(6)] += 1
    assert all(9500 < c < 10500 for c in counts)


def test_sample_edges():
    rng = TrialRng(2, 0)
    assert rng.sample(5, 5) == (0, 1, 2, 3, 4)
    assert rng.sample(5, 0) == ()
    with pytest.raises(KTooLarge):
        rng.sample(3, 4)


def test_sample_inclusion_frequency():
    # P(0 in sample) = k/m; check within 4 sigma over 10^5 draws
    m, k, n = 10, 3, 100_000
    hits = sum(1 for t in range(n) if 0 in TrialRng(5, t).sample(m, k))
    p = k / m
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * sigma


def test_estimate_fields():
    e = estimate_treematch(2, 2, 2, trials=1000, seed=3)
    assert e.trials == 1000
    assert e.p_hat == e.successes / 1000
    assert e.stderr == pytest.approx(math.sqrt(e.p_hat * (1 - e.p_hat) / 1000))


def test_reproducible_across_worker_counts():
    base = estimate_treematch(2, 3, 3, trials=4000, seed=99, workers=1)
    for w in (2, 3, 7):
        again = estimate_treematch(2, 3, 3, trials=4000, seed=99, workers=w)
        assert again.successes == base.successes


def test_treematch_k1_always_matches():
    e = estimate_treematch(2, 3, 1, trials=500, seed=1)
    assert e.p_hat == 1.0


def test_treematch_exact_point():
    assert exact_treematch(2, 2, 2) == Fraction(5, 9)
    e = estimate_treematch(2, 2, 2, trials=100_000, seed=7)
    assert abs(e.p_hat - 5 / 9) <= 3 * e.stderr


def test_cut1_exact_point_and_mc():
    assert exact_cut1(2, 2, 2, 2) == Fraction(4, 7)
    e = estimate_cut1(2, 2, 2, 2, trials=60_000, seed=11)
    assert abs(e.p_hat - 4 / 7) <= 3 * e.stderr


def test_cut1_full_level_is_certain():
    m = 2 * 2 ** 2
    e = estimate_cut1(2, 2, 2, m, trials=200, seed=5)
    assert e.p_hat == 1.0


def test_cut1_distribution_depends_only_on_k():
    # two different fixed K of the same size: statistically indistinguishable
    a = estimate_cut1(2, 2, 3, 4, trials=40_000, seed=21, K=(0, 1, 2, 3))
    b = estimate_cut1(2, 2, 3, 4, trials=40_000, seed=22, K=(1, 5, 9, 14))
    assert abs(a.p_hat - b.p_hat) <= 4 * (a.stderr + b.stderr)


def test_cut1_refuses_k_past_leaves_before_checking_K():
    # the default K = range(k) would run past the leaf range; the refusal
    # must still name the real fault, k > q d^n
    with pytest.raises(KTooLarge, match="k=9 exceeds 8 leaves"):
        estimate_cut1(2, 2, 2, 9, trials=1, seed=0)


@pytest.mark.parametrize("K", [(3, 3), (0, 8), (-1, 0), (0,), (0, 1, 2), (1, 1, 2)])
def test_cut1_refuses_K_that_is_not_a_k_subset(K):
    with pytest.raises(ValueError, match="K must be a k-subset"):
        estimate_cut1(2, 2, 2, 2, trials=1, seed=0, K=K)


def test_cut2_exact_point_and_mc():
    assert exact_cut2(2, 2, 2, 2) == Fraction(10, 21)
    e = estimate_cut2(2, 2, 2, 2, trials=60_000, seed=13)
    assert abs(e.p_hat - 10 / 21) <= 3 * e.stderr


def test_cut2_k0_empty_sets_match():
    e = estimate_cut2(2, 2, 2, 0, trials=100, seed=1)
    assert e.p_hat == 1.0


def test_cut2_mirrors_cut1_within_constant_factor():
    # with q = 2 the cut1 intersections partition K sigma, so only even k is
    # comparable (odd k makes cut1 exactly zero); check exact values at two
    # configs and sampled ones a level deeper
    for n, k in ((2, 2), (3, 4)):
        r = exact_cut1(2, 2, n, k) / exact_cut2(2, 2, n, k)
        assert Fraction(1, 3) < r < 3, (n, k, r)
    a = estimate_cut1(2, 2, 4, 6, trials=30_000, seed=41)
    b = estimate_cut2(2, 2, 4, 6, trials=30_000, seed=43)
    assert a.p_hat <= 3 * b.p_hat + 3 * (a.stderr + b.stderr)
    assert b.p_hat <= 3 * a.p_hat + 3 * (a.stderr + b.stderr)


def test_colormatch_exact_point_and_mc():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    assert exact_colormatch(s, 2, 1, 0) == Fraction(5, 9)
    e = estimate_colormatch(s, 2, 1, 0, trials=60_000, seed=17)
    assert abs(e.p_hat - 5 / 9) <= 3 * e.stderr


def test_colormatch_trivial_scheme_formula():
    # identity-only action: match iff the sets are equal, P = 1/C(g, k)
    triv = ColourScheme.trivial(2)
    for n, k, orbit_i in ((1, 1, 1), (2, 1, 2), (2, 2, 1)):
        from treeirs.tree import cone_leaf_labels
        g = sum(1 for lab in cone_leaf_labels(triv, triv.reps[0], n) if lab == orbit_i)
        if g < k:
            continue
        expect = Fraction(1, math.comb(g, k))
        assert exact_colormatch(triv, n, k, orbit_i) == expect
        e = estimate_colormatch(triv, n, k, orbit_i, trials=20_000, seed=23)
        tol = 3 * max(e.stderr, math.sqrt(float(expect) / 20_000))
        assert abs(e.p_hat - float(expect)) <= tol


def test_colormatch_full_scheme_reduces_to_treematch():
    full = ColourScheme.full(2)
    assert exact_colormatch(full, 2, 2, 0) == exact_treematch(2, 2, 2)
    a = estimate_colormatch(full, 3, 2, 0, trials=30_000, seed=31)
    b = estimate_treematch(2, 3, 2, trials=30_000, seed=31)
    assert abs(a.p_hat - b.p_hat) <= 3 * (a.stderr + b.stderr)


def test_treematch_coloured_mode():
    # with the full scheme, colour-constrained treematch is plain treematch
    full = ColourScheme.full(2)
    a = estimate_treematch(2, 3, 2, trials=20_000, seed=29, scheme=full)
    b = estimate_treematch(2, 3, 2, trials=20_000, seed=29)
    assert a.successes == b.successes
    triv = ColourScheme.trivial(2)
    c = estimate_treematch(2, 2, 2, trials=5_000, seed=29, scheme=triv)
    assert c.p_hat < b.p_hat  # identity-only action matches far less often


def test_paper_range_warning():
    with pytest.warns(UserWarning):
        estimate_treematch(2, 3, 7, trials=10, seed=1)


def test_estimators_registry():
    assert set(ESTIMATORS) == {"treematch", "cut1", "cut2", "colormatch"}


def test_treematch_refuses_scheme_of_other_d():
    # a d=3 scheme on a binary cone used to give an estimate for a ternary one
    with pytest.raises(ColourSchemeMismatch):
        estimate_treematch(2, 3, 2, 50, 1, scheme=ColourScheme.full(3))
    with pytest.raises(ColourSchemeMismatch):
        exact_treematch(2, 3, 2, scheme=ColourScheme.full(3))


# ---------------------------------------------------------------------------
# the estimators decide every trial exactly as comparing canonical forms does
# ---------------------------------------------------------------------------

def _forms_only_successes(experiment, trials, seed, d=2, q=2, n=2, k=2,
                          scheme=None, parent_colour=None, orbit=0):
    """Success count of a trial loop that compares canonical forms directly,
    drawing exactly what the estimators draw."""
    leaves = d ** n

    def same(a, b):
        if scheme is None:
            return canon_full(a, n, d) == canon_full(b, n, d)
        return (canon_coloured(a, n, scheme, parent_colour)
                == canon_coloured(b, n, scheme, parent_colour))

    if experiment == "colormatch":
        labels = cone_leaf_labels(scheme, parent_colour, n)
        ground = [i for i, lab in enumerate(labels) if lab == orbit]
    hits = 0
    for t in range(trials):
        rng = TrialRng(seed, t)
        if experiment == "treematch":
            a, b = rng.sample(leaves, k), rng.sample(leaves, k)
        elif experiment == "colormatch":
            a = [ground[i] for i in rng.sample(len(ground), k)]
            b = [ground[i] for i in rng.sample(len(ground), k)]
        else:
            if experiment == "cut1":
                img1 = img2 = rng.sample(q * leaves, k)
            else:
                seq = rng.sample_seq(q * leaves, 2 * k)
                img1, img2 = seq[:k], seq[k:]
            a = [x for x in img1 if x < leaves]
            b = [x - leaves for x in img2 if leaves <= x < 2 * leaves]
            if len(a) != len(b):
                continue
        hits += same(a, b)
    return hits


@pytest.mark.parametrize("seed", [1729, 7, 2024])
def test_estimators_equal_forms_only_loop(seed):
    transposition = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    moved = ColourScheme.from_generators(2, [from_cycles(3, (1, 2))])
    cases = [
        (estimate_treematch(2, 8, 4, 400, seed),
         dict(experiment="treematch", n=8, k=4)),
        (estimate_treematch(2, 8, 16, 400, seed),
         dict(experiment="treematch", n=8, k=16)),
        (estimate_treematch(2, 6, 8, 300, seed, scheme=moved, parent_colour=1),
         dict(experiment="treematch", n=6, k=8, scheme=moved, parent_colour=1)),
        (estimate_cut1(2, 2, 6, 8, 400, seed),
         dict(experiment="cut1", n=6, k=8)),
        (estimate_cut2(2, 2, 6, 8, 400, seed),
         dict(experiment="cut2", n=6, k=8)),
        (estimate_colormatch(transposition, 6, 8, 0, 300, seed),
         dict(experiment="colormatch", n=6, k=8, scheme=transposition,
              parent_colour=0)),
        # shallow coloured configs, where matches are common
        (estimate_treematch(2, 3, 2, 300, seed, scheme=moved, parent_colour=1),
         dict(experiment="treematch", n=3, k=2, scheme=moved, parent_colour=1)),
        (estimate_colormatch(transposition, 3, 2, 0, 300, seed),
         dict(experiment="colormatch", n=3, k=2, scheme=transposition,
              parent_colour=0)),
    ]
    for est, config in cases:
        expect = _forms_only_successes(trials=est.trials, seed=seed, **config)
        assert est == Estimate(est.experiment, est.params, est.trials, expect, seed), config
    assert all(est.successes for est, _ in cases[-2:])


def test_sample_is_sorted_sample_seq():
    # the Fisher-Yates body ``sample`` had before it delegated to ``sample_seq``
    def old_sample(rng, m, k):
        arr = list(range(m))
        for i in range(k):
            j = i + rng.randbelow(m - i)
            arr[i], arr[j] = arr[j], arr[i]
        return tuple(sorted(arr[:k]))

    gen = random.Random(314)
    for _ in range(2000):
        seed, trial = gen.getrandbits(64), gen.randrange(10 ** 6)
        m = gen.randint(0, 300)
        k = gen.randint(0, m)
        assert TrialRng(seed, trial).sample(m, k) == old_sample(TrialRng(seed, trial), m, k)


def test_exact_cut2_vs_pair_enumeration():
    # exact_cut2 counts the img2 outside the second cone instead of listing them
    def enumerate_pairs(d, q, n, k):
        m, size = q * d ** n, d ** n
        hits = total = 0
        for img1 in itertools.combinations(range(m), k):
            e1 = [x for x in img1 if x < size]
            rest = [x for x in range(m) if x not in img1]
            for img2 in itertools.combinations(rest, k):
                e2 = [x - size for x in img2 if size <= x < 2 * size]
                total += 1
                hits += len(e1) == len(e2) and canon_full(e1, n, d) == canon_full(e2, n, d)
        return Fraction(hits, total)

    # q = 1 has no second cone: only k = 0 matches
    for config in ((2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 1, 3), (3, 2, 1, 1), (2, 2, 1, 0),
                   (2, 1, 2, 0), (2, 1, 2, 1), (2, 1, 2, 2), (3, 1, 1, 1)):
        assert exact_cut2(*config) == enumerate_pairs(*config), config


# ---------------------------------------------------------------------------
# exact_colormatch against canonicalizing every subset of the label slots
# ---------------------------------------------------------------------------

def colormatch_by_subsets(scheme, n, k, orbit_i, root_label=0):
    """Oracle: canonicalize every k-subset of the label-``orbit_i`` leaves."""
    parent_colour = scheme.reps[root_label]
    labels = cone_leaf_labels(scheme, parent_colour, n)
    ground = [i for i, lab in enumerate(labels) if lab == orbit_i]
    total = math.comb(len(ground), k)
    counts = {}
    for sel in itertools.combinations(ground, k):
        fid = canon_coloured(sel, n, scheme, parent_colour)
        counts[fid] = counts.get(fid, 0) + 1
    return sum((Fraction(c, total) ** 2 for c in counts.values()), Fraction(0))


def test_exact_colormatch_equals_subset_loop():
    schemes = [ColourScheme(2, G) for G in enumerate_subgroups(3)[0]]
    schemes += [ColourScheme(3, G) for G in enumerate_subgroups(4)[0][::4]]
    for scheme in schemes:
        for n in range(4 if scheme.d == 2 else 3):
            for root_label in range(scheme.n_orbits):
                for orbit_i in range(scheme.n_orbits):
                    for k in range(scheme.d ** n + 2):
                        if math.comb(scheme.d ** n, k) > 2000:
                            continue
                        assert exact_colormatch(scheme, n, k, orbit_i, root_label) == \
                            colormatch_by_subsets(scheme, n, k, orbit_i, root_label), \
                            (scheme.F.generators, n, k, orbit_i, root_label)


def test_exact_colormatch_pinned_value_and_refusals():
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    # the degree-5 value the benchmark pins; 21 label-0 slots, C(21, 4) = 5985
    assert exact_colormatch(s, 5, 4, 0) == Fraction(136009, 35820225)
    assert exact_colormatch(s, 5, 4, 0, budget=5985) == Fraction(136009, 35820225)
    with pytest.raises(BudgetExceeded):
        exact_colormatch(s, 5, 4, 0, budget=5984)
    assert exact_colormatch(s, 2, 0, 0) == 1
    assert exact_colormatch(s, 2, 4, 0) == 0  # only 3 label-0 slots
