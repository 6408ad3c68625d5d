import itertools
import math
import random
from fractions import Fraction

import pytest

from treeirs.canon import (
    BudgetExceeded,
    ColourSchemeMismatch,
    Matcher,
    canon_coloured,
    canon_full,
)
from treeirs.montecarlo import (
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


@pytest.mark.parametrize("build", [
    lambda: Estimate("treematch", (), 0, 0, 3),
    lambda: estimate_treematch(2, 2, 2, trials=0, seed=3),
    lambda: estimate_cut1(2, 2, 2, 2, trials=0, seed=3),
], ids=["fields", "treematch", "cut1"])
def test_estimate_with_no_trials(build):
    e = build()
    assert (e.trials, e.successes, e.p_hat, e.stderr) == (0, 0, 0.0, 0.0)


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


def test_cut1_refuses_k_past_leaves_before_checking_K():
    # the refusal names the real fault, k > q d^n
    with pytest.raises(KTooLarge, match="k=9 exceeds 8 leaves"):
        estimate_cut1(2, 2, 2, 9, trials=1, seed=0)


def test_exact_cuts_refuse_k_past_leaves():
    # both used to raise ZeroDivisionError from Fraction(0, 0)
    with pytest.raises(KTooLarge, match="k=9 exceeds 8 leaves"):
        exact_cut1(2, 2, 2, 9)
    with pytest.raises(KTooLarge, match="2k=10 exceeds 8 leaves"):
        exact_cut2(2, 2, 2, 5)
    assert exact_cut1(2, 2, 2, 8) == 1  # k = q d^n is still in range


@pytest.mark.parametrize("run", [
    lambda k: estimate_treematch(2, 2, k, trials=10, seed=1),
    lambda k: estimate_cut1(2, 2, 2, k, trials=10, seed=1),
    lambda k: estimate_cut2(2, 2, 2, k, trials=10, seed=1),
    lambda k: estimate_colormatch(ColourScheme.full(2), 2, k, 0, trials=10, seed=1),
], ids=["treematch", "cut1", "cut2", "colormatch"])
def test_estimators_refuse_negative_k(run):
    # each used to return p_hat 1.0 (cut2: 0.0) for k = -1
    with pytest.raises(ValueError, match="k=-1 must be >= 0"):
        run(-1)


@pytest.mark.parametrize("root_label", [-1, 1, 5])
def test_colormatch_refuses_root_label_without_orbit(root_label):
    # one orbit under Sym(3); label 5 used to raise IndexError and -1 to
    # wrap round to the last orbit
    s = ColourScheme.full(2)
    with pytest.raises(ValueError, match=f"root_label {root_label} out of range"):
        estimate_colormatch(s, 2, 1, 0, trials=10, seed=1, root_label=root_label)
    with pytest.raises(ValueError, match=f"root_label {root_label} out of range"):
        exact_colormatch(s, 2, 1, 0, root_label=root_label)


@pytest.mark.parametrize("q", [-1, 0, 1])
@pytest.mark.parametrize("run", [
    lambda q: estimate_cut1(2, q, 2, 0, trials=10, seed=1),
    lambda q: estimate_cut2(2, q, 2, 0, trials=10, seed=1),
    lambda q: exact_cut1(2, q, 2, 0),
    lambda q: exact_cut2(2, q, 2, 0),
], ids=["estimate_cut1", "estimate_cut2", "exact_cut1", "exact_cut2"])
def test_cuts_refuse_fewer_than_two_cones(run, q):
    # the cuts compare the cones C_u and C_v: q = 0 and 1 used to give an
    # answer on a tree without C_v, and q = -1 a refusal that named k
    with pytest.raises(ValueError, match=f"need q >= 2, not {q}"):
        run(q)


@pytest.mark.parametrize("orbit_i,k", [(7, 0), (-1, 1), (2, 0)])
def test_colormatch_refuses_orbit_the_scheme_lacks(orbit_i, k):
    # two orbits under <(0 1)>: orbit 7 used to give p_hat 1.0 at k = 0,
    # and -1 a refusal about "label--1 leaves"
    s = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
    with pytest.raises(ValueError, match=f"orbit {orbit_i} out of range"):
        estimate_colormatch(s, 2, k, orbit_i, trials=10, seed=1)
    with pytest.raises(ValueError, match=f"orbit {orbit_i} out of range"):
        exact_colormatch(s, 2, k, orbit_i)


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


def test_treematch_refuses_scheme_of_other_d():
    # a d=3 scheme on a binary cone used to give an estimate for a ternary one
    with pytest.raises(ColourSchemeMismatch):
        estimate_treematch(2, 3, 2, 50, 1, scheme=ColourScheme.full(3))
    with pytest.raises(ColourSchemeMismatch):
        exact_treematch(2, 3, 2, scheme=ColourScheme.full(3))


# ---------------------------------------------------------------------------
# the estimators decide every trial exactly as comparing canonical forms does
# ---------------------------------------------------------------------------

def _trial_pairs(experiment, trials, seed, d=2, q=2, n=2, k=2, scheme=None,
                 parent_colour=None, orbit=0):
    """The sorted (E, F) pair each trial decides, for t in range(trials),
    drawn from a fresh ``TrialRng(seed, t)`` exactly as the estimators draw."""
    leaves = d ** n
    if experiment == "colormatch":
        labels = cone_leaf_labels(scheme, parent_colour, n)
        ground = [i for i, lab in enumerate(labels) if lab == orbit]
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
        yield tuple(sorted(a)), tuple(sorted(b))


def _forms_only_successes(experiment, trials, seed, d=2, q=2, n=2, k=2,
                          scheme=None, parent_colour=None, orbit=0):
    """Success count of a trial loop that compares canonical forms directly,
    drawing exactly what the estimators draw."""
    def same(a, b):
        if scheme is None:
            return canon_full(a, n, d) == canon_full(b, n, d)
        return (canon_coloured(a, n, scheme, parent_colour)
                == canon_coloured(b, n, scheme, parent_colour))

    return sum(same(a, b) for a, b in _trial_pairs(
        experiment, trials, seed, d, q, n, k, scheme, parent_colour, orbit))


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


# ---------------------------------------------------------------------------
# a memo for one estimator run, used only when its trials must repeat pairs
# ---------------------------------------------------------------------------

_TRANSPOSITION = ColourScheme.from_generators(2, [from_cycles(3, (0, 1))])
_MOVED = ColourScheme.from_generators(2, [from_cycles(3, (1, 2))])

# (config, trial counts without the memo, trial counts with it): the memo is
# used from the config's distinct-pair count of trials up, and not one below
_MEMO_CASES = [
    (dict(experiment="treematch", n=2, k=2), (35,), (36, 400)),
    (dict(experiment="treematch", n=3, k=2), (300,), ()),
    (dict(experiment="treematch", n=2, k=2, scheme=_MOVED, parent_colour=1), (35,), (36, 400)),
    (dict(experiment="treematch", n=3, k=2, scheme=_MOVED, parent_colour=1), (300,), ()),
    (dict(experiment="cut1", n=2, k=2), (27,), (28, 400)),
    (dict(experiment="cut1", n=3, k=3), (300,), ()),
    (dict(experiment="cut2", n=2, k=2), (419,), (420, 1000)),
    (dict(experiment="cut2", n=3, k=2), (300,), ()),
    (dict(experiment="colormatch", n=2, k=1, scheme=_TRANSPOSITION, parent_colour=0),
     (8,), (9, 300)),
    (dict(experiment="colormatch", n=3, k=2, scheme=_TRANSPOSITION, parent_colour=0),
     (99,), (100, 300)),
    (dict(experiment="colormatch", n=4, k=2, scheme=_TRANSPOSITION, parent_colour=0),
     (300,), ()),
    (dict(experiment="colormatch", n=2, k=2, scheme=ColourScheme.full(2), parent_colour=0),
     (35,), (36, 400)),
]


def _estimate(experiment, trials, seed, d=2, q=2, n=2, k=2, scheme=None,
              parent_colour=None, orbit=0):
    if experiment == "treematch":
        return estimate_treematch(d, n, k, trials, seed, scheme=scheme,
                                  parent_colour=parent_colour)
    if experiment == "cut1":
        return estimate_cut1(d, q, n, k, trials, seed)
    if experiment == "cut2":
        return estimate_cut2(d, q, n, k, trials, seed)
    assert scheme.reps[0] == parent_colour
    return estimate_colormatch(scheme, n, k, orbit, trials, seed)


def _pair_count(experiment, d=2, q=2, n=2, k=2, scheme=None, parent_colour=None,
                orbit=0):
    """How many distinct (E, F) pairs the trials of ``experiment`` can draw."""
    m = q * d ** n
    if experiment == "treematch":
        return math.comb(d ** n, k) ** 2
    if experiment == "cut1":
        return math.comb(m, k)
    if experiment == "cut2":
        return math.comb(m, k) * math.comb(m - k, k)
    ground = sum(lab == orbit for lab in cone_leaf_labels(scheme, parent_colour, n))
    return math.comb(ground, k) ** 2


def _memo_params():
    for config, plain, memo in _MEMO_CASES:
        name = "-".join(str(v) for key, v in config.items() if key != "scheme")
        for trials in plain + memo:
            yield pytest.param(config, trials, trials in memo, id=f"{name}-{trials}")


@pytest.mark.parametrize("config,trials,memo", list(_memo_params()))
@pytest.mark.parametrize("seed", [1729, 7])
def test_estimators_equal_plain_matcher_loop(config, trials, memo, seed):
    # a trial loop with TrialRng(seed, t) and a fresh Matcher for every
    # trial, on both sides of the memo's pair-count rule
    assert (_pair_count(**config) <= trials) == memo
    d, n = config.get("d", 2), config["n"]
    scheme, parent_colour = config.get("scheme"), config.get("parent_colour")
    expect = sum(Matcher(n, d, scheme, parent_colour).same(a, b)
                 for a, b in _trial_pairs(trials=trials, seed=seed, **config))
    est = _estimate(trials=trials, seed=seed, **config)
    assert (est.trials, est.successes, est.seed) == (trials, expect, seed)


@pytest.mark.parametrize("config,trials,memo", list(_memo_params()))
def test_same_runs_once_per_distinct_pair_only_when_pairs_must_repeat(
        config, trials, memo, monkeypatch):
    calls = []
    decide = Matcher.same

    def counted(self, e, f):
        calls.append((tuple(e), tuple(f)))
        return decide(self, e, f)

    monkeypatch.setattr(Matcher, "same", counted)
    pairs = list(_trial_pairs(trials=trials, seed=1729, **config))
    for _ in range(2):  # a second run starts with an empty memo
        calls.clear()
        _estimate(trials=trials, seed=1729, **config)
        if memo:
            assert calls == list(dict.fromkeys(pairs))
            assert len(calls) <= min(_pair_count(**config), trials)
        else:
            assert calls == pairs


def test_trial_rng_for_seed_equals_trial_rng():
    seeds = [0, 1, 7, 1729, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, -3, 3 ** 50]
    trials = [0, 1, 2, 999, 10 ** 9, 2 ** 64 + 1]
    for seed in seeds:
        trial_rng = TrialRng.for_seed(seed)
        for t in trials:
            fast, slow = trial_rng(t), TrialRng(seed, t)
            assert type(fast) is TrialRng
            assert fast._state == slow._state
            assert [fast.next64() for _ in range(3)] == [slow.next64() for _ in range(3)]
            assert fast.sample(50, 7) == slow.sample(50, 7)
            assert fast.sample_seq(300, 12) == slow.sample_seq(300, 12)
            assert fast.sample(5, 5) == slow.sample(5, 5)
            assert fast._state == slow._state


def list_sample_seq(rng, m, k):
    """``TrialRng.sample_seq`` before it stored only touched positions: a
    Fisher-Yates prefix over the whole list range(m), drawing through
    ``randbelow``."""
    if k > m:
        raise KTooLarge(f"k={k} exceeds population {m}")
    arr = list(range(m))
    for i in range(k):
        j = i + rng.randbelow(m - i)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr[:k])


def test_sample_seq_vs_list_oracle():
    # same draws and the same final state, over random (seed, trial, m, k),
    # the edges m <= 1, k = 0 and k = m, and chains of draws on one stream
    gen = random.Random(2718)
    for _ in range(1500):
        seed, trial = gen.getrandbits(64), gen.randrange(10 ** 6)
        fast, slow = TrialRng(seed, trial), TrialRng(seed, trial)
        for _ in range(gen.randint(1, 4)):
            m = gen.choice([0, 1, 2, gen.randint(0, 40), gen.randint(0, 600)])
            k = gen.choice([0, m, gen.randint(0, m)])
            assert fast.sample_seq(m, k) == list_sample_seq(slow, m, k), (seed, trial, m, k)
            assert fast._state == slow._state
            assert fast.next64() == slow.next64()
    for m, k in ((0, 1), (3, 4)):
        with pytest.raises(KTooLarge):
            TrialRng(1, 1).sample_seq(m, k)


def test_sample_is_sorted_sample_seq():
    # the Fisher-Yates body ``sample`` had before it delegated to ``sample_seq``
    gen = random.Random(314)
    for _ in range(2000):
        seed, trial = gen.getrandbits(64), gen.randrange(10 ** 6)
        m = gen.randint(0, 300)
        k = gen.randint(0, m)
        expect = tuple(sorted(list_sample_seq(TrialRng(seed, trial), m, k)))
        assert TrialRng(seed, trial).sample(m, k) == expect


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

    for config in ((2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 1, 3), (3, 2, 1, 1), (2, 2, 1, 0)):
        assert exact_cut2(*config) == enumerate_pairs(*config), config
    # q = 1 has no second cone, so there is nothing to compare
    for config in ((2, 1, 2, 0), (2, 1, 2, 1), (2, 1, 2, 2), (3, 1, 1, 1)):
        with pytest.raises(ValueError, match="need q >= 2, not 1"):
            exact_cut2(*config)


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
    # 85 label-0 slots at degree 7, C(85, 4) = 2024785; all C(128, 4)
    # leaf subsets would be 10668000
    with pytest.raises(BudgetExceeded, match="2024785 subsets exceed budget=2000000"):
        exact_colormatch(s, 7, 4, 0)
    assert exact_colormatch(s, 2, 0, 0) == 1
    assert exact_colormatch(s, 2, 4, 0) == 0  # only 3 label-0 slots


@pytest.mark.parametrize("refused, error, message", [
    (lambda: estimate_treematch(2, 2, 2, trials=-1, seed=1), ValueError,
     "trials must be >= 0"),
    (lambda: exact_cut1(2, 2, 5, 6), BudgetExceeded, "74974368 subsets exceed budget=2000000"),
    (lambda: exact_cut2(2, 2, 4, 4), BudgetExceeded, "736281000 pairs exceed budget=2000000"),
], ids=["negative-trials", "cut1-budget", "cut2-budget"])
def test_montecarlo_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


@pytest.mark.parametrize("refused, message", [
    (lambda: estimate_treematch(2, 2, True, 10, 1), "bad k True: not an int"),
    (lambda: estimate_cut1(2, 2, 1, True, 10, 1), "bad k True: not an int"),
    (lambda: estimate_cut2(2, 2, 2, 1.0, 10, 1), "bad k 1.0: not an int"),
    (lambda: estimate_colormatch(ColourScheme.full(2), 2, 1.0, 0, 10, 1),
     "bad k 1.0: not an int"),
    (lambda: exact_cut1(2, 2, 2, 2.0), "bad k 2.0: not an int"),
    (lambda: estimate_treematch(2, 2, 2, 2.0, 1), "bad trials 2.0: not an int"),
    (lambda: estimate_cut1(2, 2, 1, 2, True, 1), "bad trials True: not an int"),
], ids=["treematch-bool-k", "cut1-bool-k", "cut2-float-k", "colormatch-float-k",
        "exact-cut1-float-k", "float-trials", "bool-trials"])
def test_counts_that_are_not_ints_are_refused(refused, message):
    # a bool k came back in the estimate's params, and a float trials count
    # died with a TypeError from range
    with pytest.raises(ValueError, match=message):
        refused()
