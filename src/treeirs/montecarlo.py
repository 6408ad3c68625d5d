"""Seeded Monte Carlo estimators for the tree-orbit matching experiments.

Reproducibility contract: the random bits consumed by trial ``t`` of a run
depend only on ``(seed, t)``, so identical (config, seed) pairs give
bit-identical results.  Every estimator runs its trials 0, 1, ... in one
plain loop: the trials are pure Python, so threads would only contend for
the interpreter lock.

The generator is SplitMix64: a 64-bit counter stream with a strong mixing
finalizer, keyed here by hashing the seed and the trial index together.  An
estimator mixes its seed once per run (``TrialRng.for_seed``) and only the
trial index once per trial; the streams are those of ``TrialRng(seed, t)``.

Small configurations repeat their draws.  Each estimator counts the distinct
argument pairs its trials can pass to ``Matcher.same``: C(N, k)^2 for
treematch on N leaves, C(g, k)^2 for colormatch on g label slots, C(m, k)
for cut1 and C(m, k) C(m - k, k) for cut2 on m leaves.  When that count is
at most ``trials``, at least ``trials - count`` decisions are repeats, so
``same`` goes behind a memo that lives for that one call; it adds at most
one entry per trial, each for a new pair, so it never holds more than
min(count, trials).  Above the count ``same`` is called once per trial.
Every draw and every decision is the same either way.

Acceptance criterion C4 reads the ``exact_*`` values against the estimates.
Each is refused (``BudgetExceeded``) when it would count more than
``canon.DEFAULT_BUDGET`` subsets, or pairs for cut2; colormatch counts the
subsets of its label slots.
``TrialRng.next64`` and ``randbelow`` are the reference for the draws that
``sample_seq`` inlines, and the tier-1 tests compare the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

from .canon import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Matcher,
    # unused here since Matcher decides matches; perfbench's tests still read it
    canon_full,  # noqa: F401
    orbit_census,
)
from .perm import _is_json_int
from .tree import ColourScheme, check_label, check_tree, cone_leaf_labels

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class KTooLarge(ValueError):
    pass


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _seed_key(seed: int) -> int:
    return _mix64((seed & _MASK64) ^ _GOLDEN)


def _trial_state(key: int, trial: int) -> int:
    return _mix64(key ^ _mix64((trial * _GOLDEN + 0x1F) & _MASK64))


class TrialRng:
    """Deterministic SplitMix64 stream for one (seed, trial) pair."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, trial: int):
        self._state = _trial_state(_seed_key(seed), trial)

    @classmethod
    def for_seed(cls, seed: int):
        """``trial -> TrialRng(seed, trial)``, with the seed mixed once for
        the whole run rather than once per trial."""
        key = _seed_key(seed)
        new = cls.__new__

        def trial_rng(trial: int) -> TrialRng:
            rng = new(cls)
            rng._state = _trial_state(key, trial)
            return rng

        return trial_rng

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection."""
        if n <= 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            r = self.next64() & mask
            if r < n:
                return r

    def sample(self, m: int, k: int) -> tuple[int, ...]:
        """Sorted uniform k-subset of range(m): ``sample_seq``'s draws, sorted."""
        return tuple(sorted(self.sample_seq(m, k)))

    def sample_seq(self, m: int, k: int) -> tuple[int, ...]:
        """Uniform ordered sequence of k distinct values from range(m).

        The first k steps of a Fisher-Yates shuffle of range(m), each step
        swapping position i with i + ``randbelow(m - i)``.  Only the
        positions a swap has touched are stored, in a dict, so a draw costs
        O(k), not O(m); the ``randbelow`` and ``next64`` steps are inlined,
        with the same draws and the same final state.
        """
        if k > m:
            raise KTooLarge(f"k={k} exceeds population {m}")
        state = self._state
        moved = {}
        out = []
        for i in range(k):
            n = m - i
            j = i
            if n > 1:
                mask = (1 << (n - 1).bit_length()) - 1
                while True:
                    state = (state + _GOLDEN) & _MASK64
                    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
                    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
                    r = (z ^ (z >> 31)) & mask
                    if r < n:
                        break
                j += r
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        self._state = state
        return tuple(out)


@dataclass(frozen=True)
class Estimate:
    experiment: str
    params: tuple[tuple[str, object], ...]
    trials: int
    successes: int
    seed: int

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def stderr(self) -> float:
        if not self.trials:
            return 0.0
        p = self.p_hat
        return sqrt(p * (1.0 - p) / self.trials)


def _count_matches(draw, same, pairs: int, trials: int, seed: int) -> int:
    """Number of t in range(trials) with ``same(*draw(TrialRng(seed, t)))``,
    where ``draw`` can return at most ``pairs`` distinct pairs; with
    ``pairs <= trials``, ``same`` is memoised for this run (module docstring)."""
    if not _is_json_int(trials):
        raise ValueError(f"bad trials {trials!r}: not an int")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    trial_rng = TrialRng.for_seed(seed)
    if pairs > trials:
        return sum(1 for t in range(trials) if same(*draw(trial_rng(t))))
    memo = {}
    hits = 0
    for t in range(trials):
        pair = draw(trial_rng(t))
        hit = memo.get(pair)
        if hit is None:
            hit = memo[pair] = same(*pair)
        hits += hit
    return hits


def _check_k(k: int, room: int, draws: int = 1, leaves: str = "leaves") -> None:
    """Refuse a k that is no int or negative, or ``draws`` disjoint k-subsets of ``room`` leaves."""
    if not _is_json_int(k):
        raise ValueError(f"bad k {k!r}: not an int")
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if draws * k > room:
        size = f"k={k}" if draws == 1 else f"{draws}k={draws * k}"
        raise KTooLarge(f"{size} exceeds {room} {leaves}")


def _warn_if_outside_paper_range(k: int, half: float) -> None:
    if not 2 <= k <= half:
        warnings.warn(f"k={k} is outside the bound's stated range [2, {half:g}]",
                      stacklevel=3)


def estimate_treematch(d: int, n: int, k: int, trials: int, seed: int,
                       scheme: ColourScheme | None = None,
                       parent_colour: int | None = None,
                       workers: int = 1) -> Estimate:
    """P(E ~ F) for independent uniform k-subsets of two depth-n cones.

    Full mode by default; pass a scheme for colour-constrained equivalence
    (both cone roots get the same parent colour, so forms are comparable).
    ``workers`` is accepted and ignored: trials run in one loop, and the
    keyword stays only because the benchmark's ``sample`` workload passes it.
    """
    same = Matcher(n, d, scheme, parent_colour).same  # refuses a scheme of another d
    leaves = d ** n
    _check_k(k, leaves)
    _warn_if_outside_paper_range(k, leaves / 2)

    def draw(rng: TrialRng):
        return rng.sample(leaves, k), rng.sample(leaves, k)

    succ = _count_matches(draw, same, comb(leaves, k) ** 2, trials, seed)
    mode = "full" if scheme is None else "coloured"
    return Estimate("treematch", (("d", d), ("n", n), ("k", k), ("mode", mode)),
                    trials, succ, seed)


def _split_two_cones(subset, cone_size: int):
    e1 = [x for x in subset if x < cone_size]
    e2 = [x - cone_size for x in subset if cone_size <= x < 2 * cone_size]
    return tuple(e1), tuple(e2)


def _cut_level(d: int, q: int, n: int, k: int, draws: int = 1):
    """(m, d^n, full-mode ``same``) for the cut experiments on the m = q d^n
    leaves of level n, after refusing ``draws`` k-subsets that do not fit;
    q >= 2, since the cuts compare the two root cones C_u and C_v."""
    check_tree(d, q)
    m = q * d ** n
    _check_k(k, m, draws)
    return m, d ** n, Matcher(n, d).same


def estimate_cut1(d: int, q: int, n: int, k: int, trials: int, seed: int) -> Estimate:
    """P((K sigma) n C_u ~ (K sigma) n C_v) for uniform sigma on q d^n leaves.

    The image of any fixed k-set K under uniform sigma is a uniform k-subset,
    so its law depends on K only through k, and it is sampled directly.
    """
    m, cone_size, same = _cut_level(d, q, n, k)

    def draw(rng: TrialRng):
        return _split_two_cones(rng.sample(m, k), cone_size)

    succ = _count_matches(draw, same, comb(m, k), trials, seed)
    return Estimate("cut1", (("d", d), ("q", q), ("n", n), ("k", k)),
                    trials, succ, seed)


def estimate_cut2(d: int, q: int, n: int, k: int, trials: int, seed: int) -> Estimate:
    """P((K1 sigma) n C_u ~ (K2 sigma) n C_v) for disjoint fixed k-sets K1, K2."""
    m, cone_size, same = _cut_level(d, q, n, k, draws=2)

    def draw(rng: TrialRng):
        # ``same`` reads its arguments as sets, so sorting the two halves of
        # the draw changes no decision; it lets the memo key on the sets
        seq = rng.sample_seq(m, 2 * k)
        return (_split_two_cones(sorted(seq[:k]), cone_size)[0],
                _split_two_cones(sorted(seq[k:]), cone_size)[1])

    succ = _count_matches(draw, same, comb(m, k) * comb(m - k, k), trials, seed)
    return Estimate("cut2", (("d", d), ("q", q), ("n", n), ("k", k)),
                    trials, succ, seed)


def estimate_colormatch(scheme: ColourScheme, n: int, k: int, orbit_i: int,
                        trials: int, seed: int, root_label: int = 0) -> Estimate:
    """P(E1 ~ E2) for independent uniform k-subsets of the label-i leaf slots.

    Both cones carry the representative colour of ``root_label`` on their
    parent edges; equivalence is the colour-constrained one.
    """
    parent_colour = scheme.reps[check_label(scheme, root_label, "root_label")]
    check_label(scheme, orbit_i, "orbit")
    same = Matcher(n, scheme.d, scheme, parent_colour).same
    labels = cone_leaf_labels(scheme, parent_colour, n)
    ground = tuple(i for i, lab in enumerate(labels) if lab == orbit_i)
    _check_k(k, len(ground), leaves=f"label-{orbit_i} leaves")
    _warn_if_outside_paper_range(k, len(ground) / 2)

    def draw(rng: TrialRng):
        return (tuple(ground[i] for i in rng.sample(len(ground), k)),
                tuple(ground[i] for i in rng.sample(len(ground), k)))

    succ = _count_matches(draw, same, comb(len(ground), k) ** 2, trials, seed)
    return Estimate("colormatch",
                    (("d", scheme.d), ("n", n), ("k", k), ("orbit", orbit_i),
                     ("root_label", root_label)),
                    trials, succ, seed)


# ---------------------------------------------------------------------------
# exact enumeration oracles for the small configurations
# ---------------------------------------------------------------------------

def exact_treematch(d: int, n: int, k: int, scheme: ColourScheme | None = None,
                    parent_colour: int | None = None) -> Fraction:
    """Census-derived exact match probability: sum of (class/total)^2.  Like
    every ``exact_*`` value, refused past ``DEFAULT_BUDGET`` subsets or pairs."""
    return orbit_census(d, n, k, scheme, parent_colour).match_probability()


def exact_colormatch(scheme: ColourScheme, n: int, k: int, orbit_i: int,
                     root_label: int = 0) -> Fraction:
    """Exact colormatch probability from the census of the label-i leaf slots."""
    check_label(scheme, orbit_i, "orbit")
    return orbit_census(scheme.d, n, k, scheme,
                        scheme.reps[check_label(scheme, root_label, "root_label")],
                        leaf_label=orbit_i).match_probability()


def exact_cut1(d: int, q: int, n: int, k: int) -> Fraction:
    """Exact cut1 probability by enumerating all images K sigma."""
    m, cone_size, same = _cut_level(d, q, n, k)
    total = comb(m, k)
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{total} subsets exceed budget={DEFAULT_BUDGET}")
    hits = sum(1 for image in combinations(range(m), k)
               if same(*_split_two_cones(image, cone_size)))
    return Fraction(hits, total)


def exact_cut2(d: int, q: int, n: int, k: int) -> Fraction:
    """Exact cut2 probability over ordered pairs of disjoint k-subsets."""
    m, cone_size, same = _cut_level(d, q, n, k, draws=2)
    total = comb(m, k) * comb(m - k, k)
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{total} pairs exceed budget={DEFAULT_BUDGET}")
    hits = 0
    for img1 in combinations(range(m), k):
        e1 = _split_two_cones(img1, cone_size)[0]
        free = [x - cone_size for x in range(cone_size, min(2 * cone_size, m))
                if x not in img1]
        # only |e2| = |e1| can match; each such e2 extends to an img2 in
        # comb(others, k - |e1|) ways outside the second cone
        ways = comb(m - k - len(free), k - len(e1))
        if ways:
            hits += ways * sum(1 for e2 in combinations(free, len(e1)) if same(e1, e2))
    return Fraction(hits, total)
