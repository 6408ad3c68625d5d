"""Seeded Monte Carlo estimators for the tree-orbit matching experiments.

Reproducibility contract: the random bits consumed by trial ``t`` of a run
depend only on ``(seed, t)``, so identical (config, seed) pairs give
bit-identical results.  Every estimator runs its trials 0, 1, ... in one
plain loop: the trials are pure Python, so threads would only contend for
the interpreter lock.

The generator is SplitMix64: a 64-bit counter stream with a strong mixing
finalizer, keyed here by hashing the seed and the trial index together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

from .canon import (
    BudgetExceeded,
    Matcher,
    # unused here since Matcher decides matches; perfbench's tests still read it
    canon_full,  # noqa: F401
    orbit_census,
)
from .tree import ColourScheme, cone_leaf_labels

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class KTooLarge(ValueError):
    pass


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class TrialRng:
    """Deterministic SplitMix64 stream for one (seed, trial) pair."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, trial: int):
        s = _mix64((seed & _MASK64) ^ _GOLDEN)
        self._state = _mix64(s ^ _mix64((trial * _GOLDEN + 0x1F) & _MASK64))

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
        """Uniform ordered sequence of k distinct values from range(m)."""
        if k > m:
            raise KTooLarge(f"k={k} exceeds population {m}")
        arr = list(range(m))
        for i in range(k):
            j = i + self.randbelow(m - i)
            arr[i], arr[j] = arr[j], arr[i]
        return tuple(arr[:k])


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


def _run_trials(trial_fn, trials: int) -> int:
    """Number of t in range(trials) for which trial_fn(t) is true."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    return sum(1 for t in range(trials) if trial_fn(t))


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
    if k > leaves:
        raise KTooLarge(f"k={k} exceeds {leaves} leaves")
    _warn_if_outside_paper_range(k, leaves / 2)

    def trial(t: int) -> bool:
        rng = TrialRng(seed, t)
        E = rng.sample(leaves, k)
        return same(E, rng.sample(leaves, k))

    succ = _run_trials(trial, trials)
    mode = "full" if scheme is None else "coloured"
    return Estimate("treematch", (("d", d), ("n", n), ("k", k), ("mode", mode)),
                    trials, succ, seed)


def _split_two_cones(subset, cone_size: int):
    e1 = [x for x in subset if x < cone_size]
    e2 = [x - cone_size for x in subset if cone_size <= x < 2 * cone_size]
    return tuple(e1), tuple(e2)


def estimate_cut1(d: int, q: int, n: int, k: int, trials: int, seed: int,
                  K: tuple[int, ...] | None = None) -> Estimate:
    """P((K sigma) n C_u ~ (K sigma) n C_v) for uniform sigma on q d^n leaves.

    K defaults to the first k leaves; the distribution of K sigma depends on
    K only through k, so any fixed K gives the same law (unit-tested).  The
    image of a fixed k-set under uniform sigma is sampled directly as a
    uniform k-subset.
    """
    m = q * d ** n
    if k > m:
        raise KTooLarge(f"k={k} exceeds {m} leaves")
    if K is None:
        K = tuple(range(k))
    if len(K) != k or len(set(K)) != k or any(not 0 <= x < m for x in K):
        raise ValueError("K must be a k-subset of the leaf range")
    cone_size = d ** n
    same = Matcher(n, d).same

    def trial(t: int) -> bool:
        rng = TrialRng(seed, t)
        return same(*_split_two_cones(rng.sample(m, k), cone_size))

    succ = _run_trials(trial, trials)
    return Estimate("cut1", (("d", d), ("q", q), ("n", n), ("k", k)),
                    trials, succ, seed)


def estimate_cut2(d: int, q: int, n: int, k: int, trials: int, seed: int) -> Estimate:
    """P((K1 sigma) n C_u ~ (K2 sigma) n C_v) for disjoint fixed k-sets K1, K2."""
    m = q * d ** n
    if 2 * k > m:
        raise KTooLarge(f"2k={2 * k} exceeds {m} leaves")
    cone_size = d ** n
    same = Matcher(n, d).same

    def trial(t: int) -> bool:
        rng = TrialRng(seed, t)
        seq = rng.sample_seq(m, 2 * k)
        return same(_split_two_cones(seq[:k], cone_size)[0],
                    _split_two_cones(seq[k:], cone_size)[1])

    succ = _run_trials(trial, trials)
    return Estimate("cut2", (("d", d), ("q", q), ("n", n), ("k", k)),
                    trials, succ, seed)


def estimate_colormatch(scheme: ColourScheme, n: int, k: int, orbit_i: int,
                        trials: int, seed: int, root_label: int = 0) -> Estimate:
    """P(E1 ~ E2) for independent uniform k-subsets of the label-i leaf slots.

    Both cones carry the representative colour of ``root_label`` on their
    parent edges; equivalence is the colour-constrained one.
    """
    parent_colour = scheme.reps[root_label]
    labels = cone_leaf_labels(scheme, parent_colour, n)
    ground = tuple(i for i, lab in enumerate(labels) if lab == orbit_i)
    if k > len(ground):
        raise KTooLarge(f"k={k} exceeds {len(ground)} label-{orbit_i} leaves")
    _warn_if_outside_paper_range(k, len(ground) / 2)
    same = Matcher(n, scheme.d, scheme, parent_colour).same

    def trial(t: int) -> bool:
        rng = TrialRng(seed, t)
        e1 = tuple(ground[i] for i in rng.sample(len(ground), k))
        e2 = tuple(ground[i] for i in rng.sample(len(ground), k))
        return same(e1, e2)

    succ = _run_trials(trial, trials)
    return Estimate("colormatch",
                    (("d", scheme.d), ("n", n), ("k", k), ("orbit", orbit_i),
                     ("root_label", root_label)),
                    trials, succ, seed)


ESTIMATORS = {
    "treematch": estimate_treematch,
    "cut1": estimate_cut1,
    "cut2": estimate_cut2,
    "colormatch": estimate_colormatch,
}


# ---------------------------------------------------------------------------
# exact enumeration oracles for the small configurations
# ---------------------------------------------------------------------------

def exact_treematch(d: int, n: int, k: int, scheme: ColourScheme | None = None,
                    parent_colour: int | None = None,
                    budget: int = 2_000_000) -> Fraction:
    """Census-derived exact match probability: sum of (class/total)^2."""
    return orbit_census(d, n, k, scheme, parent_colour,
                        budget=budget).match_probability()


def exact_colormatch(scheme: ColourScheme, n: int, k: int, orbit_i: int,
                     root_label: int = 0, budget: int = 2_000_000) -> Fraction:
    """Exact colormatch probability from the census of the label-i leaf slots."""
    return orbit_census(scheme.d, n, k, scheme, scheme.reps[root_label],
                        budget=budget, leaf_label=orbit_i).match_probability()


def exact_cut1(d: int, q: int, n: int, k: int, budget: int = 2_000_000) -> Fraction:
    """Exact cut1 probability by enumerating all images K sigma."""
    m = q * d ** n
    total = comb(m, k)
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget={budget}")
    cone_size = d ** n
    same = Matcher(n, d).same
    hits = sum(1 for image in combinations(range(m), k)
               if same(*_split_two_cones(image, cone_size)))
    return Fraction(hits, total)


def exact_cut2(d: int, q: int, n: int, k: int, budget: int = 2_000_000) -> Fraction:
    """Exact cut2 probability over ordered pairs of disjoint k-subsets."""
    m = q * d ** n
    total = comb(m, k) * comb(m - k, k)
    if total > budget:
        raise BudgetExceeded(f"{total} pairs exceed budget={budget}")
    cone_size = d ** n
    same = Matcher(n, d).same
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
