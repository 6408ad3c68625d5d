"""Closed-form probability bounds: the exact hypergeometric law, its exact
entropy-bound check, and the case bounds used in the classification argument.

Acceptance criterion C2 reads ``chernoff_dominates`` and the ``hypergeom_*``
laws, the ``bounds`` and ``classify`` commands read the case and aggregate
bounds, and C9 and the ``analytic`` benchmark read ``summability_scan``.

Numeric conventions: natural logarithm everywhere; bound values that can
under/overflow are computed and reported in log-space.  Whenever a claim is
an inequality between exactly representable quantities (hypergeometric tail
versus the entropy bound), it is decided in integers: each exact value is
an integer count over an integer total, built as one ``Fraction``, and the
entropy-bound check is one cross-multiplied comparison of integers; no
outward rounding is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, log

from .tree import check_tree


class DomainError(ValueError):
    pass


def _check_hypergeom(x: int, u: int, k: int) -> None:
    if k > x or k < 0 or not 0 <= u <= x:
        raise DomainError(f"bad hypergeometric parameters x={x}, u={u}, k={k}")


def hypergeom_pmf(x: int, u: int, k: int, i: int) -> Fraction:
    """P(|K sigma meets U| = i) for uniform sigma: C(u,i) C(x-u,k-i) / C(x,k)."""
    _check_hypergeom(x, u, k)
    if i < 0 or i > min(u, k) or k - i > x - u:
        return Fraction(0)
    return Fraction(comb(u, i) * comb(x - u, k - i), comb(x, k))


def _tail_count(x: int, u: int, k: int, t: int) -> int:
    """The k-subsets of an x-set that meet a fixed u-subset in t or more
    points: sum over i >= t of C(u, i) C(x-u, k-i); the parameters are
    checked by the caller."""
    return sum(comb(u, i) * comb(x - u, k - i) for i in range(max(t, 0), k + 1))


def hypergeom_tail_ge(x: int, u: int, k: int, t: int) -> Fraction:
    """P(|K sigma meets U| >= t): the tail count over C(x, k).  An empty
    range (t > k) gives 0 before any parameter is checked."""
    if max(t, 0) > k:
        return Fraction(0)
    _check_hypergeom(x, u, k)
    return Fraction(_tail_count(x, u, k, t), comb(x, k))


def chernoff_dominates(x: int, u: int, k: int, t: int, side: str = "upper") -> bool:
    """Exact check that the hypergeometric tail obeys the entropy bound.

    Upper side, threshold fraction a = t/k >= p = u/x:
        P(Z >= t) <= exp(-H(a||p) k)
    is equivalent, after exponentiating H(a||p) k with its two rational-log
    terms, to the exact rational inequality
        tail * (t x / (k u))^t * ((k-t) x / (k (x-u)))^(k-t) <= 1.
    With tail = S / C(x, k) for the tail count S, clearing the positive
    denominators gives one comparison of integers,
        S (t x)^t ((k-t) x)^(k-t) <= C(x, k) (k u)^t (k (x-u))^(k-t),
    which holds at once when S = 0 (also t > k, where k-t < 0).
    The lower side reduces to the upper side for the complement set.
    """
    if side == "lower":
        return chernoff_dominates(x, x - u, k, k - t, "upper")
    if side != "upper":
        raise DomainError(f"side must be 'upper' or 'lower', not {side!r}")
    if not (1 <= k <= x and 1 <= u < x):
        raise DomainError(f"need 1 <= k <= x and 0 < u < x; got x={x}, u={u}, k={k}")
    if t * x < u * k:
        raise DomainError("upper side needs t/k >= u/x")
    s = _tail_count(x, u, k, t)
    return s == 0 or (s * (t * x) ** t * ((k - t) * x) ** (k - t)
                      <= comb(x, k) * (k * u) ** t * (k * (x - u)) ** (k - t))


# ---------------------------------------------------------------------------
# classification case bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Tree parameters plus the free constants (C, c) left open by the bounds."""

    d: int
    q: int
    C: float
    c: float

    def __post_init__(self):
        check_tree(self.d, self.q, DomainError)
        if not (0 < self.C < math.inf and 0 < self.c < math.inf):
            raise DomainError("constants C, c must be positive and finite")

    @property
    def alpha(self) -> float:
        """(d-1)/(4d), a fixed choice inside (0, (d-1)/(2d))."""
        return (self.d - 1) / (4 * self.d)


def logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(exp(lo - hi))


def delta_n(params: BoundParams, n: int) -> float:
    """Delta_n = ((2/c) log n)^(1/alpha); chosen so exp(-c Delta_n^alpha) = n^-2."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return ((2.0 / params.c) * log(n)) ** (1.0 / params.alpha)


def k_n(params: BoundParams, n: int) -> int:
    return params.q * params.d ** n


def case_bound_log(case: str, params: BoundParams, kn: float,
                   t_gamma: float | None = None) -> float:
    """log of the per-case tail bound.

    I   (no giant component):  C e^{-c (kn - t)^alpha} + C e^{-c kn^(alpha/2q)}
    II  (primitive giant, no Alt): e^{-(kn/2q) log(kn/C)}
    III (imprimitive giant):   C kn e^{-c kn^(alpha/3q)}
    """
    if not math.isfinite(kn):
        raise DomainError(f"kn={kn} is not finite")
    a = params.alpha
    lnC = log(params.C)
    if case == "I":
        if t_gamma is None:
            raise DomainError("case I needs t_gamma")
        gap = max(kn - t_gamma, 0.0)
        return logaddexp(lnC - params.c * gap ** a,
                         lnC - params.c * kn ** (a / (2 * params.q)))
    if case == "II":
        return -(kn / (2 * params.q)) * log(kn / params.C)
    if case == "III":
        return lnC + log(kn) - params.c * kn ** (a / (3 * params.q))
    raise DomainError(f"unknown case {case!r}")


def _log_kn_and_penalty(params: BoundParams, n: int,
                        q_multiplier: int) -> tuple[float, float]:
    """(log kn, log of kn^(alpha/(m q))): the k_n term's two exponents."""
    log_kn = log(params.q) + n * log(params.d)
    return log_kn, (params.alpha / (q_multiplier * params.q)) * log_kn


def aggregate_bound_log(params: BoundParams, n: int, q_multiplier: int = 6) -> float:
    """log of C e^{-c Delta_n^alpha} + C kn e^{-c kn^(alpha/(m q))}.

    The per-case combination uses exponent alpha/3q while the aggregated
    statement uses alpha/6q; ``q_multiplier`` selects between them (6 is the
    aggregate as stated, 3 the sharper per-case form) so reports can surface
    both.  Works entirely in log-space: kn = q d^n overflows floats long
    before the series has settled.
    """
    if n < 1 or q_multiplier < 1:
        raise DomainError(f"need n >= 1 and q_multiplier >= 1; got n={n}, "
                          f"q_multiplier={q_multiplier}")
    a = params.alpha
    log_kn, pen_log = _log_kn_and_penalty(params, n, q_multiplier)
    t1 = log(params.C) - params.c * delta_n(params, n) ** a if n > 1 else log(params.C)
    if pen_log > 700.0:  # exp() would overflow; the term is effectively -inf
        t2 = -math.inf
    else:
        t2 = log(params.C) + log_kn - params.c * exp(pen_log)
    return logaddexp(t1, t2)


# exp() of anything below this is 0.0 (the least subnormal is e^-744.4), so
# logaddexp(a, b) returns a exactly when b - a lies below it
_UNDERFLOW_LOG = -1000.0


def _kn_term_negligible(params: BoundParams, n: int, q_multiplier: int) -> bool:
    """True if aggregate_bound_log(params, m) is exactly its Delta-term t1(m)
    for every m >= n >= 2.

    Either aggregate_bound_log drops the k_n term t2 from n on (its penalty
    exponent is monotone in m), or t2 - t1 lies below _UNDERFLOW_LOG at n and
    falls from there: with t1 = log C - 2 log m, the gap
    g(m) = log kn - c kn^beta + 2 log m has
    g'(m) = log d (1 - c beta kn^beta) + 2/m <= 0 once
    c beta kn^beta >= 1 + 2 / (m log d), and the left side only grows with m.
    Both tests hold with margins (a factor 2, and 255 nats past the underflow)
    far wider than the rounding of the float terms.
    """
    log_kn, pen_log = _log_kn_and_penalty(params, n, q_multiplier)
    if pen_log > 700.0:
        return True
    pen = params.c * exp(pen_log)
    beta = params.alpha / (q_multiplier * params.q)
    return (beta * pen >= 2.0 * (1.0 + 2.0 / (n * log(params.d)))
            and log_kn - pen + 2.0 * log(n) <= _UNDERFLOW_LOG)


@dataclass(frozen=True)
class SummabilityReport:
    n_max: int
    log_sum: float
    max_term_log: float
    argmax_n: int
    first_n_all_small: int | None  # first N with every later increment < tol
    tol: float
    tail_bound_term1: float  # analytic bound on the Delta-term tail past n_max

    @property
    def cauchy(self) -> bool:
        return self.first_n_all_small is not None


def summability_scan(params: BoundParams, n_max: int, tol: float = 1e-12,
                     q_multiplier: int = 6) -> SummabilityReport:
    """Accumulate the aggregate bound series in log-space up to n_max.

    Reports the log partial sum, the largest single term, and the first index
    past which every increment stays below ``tol``.  The Delta-term decays
    like C / n^2 by construction, so its tail past n_max is at most C / n_max
    (integral comparison); that analytic bound is included for callers that
    want a certified Cauchy statement rather than a scan horizon.

    The report is bit-identical to adding every term n = 1..n_max in order,
    but terms that provably cannot change it are skipped.  At each power of
    two n the scan asks whether, for every m >= n,

    * the term is exactly its Delta-term log C - c Delta_m^alpha, which is
      log C - 2 log m up to rounding (``_kn_term_negligible``), and
    * log C - 2 log n + 1, a bound on all those terms, is at most the largest
      term so far and leaves the log sum unchanged under ``logaddexp``.

    If so, no later term moves the sum or the maximum, and the last term at
    or above tol is found in closed form: log C - 2 log m crosses log tol at
    n* = exp((log C - log tol) / 2).  Outside the window of m with
    |log C - 2 log m - log tol| <= w = 1e-9 (1 + |log C| + |log tol|), the
    terms lie above or below tol by over 10^4 times their rounding error
    (a few dozen ulps of log C - 2 log m), so the scan jumps to
    the window, evaluates it term by term, then jumps to n_max, whose term
    is always evaluated (so an input whose terms the full loop cannot
    evaluate still raises).  Where the test fails (a large c keeps the sum
    small enough that Delta-terms still count) every term is evaluated.  At
    d=2, q=4, C=c=1, tol=1e-12 and n_max=1.1M that is 4099 evaluations.
    """
    if n_max < 1 or not 0.0 < tol < 1.0 or q_multiplier < 1:
        raise DomainError(f"need n_max >= 1, 0 < tol < 1 and q_multiplier >= 1; "
                          f"got n_max={n_max}, tol={tol}, q_multiplier={q_multiplier}")
    log_C, log_tol = log(params.C), log(tol)
    # the index exp(y), capped past the horizon (where exp() might overflow)
    w = 1e-9 * (1.0 + abs(log_C) + abs(log_tol))
    ceiling = log(n_max + 1)

    def index_at(y: float) -> int:
        return n_max + 1 if y >= ceiling else int(exp(y))

    log_sum = -math.inf
    max_term = -math.inf
    argmax = 0
    last_big = 0
    n, check = 1, 2
    while n <= n_max:
        if n == check:
            check = 2 * n
            bound = log_C - 2.0 * log(n) + 1.0
            if (_kn_term_negligible(params, n, q_multiplier) and bound <= max_term
                    and logaddexp(log_sum, bound) == log_sum):
                lo = index_at((log_C - log_tol - w) / 2)  # terms before lo are >= tol
                hi = index_at((log_C - log_tol + w) / 2) + 1  # terms past hi are < tol
                if n < lo:
                    n = min(lo, n_max)
                    last_big = n - 1
                elif n > hi:
                    n = n_max
                check = hi + 1
        t = aggregate_bound_log(params, n, q_multiplier)
        log_sum = logaddexp(log_sum, t)
        if t > max_term:
            max_term, argmax = t, n
        if t >= log_tol:
            last_big = n
        n += 1
    first_small = last_big + 1 if last_big < n_max else None
    return SummabilityReport(n_max, log_sum, max_term, argmax, first_small,
                             tol, params.C / n_max)
