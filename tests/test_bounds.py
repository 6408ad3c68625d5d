import itertools
import math
from fractions import Fraction

import pytest

from treeirs import bounds
from treeirs.bounds import (
    BoundParams,
    DomainError,
    SummabilityReport,
    aggregate_bound_log,
    case_bound_log,
    chernoff_dominates,
    chernoff_tail,
    delta_n,
    hypergeom_pmf,
    hypergeom_tail_ge,
    k_n,
    logaddexp,
    rel_entropy,
    size1_bound,
    size1_bound_log,
    stirling_bounds,
    summability_scan,
    sup_bound_ratio,
)

# 49-decimal directed rational brackets for e and pi, for exact Stirling checks
E_LO = Fraction(27182818284590452353602874713526624977572470936999, 10 ** 49)
E_HI = E_LO + Fraction(1, 10 ** 49)
PI_LO = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)
PI_HI = PI_LO + Fraction(1, 10 ** 49)


def ln_rational(r: Fraction, terms: int = 200) -> Fraction:
    """Series oracle for log: artanh form, ln r = 2 sum y^(2j+1)/(2j+1), y=(r-1)/(r+1)."""
    y = (r - 1) / (r + 1)
    acc = Fraction(0)
    power = y
    for j in range(terms):
        acc += power / (2 * j + 1)
        power *= y * y
    return 2 * acc


def test_rel_entropy_zero_iff_equal():
    for p in (0.1, 0.25, 0.5, 0.9):
        assert rel_entropy(p, p) == pytest.approx(0.0, abs=1e-15)
    grid = [i / 1000 for i in range(0, 1001)]
    for a in grid[::37]:
        for p in (0.2, 0.5, 0.8):
            h = rel_entropy(a, p)
            assert h >= -1e-15
            if abs(a - p) > 1e-9:
                assert h > 0


def test_rel_entropy_boundary():
    for p in (0.2, 0.5, 0.75):
        assert rel_entropy(1.0, p) == pytest.approx(math.log(1 / p), rel=1e-12)
        assert rel_entropy(0.0, p) == pytest.approx(math.log(1 / (1 - p)), rel=1e-12)


def test_rel_entropy_half_quarter_frozen():
    # H(1/2 || 1/4) = 1/2 log 2 + 1/2 log(2/3) = 1/2 log(4/3)
    val = rel_entropy(0.5, 0.25)
    assert val == pytest.approx(0.14384103622589045, rel=1e-12)
    series = (ln_rational(Fraction(4, 3))) / 2
    assert val == pytest.approx(float(series), rel=1e-12)


def test_rel_entropy_domain():
    with pytest.raises(DomainError):
        rel_entropy(0.5, 0.0)
    with pytest.raises(DomainError):
        rel_entropy(0.5, 1.0)
    with pytest.raises(DomainError):
        rel_entropy(1.5, 0.5)


def test_chernoff_tail_limits():
    assert chernoff_tail(0.5, 1e-9, 10) == pytest.approx(1.0, abs=1e-6)
    vals = [chernoff_tail(0.3, 0.2, k) for k in (1, 5, 20, 100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        chernoff_tail(0.5, 0.7, 3)


def test_hypergeom_pmf_example_vs_permutation_oracle():
    # x=4, u=2, k=2, i=1 -> 2/3; oracle enumerates all 24 permutations
    assert hypergeom_pmf(4, 2, 2, 1) == Fraction(2, 3)
    K, U = (0, 1), {0, 1}
    hits = {i: 0 for i in range(3)}
    for sigma in itertools.permutations(range(4)):
        hits[len({sigma[x] for x in K} & U)] += 1
    for i in range(3):
        assert hypergeom_pmf(4, 2, 2, i) == Fraction(hits[i], 24)


def test_hypergeom_pmf_normalization_and_range():
    for x in range(2, 13):
        for u in range(0, x + 1):
            for k in range(0, x + 1):
                assert sum(hypergeom_pmf(x, u, k, i) for i in range(-1, k + 2)) == 1
    assert hypergeom_pmf(6, 2, 3, 3) == 0  # i > min(u, k)


def test_chernoff_dominance_small_sweep():
    # exhaustive at x <= 8 here; the acceptance suite pushes to x <= 10
    for x in range(2, 9):
        for u in range(1, x):
            for k in range(1, x + 1):
                p = Fraction(u, x)
                for t in range(math.ceil(p * k), k + 1):
                    assert chernoff_dominates(x, u, k, t, "upper"), (x, u, k, t)
                for t in range(0, math.floor(p * k) + 1):
                    assert chernoff_dominates(x, u, k, t, "lower"), (x, u, k, t)


def test_chernoff_dominance_tight_case():
    # k = 1, t = 1: tail = u/x equals the bound exactly; must still pass
    assert hypergeom_tail_ge(6, 2, 1, 1) == Fraction(2, 6)
    assert chernoff_dominates(6, 2, 1, 1, "upper")


def test_sup_bound_ratio_basic():
    # k = 2 edge case: candidate range around pk includes i = 1, no zero division
    val = sup_bound_ratio(8, 4, 2)
    assert val > 0
    # symmetric case u = x/2, k even: the max over the window sits at i = k/2
    for x, k in ((12, 4), (20, 6), (16, 8)):
        u = x // 2
        p = Fraction(u, x)
        window = range(math.ceil(p * k / 2), math.floor(3 * p * k / 2) + 1)
        ratios = {i: float(hypergeom_pmf(x, u, k, i)) * math.sqrt(i * (k - i) / k)
                  for i in window}
        assert max(ratios, key=ratios.get) == k // 2


def test_sup_bound_ratio_regression_constant():
    # frozen on first run: max over the full grid x <= 50 is 0.55577... at
    # (x, u, k) = (50, 24, 25); 0.56 is the regression ceiling
    worst = 0.0
    for x in range(4, 51):
        for u in range(1, x):
            for k in range(2, x // 2 + 1):
                worst = max(worst, sup_bound_ratio(x, u, k))
    assert 0.55 < worst <= 0.56, worst


def test_stirling_bounds_floats():
    lo, hi = stirling_bounds(1)
    assert lo <= 1 <= hi
    lo, hi = stirling_bounds(10)
    assert lo <= 3628800 <= hi
    for n in (1, 2, 5, 17, 60, 170):
        lo, hi = stirling_bounds(n)
        assert hi / lo == pytest.approx(math.e / math.sqrt(2 * math.pi), rel=1e-12)
        assert lo <= math.factorial(n) <= hi


def test_stirling_bounds_exact_bigint():
    # certified with directed rational brackets for e and pi:
    #   lower: (n!)^2 e_lo^(2n) >= 2 pi_hi n^(2n+1)
    #   upper: (n!)^2 e_hi^(2n) <= n^(2n+1) e_lo^2
    for n in range(1, 31):
        f2 = Fraction(math.factorial(n)) ** 2
        assert f2 * E_LO ** (2 * n) >= 2 * PI_HI * Fraction(n) ** (2 * n + 1)
        # upper rearranged with net exponent 2n-2 >= 0 (equality at n = 1)
        assert f2 * E_HI ** (2 * n - 2) <= Fraction(n) ** (2 * n + 1)


def test_size1_bound_example():
    assert size1_bound(2, 2, 2, 2) == pytest.approx(4 / 3, rel=1e-12)
    # factorial dominates: log-space value decreasing in n past the crossover
    logs = [size1_bound_log(1, 2, 2, n) for n in range(2, 21)]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    assert size1_bound(1, 1, 2, 12) < 1e-100


def test_bound_params_alpha():
    params = BoundParams(d=2, q=4, C=1.0, c=1.0)
    assert params.alpha == 0.125
    assert 0 < params.alpha < (params.d - 1) / (2 * params.d)
    with pytest.raises(DomainError):
        BoundParams(d=2, q=4, C=0.0, c=1.0)


def test_bound_params_name_the_bad_tree_parameter():
    # both used to read "need d >= 2 and q >= 2"
    with pytest.raises(DomainError, match="need d >= 2, not 1"):
        BoundParams(d=1, q=4, C=1.0, c=1.0)
    with pytest.raises(DomainError, match="need q >= 2, not 1"):
        BoundParams(d=2, q=1, C=1.0, c=1.0)


@pytest.mark.parametrize("C, c", [(math.nan, 1.0), (1.0, math.nan),
                                  (math.inf, 1.0), (1.0, math.inf),
                                  (-math.inf, 1.0), (1.0, -math.inf)])
def test_bound_params_refuse_non_finite_constants(C, c):
    # NaN used to pass `C <= 0` and give a scan report claiming summability
    with pytest.raises(DomainError):
        BoundParams(d=2, q=4, C=C, c=c)


@pytest.mark.parametrize("case", ["I", "II", "III"])
@pytest.mark.parametrize("kn", [math.nan, math.inf, -math.inf])
def test_case_bound_log_refuses_non_finite_kn(case, kn):
    with pytest.raises(DomainError):
        case_bound_log(case, BoundParams(d=2, q=4, C=1.0, c=1.0), kn, t_gamma=1.0)


def test_delta_n_increasing():
    params = BoundParams(d=2, q=4, C=1.0, c=1.0)
    vals = [delta_n(params, n) for n in range(1, 40)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # chosen so that C exp(-c Delta_n^alpha) is exactly C / n^2
    for n in (2, 7, 100):
        assert math.exp(-params.c * delta_n(params, n) ** params.alpha) \
            == pytest.approx(n ** -2.0, rel=1e-9)


def test_case_bounds_shapes():
    params = BoundParams(d=2, q=3, C=2.0, c=0.5)
    kns = [float(k_n(params, n)) for n in range(1, 16)]
    logs_ii = [case_bound_log("II", params, kn) for kn in kns]
    assert all(a > b for a, b in zip(logs_ii, logs_ii[1:]))
    # case III decays only once c kn^(alpha/3q) outgrows log kn; with these
    # parameters that crossover sits near kn = e^560, so scan there
    big = [math.exp(y) for y in range(560, 710, 10)]
    logs_iii = [case_bound_log("III", params, kn) for kn in big]
    assert all(a > b for a, b in zip(logs_iii, logs_iii[1:]))
    logs_i = [case_bound_log("I", params, kn, t_gamma=kn / 2) for kn in kns]
    assert all(a > b for a, b in zip(logs_i[2:], logs_i[3:]))
    with pytest.raises(DomainError):
        case_bound_log("I", params, 10.0)
    with pytest.raises(DomainError):
        case_bound_log("IV", params, 10.0)


def test_logaddexp():
    assert logaddexp(math.log(2), math.log(3)) == pytest.approx(math.log(5))
    assert logaddexp(-math.inf, 1.5) == 1.5


def test_aggregate_and_summability_smoke():
    params = BoundParams(d=2, q=4, C=1.0, c=1.0)
    # both exponent variants computable; the 3q variant is the sharper one
    for n in (1, 2, 5, 10):
        assert aggregate_bound_log(params, n, 6) >= aggregate_bound_log(params, n, 3)
    rep = summability_scan(params, 5000, tol=1e-12)
    assert rep.n_max == 5000
    assert rep.max_term_log > 0  # the k_n term grows before it decays
    assert rep.tail_bound_term1 == pytest.approx(1 / 5000)


def full_summability_scan(params, n_max, tol=1e-12, q_multiplier=6):
    """Oracle: the term-by-term loop over every n = 1..n_max."""
    log_tol = math.log(tol)
    log_sum = max_term = -math.inf
    argmax = last_big = 0
    for n in range(1, n_max + 1):
        t = aggregate_bound_log(params, n, q_multiplier)
        log_sum = logaddexp(log_sum, t)
        if t > max_term:
            max_term, argmax = t, n
        if t >= log_tol:
            last_big = n
    first_small = last_big + 1 if last_big < n_max else None
    return SummabilityReport(n_max, log_sum, max_term, argmax, first_small,
                             tol, params.C / n_max)


@pytest.fixture
def term_count(monkeypatch):
    """Counts the terms summability_scan evaluates."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return aggregate_bound_log(*args)

    monkeypatch.setattr(bounds, "aggregate_bound_log", counted)
    return calls


def test_summability_scan_equals_full_loop_on_grid(term_count):
    # n_max = 500 sits before the k_n peak of the C9 parameters (n = 1454);
    # 1000 and 1001 sit inside the crossing window of tol = 1e-6 at C = 1
    # (n* = 1000), 3000 past every window of tol = 1e-6.  c = 67 and c = 200
    # keep the log sum small (about 14 and 0.5), so Delta-terms still move
    # it and the scan falls back to every term at these horizons.
    jumped = fell_back = 0
    for d, q, C, c, tol, qm, n_max in itertools.product(
            (2, 3), (2, 4), (0.5, 1.0, 3.0), (0.5, 1.0, 67.0, 200.0),
            (1e-12, 1e-6), (3, 6), (500, 1000, 1001, 3000)):
        params = BoundParams(d=d, q=q, C=C, c=c)
        term_count[0] = 0
        fast = summability_scan(params, n_max, tol, qm)
        evaluated = term_count[0]
        slow = full_summability_scan(params, n_max, tol, qm)
        assert fast == slow and repr(fast) == repr(slow), (d, q, C, c, tol, qm, n_max)
        jumped += evaluated < n_max
        fell_back += evaluated == n_max
    assert jumped >= 100 and fell_back >= 100, (jumped, fell_back)


@pytest.mark.parametrize("c, jumps", [
    (67.0, True),    # Delta-terms move the sum until n = 65536
    (200.0, False),  # the sum stays near 0.5: every term counts
])
def test_summability_scan_equals_full_loop_long_horizon(term_count, c, jumps):
    params = BoundParams(d=2, q=4, C=1.0, c=c)
    n_max = 100_000
    fast = summability_scan(params, n_max)
    assert (term_count[0] < n_max) == jumps
    assert fast == full_summability_scan(params, n_max)


@pytest.mark.parametrize("n_max", [1024, 1025, 1030, 5000])
def test_summability_scan_check_inside_crossing_window(term_count, n_max):
    # the k_n term is first seen dead at the check n = 1024, and tol puts n*
    # just above 1024, so that check lands inside the window: the scan must
    # evaluate the window (term 1024 is the last >= tol) before jumping on
    params = BoundParams(d=2, q=4, C=1.0, c=2.0)
    tol = 2.0 ** -20 * (1 - 1e-12)
    fast = summability_scan(params, n_max, tol, q_multiplier=3)
    assert term_count[0] == min(n_max, 1026)
    assert fast == full_summability_scan(params, n_max, tol, q_multiplier=3)
    assert fast.first_n_all_small == (None if n_max == 1024 else 1025)


def test_summability_scan_bit_identical_at_c9_horizon(term_count):
    params = BoundParams(d=2, q=4, C=1.0, c=1.0)
    fast = summability_scan(params, 1_100_000, tol=1e-12)
    assert term_count[0] < 5000
    slow = full_summability_scan(params, 1_100_000, tol=1e-12)
    assert fast == slow and repr(fast) == repr(slow)
    assert fast.first_n_all_small == 1_000_001 and fast.argmax_n == 1454


@pytest.mark.parametrize("kwargs", [
    {"n_max": 0}, {"n_max": -3},
    {"n_max": 10, "tol": 0.0}, {"n_max": 10, "tol": -1e-12},
    {"n_max": 10, "tol": 1.0}, {"n_max": 10, "tol": 2.0},
    {"n_max": 10, "tol": math.nan},
    {"n_max": 10, "q_multiplier": 0}, {"n_max": 10, "q_multiplier": -6},
])
def test_summability_scan_refuses_bad_input(kwargs):
    with pytest.raises(DomainError):
        summability_scan(BoundParams(d=2, q=4, C=1.0, c=1.0), **kwargs)


@pytest.mark.parametrize("n, q_multiplier", [(0, 6), (-1, 6), (5, 0), (5, -3)])
def test_aggregate_bound_log_refuses_bad_input(n, q_multiplier):
    with pytest.raises(DomainError):
        aggregate_bound_log(BoundParams(d=2, q=4, C=1.0, c=1.0), n, q_multiplier)


def test_hypergeom_vs_scipy():
    stats = pytest.importorskip("scipy.stats")
    for x in range(1, 11):
        for u in range(0, x + 1):
            for k in range(0, x + 1):
                points = list(range(-1, k + 2))
                law = stats.hypergeom(x, u, k)
                pmf, sf = law.pmf(points), law.sf([i - 1 for i in points])
                for i, p, tail in zip(points, pmf, sf):
                    assert float(hypergeom_pmf(x, u, k, i)) == pytest.approx(
                        p, rel=1e-9, abs=1e-15), (x, u, k, i)
                    assert float(hypergeom_tail_ge(x, u, k, i)) == pytest.approx(
                        tail, rel=1e-9, abs=1e-12), (x, u, k, i)
