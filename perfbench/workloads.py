"""The benchmark's workloads: seeded inputs, timed tasks and their checks.

A workload is built by ``build(name, seed, size, workers, out_dir)``.  Building is the
input-generation step: everything that depends on the seed (estimator seeds,
scheme choices, random tree pairs) is drawn here, so the timed tasks receive
only finished inputs.  Each task calls the public API of one or more treeirs
layers and records checks on a ``Ledger``: an inequality's ``holds``, a
comparison with a reference value, or the digest of the task's outputs.

References come from the acceptance criteria (C2, C4, C5, C7, C9, C10) where
those pin a value; the remaining ones (class counts of the coloured censuses,
the degree-5 colormatch value, output digests) were taken from the program as
it stood when the benchmark was written, since the project requires its
outputs to stay byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

# Layer functions are looked up on their modules at call time, so the traced
# run's wrappers see the benchmark's own calls too.
from treeirs import bounds as bnd
from treeirs import canon, classify, cli, perm, thompson, tree
from treeirs import montecarlo as mc

DEFAULT_SEED = 1729
GAUGE_EVERY = 0.2  # seconds between host-speed readings inside a long step

# Known exact values: the C4 match probabilities, the C9 summability report
# and the C7 Praeger-Saxl audit, plus the subgroup counts of Sym(n) (OEIS
# A005432 / A000638) and the class counts of the full-mode censuses.
REFERENCE = {
    "full": {
        "ps_degree": 6, "ps_rows": 30, "ps_max_ratio": 0.029296875,
        "subgroups": 1455, "classes": 56,
        "counting_degree": 5, "counting_rows": 5401,
        "census": {(2, 4, 8): (35, 12870), (2, 5, 4): (30, 35960),
                   (3, 3, 4): (11, 17550)},
        "coloured_census": {(2, 4, 6): (1129, 8008), (2, 5, 3): (654, 4960)},
        "exact_colormatch": ((5, 4), Fraction(136009, 35820225)),
        "cli_census": (2, 4, 6),
        "scan_n_max": 1_100_000, "scan_argmax": 1454,
        "scan_first_small": 1_000_001, "scan_log_sum": 821.3537445965192,
        "chernoff_x_max": 10, "bounds_n_hi": 500,
        "level_n_max": 6, "pairs_per_shape": 1000,
        "curve": (8, (4, 8, 16, 32), 1000),
        "oracle_trials": 4000,
        "cut": (6, 8, 2000), "colormatch": (6, 8, 1000), "coloured_treematch": (6, 8, 1000),
    },
    "smoke": {
        "ps_degree": 5, "ps_rows": 18, "ps_max_ratio": 20 / 4 ** 5,
        "subgroups": 156, "classes": 19,
        "counting_degree": 3, "counting_rows": 97,
        "census": {(2, 3, 3): (3, 56)},
        "coloured_census": {(2, 3, 2): (None, 28)},
        "exact_colormatch": ((3, 2), None),
        "cli_census": (2, 3, 2),
        "scan_n_max": 20_000, "scan_argmax": 1454,
        "scan_first_small": None, "scan_log_sum": None,
        "chernoff_x_max": 5, "bounds_n_hi": 20,
        "level_n_max": 3, "pairs_per_shape": 30,
        "curve": (4, (2, 4), 200),
        "oracle_trials": 500,
        "cut": (3, 2, 200), "colormatch": (3, 2, 100), "coloured_treematch": (3, 2, 100),
    },
}
SMALL_EXACT = {"treematch": Fraction(5, 9), "cut1": Fraction(4, 7),
               "cut2": Fraction(10, 21), "colormatch": Fraction(5, 9)}

# SHA-256 of each task's outputs at the full size.  Tasks that use the seed are
# compared only at DEFAULT_SEED; the others at every seed.
DIGESTS = {
    ("lattice", "praeger_saxl"):
        "24e1613ae50c60652c2d01d53874b3d1bf9544beee56d4558f6efa3f6b5c7eec",
    ("lattice", "counting_rows"):
        "a88ee6f7eeac4df7f7c386b10369f66359402eabdd736894b64fc75981e6786c",
    ("lattice", "classify"):
        "afeb02f1cec57aade6bfdf038c3c3dfd2c8442bb12e441b74e5a11bcfc0b953c",
    ("sample", "curve"):
        "ab4ed6eb3de8aba6539e4d9e740dc35cade13fc724cafc9017cb85ab57941205",
    ("sample", "oracles"):
        "2a073150d526951cd2739bf7839c581794a041505774e5e41c26635024c40f4a",
    ("sample", "larger_configs"):
        "a9804ae5b277b4b29e15741f755815a3fbdfe92d8f2ecfd3295b6c03e8aba23e",
    ("census", "full_census"):
        "640e973d8faa529f24b749426ad60d5eb98bd8786dabf7061ab7fec2df943695",
    ("census", "coloured_census"):
        "f0937d46833cd51a699f8726d2a55a6d48c8365eaf470cc2ac6834edb6d1fef9",
    ("census", "exact_values"):
        "82da68c6c5eee13a86e89a13765227a1eeaccd62b53fa9433428647b343b45e0",
    ("census", "cli_census"):
        "23cc7c7cb4831df3de8fa94c52b3230a4fee4f4b240ed3cdc833709f603751d5",
    ("analytic", "summability_scan"):
        "481d207a89eef7bc8f1afd599cf2018af677866de18d279b8fd77dd32b01bc0f",
    ("analytic", "chernoff"):
        "3ad0132b599487fd8709237f40ddd77fe1e1bdfcd5dcabbd561524b6f717d76a",
    ("analytic", "bounds_cli"):
        "a35498b63df20fcc8dbb9018f3a2952fb3d73b45f29a9edd4ad4db35ac02b584",
    ("analytic", "level_counts"):
        "8e41a14de23eea225493630b7e63dd890e0468f5e0c1b573ea0b4916c4494684",
    ("analytic", "tree_pairs"):
        "6bb1be1cd986bc3ff47a9fa4d531f1597cfafafff48c75b35721823e96043beb",
}

# Checks each task makes when it runs to the end; a task that raises counts
# all of them as failed.
CHECK_COUNTS = {
    ("lattice", "full", "praeger_saxl"): 35,
    ("lattice", "full", "counting_rows"): 5402,
    ("lattice", "full", "classify"): 8730,
    ("sample", "full", "curve"): 8,
    ("sample", "full", "oracles"): 9,
    ("sample", "full", "larger_configs"): 4,
    ("census", "full", "full_census"): 9,
    ("census", "full", "coloured_census"): 6,
    ("census", "full", "exact_values"): 5,
    ("census", "full", "cli_census"): 2,
    ("analytic", "full", "summability_scan"): 4,
    ("analytic", "full", "chernoff"): 1882,
    ("analytic", "full", "bounds_cli"): 2,
    ("analytic", "full", "level_counts"): 1656,
    ("analytic", "full", "tree_pairs"): 9999,
    ("lattice", "smoke", "praeger_saxl"): 23,
    ("lattice", "smoke", "counting_rows"): 98,
    ("lattice", "smoke", "classify"): 936,
    ("sample", "smoke", "curve"): 4,
    ("sample", "smoke", "oracles"): 9,
    ("sample", "smoke", "larger_configs"): 4,
    ("census", "smoke", "full_census"): 3,
    ("census", "smoke", "coloured_census"): 2,
    ("census", "smoke", "exact_values"): 4,
    ("census", "smoke", "cli_census"): 2,
    ("analytic", "smoke", "summability_scan"): 1,
    ("analytic", "smoke", "chernoff"): 156,
    ("analytic", "smoke", "bounds_cli"): 2,
    ("analytic", "smoke", "level_counts"): 828,
    ("analytic", "smoke", "tree_pairs"): 300,
}


@dataclass
class Task:
    name: str
    run: Callable[["Ledger"], None]
    seeded: bool = False


# Tasks that run in separate fresh interpreters ("parts"), for a workload whose
# whole body is too long to repeat several times in one run.  Each part starts
# cold; a workload not listed here runs all its tasks in one part.
PARTS = {"lattice": (("praeger_saxl", "classify"), ("counting_rows",))}


def parts(workload: str, tasks: list[Task]) -> list[list[Task]]:
    """The workload's tasks, grouped by the interpreter they run in."""
    groups = PARTS.get(workload)
    if groups is None:
        return [tasks]
    by_name = {t.name: t for t in tasks}
    return [[by_name[name] for name in group] for group in groups]


@dataclass
class Ledger:
    """Checks, work units, counters, step times and the output digest of one
    timed body.

    ``gauge``, if set, reads the host's current speed (``reference.gauge``).
    It is read at every step boundary and at ``checkpoint`` calls at most
    every ``GAUGE_EVERY`` seconds, always outside the timed intervals.
    ``step_k`` is each step's time in gauge units: every interval divided by
    the mean of the readings at its two ends.
    """

    attempted: int = 0
    failed: int = 0
    units: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    task_s: dict = field(default_factory=dict)
    step_s: dict = field(default_factory=dict)
    gauge: Callable[[], float] | None = None
    step_k: dict = field(default_factory=dict)
    _task: str = ""
    _hash: object = None
    _lap: float = 0.0
    _raw: float = 0.0
    _k: float = 0.0
    _reading: float | None = None

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{self._task}: {label}")

    def record(self, value) -> None:
        """Feed an output into the current task's digest."""
        self._hash.update(repr(value).encode())
        self._hash.update(b"\n")

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def start_step(self) -> None:
        if self.gauge is not None and self._reading is None:
            self._reading = self.gauge()
        self._raw = self._k = 0.0
        self._lap = time.perf_counter()

    def _interval(self) -> None:
        """End the current interval: add it to the step, gauge, go on."""
        dt = time.perf_counter() - self._lap
        self._raw += dt
        if self.gauge is not None:
            reading = self.gauge()
            self._k += dt / ((self._reading + reading) / 2)
            self._reading = reading
        self._lap = time.perf_counter()

    def checkpoint(self) -> None:
        """Gauge inside a long step, if the last reading is old enough."""
        if self.gauge is not None and time.perf_counter() - self._lap >= GAUGE_EVERY:
            self._interval()

    def lap(self, step: str) -> None:
        """Close the current step of the task: the time since the task began
        or since its last lap is recorded as ``<task>/<step>``."""
        self._interval()
        key = f"{self._task}/{step}"
        self.step_s[key] = self._raw
        if self.gauge is not None:
            self.step_k[key] = self._k
        self.start_step()


def run_tasks(workload: str, tasks: list[Task], seed: int, size: str,
              ledger: Ledger) -> None:
    """Run every task; a task that raises fails every check it would make."""
    for task in tasks:
        ledger._task = task.name
        ledger._hash = hashlib.sha256()
        before = (ledger.attempted, ledger.failed)
        planned = CHECK_COUNTS.get((workload, size, task.name))
        ledger.start_step()
        steps_before = sum(ledger.step_s.values())
        try:
            task.run(ledger)
        except Exception as exc:  # a fault in one task must not hide the others
            made = ledger.attempted - before[0]
            lost = max(planned or 0, made + 1)
            ledger.attempted = before[0] + lost
            ledger.failed = before[1] + lost
            ledger.failures.append(f"{task.name}: raised {exc!r}")
            continue
        finally:
            ledger.lap("end")
            ledger.task_s[task.name] = sum(ledger.step_s.values()) - steps_before
        if planned is not None:
            ledger.check("number of checks made", ledger.attempted - before[0] == planned)
        digest = ledger._hash.hexdigest()
        ledger.digests[task.name] = digest
        pinned = DIGESTS.get((workload, task.name)) if size == "full" else None
        if pinned is not None and (not task.seeded or seed == DEFAULT_SEED):
            ledger.check("output digest", digest == pinned)


def _within(est, exact: Fraction, sigmas: float = 5.0) -> bool:
    """Is the estimate within ``sigmas`` binomial standard errors of exact?"""
    p = float(exact)
    return abs(est.p_hat - p) <= sigmas * math.sqrt(p * (1 - p) / est.trials)


def _coloured(d: int, scheme):
    """Refuse a coloured input whose cone arity differs from the scheme's d.

    treeirs takes d from the scheme and does not compare it with the d it
    is given, so a mismatch would silently time a computation on another tree.
    """
    if scheme.d != d:
        raise ValueError(f"coloured input with d={d} but scheme.d={scheme.d}")
    return scheme


def _transposition_scheme(a: int, b: int):
    """The binary-tree colour scheme whose local action is <(a b)> on {0, 1, 2}."""
    return _coloured(2, tree.ColourScheme.from_generators(2, [perm.from_cycles(3, (a, b))]))


def _cli(ledger: Ledger, out_dir: str, argv: list[str]) -> bytes:
    """Run one CLI command through ``cli.main`` and return the bytes it wrote."""
    out = os.path.join(out_dir, f"{argv[0]}.csv")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv + ["--out", out])
    ledger.check(f"{argv[0]} exit code", code == 0)
    with open(out, "rb") as fh:
        data = fh.read()
    with open(os.path.splitext(out)[0] + ".json", "rb") as fh:
        mirror = fh.read()
    ledger.count("cli.out_bytes", len(data) + len(mirror) + len(printed.getvalue()))
    ledger.record(data)
    ledger.record(mirror)
    return data


# ---------------------------------------------------------------------------
# lattice: the exhaustive group layer, cold
# ---------------------------------------------------------------------------

def lattice(seed: int, size: str, workers: int, out_dir: str) -> list[Task]:
    ref = REFERENCE[size]

    def praeger(ledger: Ledger) -> None:
        rep = classify.praeger_saxl_check(ref["ps_degree"])
        ledger.lap("audit")
        for row in rep.rows:
            ledger.check(f"|L|={row.order} <= 4^{row.degree}", row.order <= row.bound)
            ledger.record((row.degree, row.order, row.bound))
        ledger.check("row count", len(rep.rows) == ref["ps_rows"])
        ledger.check("no violations", not rep.violations)
        ledger.check("max_ratio", rep.max_ratio == ref["ps_max_ratio"])
        ledger.record(rep.max_ratio)
        subs, classes = perm.enumerate_subgroups(ref["ps_degree"])
        ledger.check("subgroup count", len(subs) == ref["subgroups"])
        ledger.check("class count", len(classes) == ref["classes"])
        ledger.units += sum(len(perm.enumerate_subgroups(m)[0])
                            for m in range(1, ref["ps_degree"] + 1))

    def counting(ledger: Ledger) -> None:
        rows = cli.counting_rows(ref["counting_degree"], 10_000)
        for row in rows:
            ledger.check(f"{row[0]} row holds", row[-1] is True)
            ledger.record(row)
        ledger.check("row count", len(rows) == ref["counting_rows"])
        ledger.units += len(rows)

    def cases(ledger: Ledger) -> None:
        subs, _ = perm.enumerate_subgroups(ref["ps_degree"])
        for i, G in enumerate(subs, 1):
            for delta in (0, 1, 2):
                case = classify.classify_case(G, 3, delta).case
                ledger.check("case is Xi/I/II/III", case in ("Xi", "I", "II", "III"))
                ledger.check("Xi case agrees with in_Xi",
                             (case == "Xi") == classify.in_Xi(G, delta)[0])
                ledger.record(case)
                ledger.units += 1
            if i % 250 == 0:
                ledger.lap(f"subgroups {i - 249}-{i}")

    return [Task("praeger_saxl", praeger), Task("counting_rows", counting),
            Task("classify", cases)]


# ---------------------------------------------------------------------------
# sample: Monte Carlo estimators
# ---------------------------------------------------------------------------

# C5 decay-curve constants (tests/test_acceptance.py)
CURVE_C = 3.5e14
CURVE_c = 30.0


def sample(seed: int, size: str, workers: int, out_dir: str) -> list[Task]:
    ref = REFERENCE[size]
    rng = random.Random(seed)

    def seeds(n):
        return [rng.getrandbits(32) for _ in range(n)]

    depth, ks, curve_trials = ref["curve"]
    curve_seeds = seeds(len(ks))
    oracle_seeds = seeds(5)
    cut_n, cut_k, cut_trials = ref["cut"]
    cm_n, cm_k, cm_trials = ref["colormatch"]
    ct_n, ct_k, ct_trials = ref["coloured_treematch"]
    cut_seeds = seeds(2)
    cm_seed, ct_seed = seeds(2)
    oracle_trials = ref["oracle_trials"]
    # colormatch uses F = <(0 1)>; the coloured treematch draws one of the three
    # conjugate transposition groups and a moved colour as its parent colour, so
    # the work per trial is the same for every seed
    cm_scheme = _transposition_scheme(0, 1)
    ct_colour, other, _ = rng.sample(range(3), 3)
    ct_scheme = _transposition_scheme(ct_colour, other)

    def record(ledger: Ledger, est) -> None:
        ledger.record((est.experiment, est.params, est.trials, est.successes, est.seed))
        ledger.units += est.trials

    def curve(ledger: Ledger) -> None:
        ests = []
        for k, s in zip(ks, curve_seeds):
            ests.append(mc.estimate_treematch(2, depth, k, curve_trials, s,
                                              workers=workers))
            ledger.lap(f"k={k}")
        for est in ests:
            record(ledger, est)
        for x, y in zip(ests, ests[1:]):
            noise = 5 * math.hypot(x.stderr, y.stderr)
            ledger.check("match probability decays in k", y.p_hat <= x.p_hat + noise)
        exponent = 1 / 8 - 0.01
        for k, est in zip(ks, ests):
            ledger.check(f"p_hat(k={k}) under the C5 curve",
                         est.p_hat <= CURVE_C * math.exp(-CURVE_c * k ** exponent))
        serial = mc.estimate_treematch(2, depth, ks[0], curve_trials, curve_seeds[0],
                                       workers=1)
        ledger.lap("serial")
        record(ledger, serial)
        ledger.check("serial run equals the pooled run", serial == ests[0])

    def oracles(ledger: Ledger) -> None:
        s = iter(oracle_seeds)
        pairs = [
            (mc.estimate_treematch(2, 2, 2, oracle_trials, next(s)),
             mc.exact_treematch(2, 2, 2)),
            (mc.estimate_cut1(2, 2, 2, 2, oracle_trials, next(s)),
             mc.exact_cut1(2, 2, 2, 2)),
            (mc.estimate_cut2(2, 2, 2, 2, oracle_trials, next(s)),
             mc.exact_cut2(2, 2, 2, 2)),
            (mc.estimate_colormatch(cm_scheme, 2, 1, 0, oracle_trials, next(s)),
             mc.exact_colormatch(cm_scheme, 2, 1, 0)),
            (mc.estimate_treematch(2, 2, 2, oracle_trials, next(s), scheme=ct_scheme,
                                   parent_colour=ct_colour),
             mc.exact_treematch(2, 2, 2, scheme=ct_scheme, parent_colour=ct_colour)),
        ]
        for est, exact in pairs:
            record(ledger, est)
            ledger.check(f"{est.experiment} estimate within 5 sigma of exact",
                         _within(est, exact))
        for est, exact in pairs[:4]:
            ledger.check(f"{est.experiment} exact value",
                         exact == SMALL_EXACT[est.experiment])

    def larger(ledger: Ledger) -> None:
        runs = {
            "cut1": lambda: mc.estimate_cut1(2, 2, cut_n, cut_k, cut_trials, cut_seeds[0]),
            "cut2": lambda: mc.estimate_cut2(2, 2, cut_n, cut_k, cut_trials, cut_seeds[1]),
            "colormatch": lambda: mc.estimate_colormatch(cm_scheme, cm_n, cm_k, 0,
                                                         cm_trials, cm_seed),
            "coloured_treematch": lambda: mc.estimate_treematch(
                2, ct_n, ct_k, ct_trials, ct_seed, scheme=ct_scheme,
                parent_colour=ct_colour),
        }
        ests = []
        for step, run in runs.items():
            ests.append(run())
            ledger.lap(step)
        for est in ests:
            record(ledger, est)
            ledger.check("successes within trials", 0 <= est.successes <= est.trials)

    return [Task("curve", curve, seeded=True), Task("oracles", oracles, seeded=True),
            Task("larger_configs", larger, seeded=True)]


# ---------------------------------------------------------------------------
# census: exhaustive canonical-form enumeration
# ---------------------------------------------------------------------------

def census(seed: int, size: str, workers: int, out_dir: str) -> list[Task]:
    ref = REFERENCE[size]
    scheme = _transposition_scheme(0, 1)
    (n_cm, _), _ = ref["exact_colormatch"]
    slots = tree.cone_leaf_labels(scheme, scheme.reps[0], n_cm).count(0)

    def census_checks(ledger, c, classes, total):
        ledger.record([(canon.form_str(fid), n) for fid, n in c.counts])
        ledger.record(c.match_probability())
        if classes is not None:
            ledger.check("class count", len(c.counts) == classes)
        ledger.check("total", c.total == total)
        ledger.check("total is a binomial", c.total == comb(c.d ** c.depth, c.k))
        ledger.units += c.total

    def full(ledger: Ledger) -> None:
        for (d, depth, k), (classes, total) in ref["census"].items():
            census_checks(ledger, canon.orbit_census(d, depth, k), classes, total)
            ledger.lap(f"{d},{depth},{k}")

    def coloured(ledger: Ledger) -> None:
        for (d, depth, k), (classes, total) in ref["coloured_census"].items():
            c = canon.orbit_census(d, depth, k, _coloured(d, scheme))
            census_checks(ledger, c, classes, total)
            ledger.lap(f"{d},{depth},{k}")

    def exact(ledger: Ledger) -> None:
        (n, k), value = ref["exact_colormatch"]
        p = mc.exact_colormatch(scheme, n, k, 0)
        ledger.lap("colormatch")
        if value is not None:
            ledger.check("exact colormatch", p == value)
        ledger.record(p)
        small = {
            "treematch": mc.exact_treematch(2, 2, 2),
            "cut1": mc.exact_cut1(2, 2, 2, 2),
            "cut2": mc.exact_cut2(2, 2, 2, 2),
            "colormatch": mc.exact_colormatch(scheme, 2, 1, 0),
        }
        for name, p in small.items():
            ledger.check(f"exact {name}", p == SMALL_EXACT[name])
            ledger.record(p)
        ledger.units += comb(slots, k)

    def cli_census(ledger: Ledger) -> None:
        d, depth, k = ref["cli_census"]
        data = _cli(ledger, out_dir, ["census", "--d", str(d), "--depth", str(depth),
                                      "--k", str(k)])
        rows = data.decode().splitlines()[1:]
        ledger.check("CSV counts sum to the binomial",
                     sum(int(r.rsplit(",", 1)[1]) for r in rows) == comb(d ** depth, k))
        ledger.units += comb(d ** depth, k)

    return [Task("full_census", full), Task("coloured_census", coloured),
            Task("exact_values", exact), Task("cli_census", cli_census)]


# ---------------------------------------------------------------------------
# analytic: bound scans, tail dominance, level counts and tree pairs
# ---------------------------------------------------------------------------

def _random_frontier(rng: random.Random, d: int, q: int, expansions: int):
    leaves = [(j,) for j in range(q)]
    for _ in range(expansions):
        a = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(a + (j,) for j in range(d))
    return tuple(sorted(leaves))


def _random_pair(rng: random.Random, d: int, q: int, max_expansions: int = 5):
    """An unreduced random element: two random trees and a random bijection."""
    n = rng.randrange(max_expansions + 1)
    dom = _random_frontier(rng, d, q, n)
    ran = _random_frontier(rng, d, q, n)
    sigma = list(range(len(dom)))
    rng.shuffle(sigma)
    return thompson.TreePair(d, q, dom, ran, tuple(sigma))


def analytic(seed: int, size: str, workers: int, out_dir: str) -> list[Task]:
    ref = REFERENCE[size]
    params = bnd.BoundParams(d=2, q=4, C=1.0, c=1.0)
    rng = random.Random(seed)
    shapes = ((2, 2), (2, 3), (3, 2))
    pairs = {s: [_random_pair(rng, *s) for _ in range(ref["pairs_per_shape"])]
             for s in shapes}

    def scan(ledger: Ledger) -> None:
        rep = bnd.summability_scan(params, ref["scan_n_max"], tol=1e-12)
        ledger.record((rep.log_sum, rep.max_term_log, rep.argmax_n, rep.first_n_all_small))
        ledger.check("argmax", rep.argmax_n == ref["scan_argmax"])
        if ref["scan_first_small"] is not None:
            ledger.check("Cauchy", rep.cauchy)
            ledger.check("first_n_all_small",
                         rep.first_n_all_small == ref["scan_first_small"])
            ledger.check("log sum", math.isclose(rep.log_sum, ref["scan_log_sum"],
                                                 rel_tol=1e-9))
        ledger.units += rep.n_max

    def chernoff(ledger: Ledger) -> None:
        for x in range(2, ref["chernoff_x_max"] + 1):
            for u in range(1, x):
                for k in range(1, x + 1):
                    p = Fraction(u, x)
                    tails = [(t, "upper") for t in range(math.ceil(p * k), k + 1)]
                    tails += [(t, "lower") for t in range(0, math.floor(p * k) + 1)]
                    for t, side in tails:
                        ok = bnd.chernoff_dominates(x, u, k, t, side)
                        ledger.check(f"{side} tail x={x} u={u} k={k} t={t}", ok)
                        ledger.record(ok)
                        ledger.units += 1

    def bounds_table(ledger: Ledger) -> None:
        n_hi = ref["bounds_n_hi"]
        data = _cli(ledger, out_dir, ["bounds", "--d", "2", "--q", "4", "--n-hi", str(n_hi),
                                      "--cc-C", "1.0", "--cc-c", "1.0"])
        last = data.decode().splitlines()[-2]  # the aggregate6 row of n = n_hi
        partial = float(last.split(",")[-1])
        expect = bnd.summability_scan(params, n_hi).log_sum
        ledger.check("table partial sum equals the scan", math.isclose(partial, expect,
                                                                       rel_tol=1e-12))

    def levels(ledger: Ledger) -> None:
        for d in (2, 3):
            subs, _ = perm.enumerate_subgroups(d + 1)
            for F in subs:
                scheme = tree.ColourScheme(d, F)
                for colour in range(d + 1):
                    label = scheme.orbit_index[colour]
                    for n in range(1, ref["level_n_max"] + 1):
                        expect = tree.level_counts(scheme, n, label)
                        ledger.record(expect)
                        for policy in ("value", "orbit"):
                            ledger.check("level counts equal the traversal",
                                         tree.level_counts_direct(scheme, n, colour, policy)
                                         == expect)
            ledger.lap(f"d={d}")

    def tree_pairs(ledger: Ledger) -> None:
        for (d, q), raw in pairs.items():
            e = thompson.TreePair.identity(d, q)
            reduced = [thompson.reduce_pair(p) for p in raw]
            ledger.lap(f"{d},{q} reduce")
            for i, p in enumerate(reduced, 1):
                ledger.record((p.domain_leaves, p.range_leaves, p.sigma))
                ledger.check("reduce is idempotent", thompson.reduce_pair(p) == p)
                ledger.check("p p^-1 = e", thompson.compose(p, thompson.inverse(p)) == e)
                ledger.check("e p = p", thompson.compose(e, p) == p)
                ledger.units += 5
                if i % 250 == 0:
                    ledger.lap(f"{d},{q} pairs {i - 249}-{i}")
            for i in range(0, len(reduced) - 2, 3):
                p1, p2, p3 = reduced[i:i + 3]
                ledger.check("associativity", thompson.compose(thompson.compose(p1, p2), p3)
                             == thompson.compose(p1, thompson.compose(p2, p3)))
                ledger.units += 4
            ledger.lap(f"{d},{q} associativity")

    return [Task("summability_scan", scan), Task("chernoff", chernoff),
            Task("bounds_cli", bounds_table), Task("level_counts", levels),
            Task("tree_pairs", tree_pairs, seeded=True)]


WORKLOADS = {"lattice": lattice, "sample": sample, "census": census,
             "analytic": analytic}


def build(name: str, seed: int, size: str, workers: int, out_dir: str) -> list[Task]:
    return WORKLOADS[name](seed, size, workers, out_dir)
