"""Benchmark entry point: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``), because treeirs
keeps process-wide caches (``lru_cache`` on the subgroup lattice and on
schemes, the ``canon`` form interner) that would turn a second repetition in
the same process into cache hits.  A workload with a long body is split into
parts (``workloads.PARTS``), each repeated in its own interpreter.  The run
first starts a set-up-only interpreter, then repeats the parts, the least
repeated first, while the next repetition is expected to end within
``--seconds`` plus a fifth; the allowance lets a long part run twice even on
a slow host.

Times are reported at a nominal host speed (see ``reference.py``): the worker
scales every timed interval by the time of a fixed kernel gauged at its ends,
and ``wall_s`` adds up, over the steps of the body (one estimator, one
census, ...), each step's median over the repetitions.  ``setup_s`` is scaled
by a gauge taken right after set-up.  The raw times are in the run record.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it alternates plain parts with traced repetitions of the whole
body and carries the per-layer metrics (medians over traced repetitions, not
scaled), including the tracing overhead (traced minus plain ``wall_s``).
Spans of the last traced repetition are written to
``.perfbench_out/<workload>.spans.tsv``.  ``--smoke`` runs tiny inputs, for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import KERNEL_S
from tracing import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice", "sample", "census", "analytic")
SETUP_PROBES = 1
OVERRUN = 0.2  # share of --seconds a repetition may be expected to end past it
HARD_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "units_per_s": "units/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
UNIT_OF_WORK = {"lattice": "subgroups enumerated + rows verified",
                "sample": "trials",
                "census": "subsets canonicalized",
                "analytic": "scan terms + tail comparisons + pair operations"}


class ChildFailed(RuntimeError):
    pass


def git_head() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, mode: str, part: int, workers: int, out_dir: Path,
              started: float) -> dict:
    # a fixed hash seed keeps set and dict layouts, and so the timings, the
    # same from one repetition to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the worker imports treeirs from ROOT/src itself
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--size", "smoke" if args.smoke else "full", "--workers", str(workers),
           "--part", str(part), "--out-dir", str(out_dir)]
    timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - started))
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], capture_output=True,
                          text=True, timeout=timeout, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} repetition of part {part} exited "
                          f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def schedule(units: list, reps: dict, time_left: float):
    """The next unit to repeat: every unit once, then, of those whose median
    time still fits, the least repeated and, among those, the longest; None
    when none fits."""
    for unit in units:
        if not reps[unit]:
            return unit
    expected = {u: statistics.median(r["elapsed_s"] for r in reps[u]) for u in units}
    fits = [u for u in units if expected[u] <= time_left]
    return min(fits, key=lambda u: (len(reps[u]), -expected[u]), default=None)


def step_medians(results: list[dict], scaled: bool) -> dict[str, float]:
    """Each step's median time over the repetitions that ran it; ``scaled``
    times are at the nominal host speed (``Ledger.step_k`` times KERNEL_S)."""
    times = {}
    for r in results:
        for step, t in r["step_k" if scaled else "step_s"].items():
            times.setdefault(step, []).append(t * KERNEL_S if scaled else t)
    return {step: statistics.median(ts) for step, ts in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treeirs" / "__init__.py").is_file():
        print(f"error: no treeirs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workers = min(2, os.cpu_count() or 1)
    started = time.monotonic()
    deadline = started + args.seconds * (1 + OVERRUN)

    try:
        probes = [run_child(args, "setup", -1, workers, out_dir, started)
                  for _ in range(SETUP_PROBES)]
        # a unit is (mode, part); traced repetitions run the whole body
        units = [("plain", part) for part in range(probes[0]["parts"])]
        if args.trace:
            units.append(("traced", -1))
        reps = {unit: [] for unit in units}
        while (unit := schedule(units, reps, deadline - time.monotonic())) is not None:
            reps[unit].append(run_child(args, *unit, workers, out_dir, started))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = [r for rs in reps.values() for r in rs]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    # every repetition of a task computes the same outputs from the same inputs
    first = {}
    for r in everything:
        for task, digest in r["digests"].items():
            if task not in first:
                first[task] = digest
                continue
            attempted += 1
            if digest != first[task]:
                failed += 1
                r["failures"].append(f"{task}: outputs differ between repetitions")
    plain_parts = [reps[u] for u in units if u[0] == "plain"]
    plain = [r for rs in plain_parts for r in rs]
    steps = step_medians(plain, scaled=True)
    wall = sum(steps.values())
    units_done = sum(rs[0]["units"] for rs in plain_parts)
    if args.trace:
        traced = reps[("traced", -1)]
        metrics = {}
        for name, unit in metric_units().items():
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"]["value"] = (
            sum(step_medians(traced, scaled=True).values()) - wall)
        untraced = traced[0]["untraced"]
    else:
        untraced = None
        values = {
            "wall_s": wall,
            "units_per_s": units_done / wall,
            "setup_s": statistics.median(r["setup_s"] * KERNEL_S / r["setup_gauge"]
                                         for r in probes + everything),
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in rs)
                               for rs in plain_parts),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]}
                   for name, v in values.items()}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    failures = [f for r in everything for f in r["failures"]][:20]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_head": git_head(), "workers": workers,
        "repetitions": {f"{mode} part {part}": len(rs)
                        for (mode, part), rs in reps.items()},
        "setup_probes": SETUP_PROBES, "functions_not_found": untraced,
        "units_per_repetition": units_done, "unit": UNIT_OF_WORK[args.workload],
        "fail_ratio": failed / attempted, "failures": failures,
        "raw_wall_s": sum(step_medians(plain, scaled=False).values()),
        "raw_wall_s_samples": {f"{mode} part {part}": [r["wall_s"] for r in rs]
                               for (mode, part), rs in reps.items()},
        "setup_gauge_s": statistics.median(r["setup_gauge"] for r in plain),
        "step_s": steps,
    }
    print("run record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
