"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line.  Modes:
``setup`` stops just before the first timed call (to time set-up alone),
``plain`` times the body with tracing off, ``traced`` times it with the layer
wrappers installed and adds the per-layer metrics.  ``--part`` runs only one
part of the workload's tasks (see ``workloads.PARTS``); -1 runs them all.
Every mode gauges the host's speed (``reference.gauge``) once after set-up and
at every step boundary of the body.  Plain repetitions also gauge inside long
steps: a few functions that the long steps call often (``CHECKPOINTS``) get a
wrapper that, on the main thread, gauges when the last reading is older than
``workloads.GAUGE_EVERY``.  Traced repetitions leave them alone, so that
gauges never fall inside a traced span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKPOINTS = (("perm", "close"), ("irs", "verify_index"), ("irs", "verify_E1"),
               ("canon", "canon_full"), ("canon", "canon_coloured"))


def import_treeirs():
    """Import treeirs from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import treeirs

    if SRC.resolve() not in Path(treeirs.__file__).resolve().parents:
        raise ImportError(f"treeirs was imported from {treeirs.__file__}, not {SRC}")


def assert_cold() -> None:
    """Refuse to time a body that would read caches filled in this process."""
    warm = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("treeirs."):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{name}.{attr}")
    table = getattr(sys.modules.get("treeirs.canon"), "_TABLE", None)
    if table is not None and len(getattr(table, "_strs", ())) > 2:
        warm.append("treeirs.canon._TABLE")
    if warm:
        raise RuntimeError(f"caches are warm before the timed body: {warm}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--part", type=int, default=-1)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import_treeirs()
    sys.path.insert(0, str(HERE))
    import reference
    import tracing
    import workloads

    scratch = os.path.join(args.out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        tasks = workloads.build(args.workload, args.seed, args.size, args.workers,
                                scratch)
        groups = workloads.parts(args.workload, tasks)
        if args.part >= 0:
            tasks = groups[args.part]
        assert_cold()
        setup_s = time.monotonic() - args.spawned_at
        setup_gauge = reference.gauge()
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_gauge": setup_gauge,
                              "parts": len(groups)}))
            return 0
        tracer = None
        if args.mode == "traced":
            tracer = tracing.Tracer()
            untraced = tracing.install(tracer)
        ledger = workloads.Ledger(gauge=reference.gauge)
        if args.mode == "plain":
            tracing.install_checkpoints(CHECKPOINTS, ledger.checkpoint)
        start = time.perf_counter_ns()
        workloads.run_tasks(args.workload, tasks, args.seed, args.size, ledger)
        end = time.perf_counter_ns()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "setup_gauge": setup_gauge,
        "wall_s": sum(ledger.step_s.values()),
        "units": ledger.units,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures[:20],
        "digests": ledger.digests,
        "task_s": ledger.task_s,
        "step_s": ledger.step_s,
        "step_k": ledger.step_k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, start, end, ledger.counts)
        result["untraced"] = untraced
        tracing.write_spans(os.path.join(args.out_dir, f"{args.workload}.spans.tsv"),
                            tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
