"""A ladder of network sizes: both explanation modes, rung by rung.

    python3 tools/ladder.py                      # every rung, JSON on stdout
    python3 tools/ladder.py --rungs 16x12        # the smallest rung only

Each rung builds ``NETWORKS`` networks of its shape with the benchmark's
generator (``benchmark/workloads.py``, construction seed ``SEED``, the same
minority-share filter) and explains the first ``INSTANCES`` rounds of
``instance_stream(docs, STREAM_SEED)`` in baseline and improved mode.  It
records per network the setup seconds and the branch-and-bound nodes of
its tight-bound precompute, and per mode the median seconds per
explanation, the branch-and-bound nodes, LP iterations and solver calls
that its ``ExplainStats`` sum, and the pooled reduction of improved against
baseline time, as ``paper.time_reduction_pct`` in ``benchmark/run.py``
pools it.  Every network's tight bounds and every explanation are checked
by ``benchmark/checker.py`` (HiGHS and a forward pass of its own), as
``benchmark/run.py`` checks them, and the two modes must keep the same
attributes.

Each rung has a setup budget per network.  A precompute that runs past it
is stopped and the rung is reported as ``over setup budget``, with no
explanations.  The exit status is 1 when the modes diverge or a check
fails on any rung, and 0 otherwise.

``--src`` points at another checkout's ``src/``, so one copy of this script
measures two revisions on the same networks; the output records that
checkout's git revision and whether its tree had changes, or null outside a
git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 777
STREAM_SEED = 5
NETWORKS = 2
INSTANCES = 2
MODES = ("baseline", "improved")
# (inputs, hidden widths, setup budget per network in seconds)
RUNGS = {
    "16x12": (16, (12,), 10.0),
    "16x24": (16, (24,), 30.0),
    "8x8x8x8": (8, (8, 8, 8), 30.0),
    "16x16x16": (16, (16, 16), 120.0),
}


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget


def _counting_backend(bnb):
    """A default backend that sums the nodes of its optimize calls, which
    are the precompute's."""

    class Counting(bnb.BranchAndBoundBackend):
        optimize_nodes = 0

        def optimize(self, problem, objective):
            out = super().optimize(problem, objective)
            self.optimize_nodes += out.node_count
            return out

    return Counting()


def _revision(src: Path):
    """``{"commit", "dirty"}`` of the git checkout holding ``src``, or None
    when it is not in one (or git is missing)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def run_rung(name: str, workloads, checker, engine, model, bnb) -> dict:
    inputs, hidden, budget = RUNGS[name]
    shape = workloads.Workload(name, inputs, hidden, networks=NETWORKS,
                               instances=INSTANCES, construction_seed=SEED)
    docs = workloads.network_documents(shape)
    stream = workloads.instance_stream(docs, STREAM_SEED)
    rounds = [next(stream) for _ in range(INSTANCES)]
    record = {"rung": name, "setup_budget_s": budget, "setup_s": [],
              "setup_nodes": []}
    backend = _counting_backend(bnb)
    config = engine.EngineConfig(backend=backend)
    explainers = []
    signal.signal(signal.SIGALRM, _alarm)
    for doc in docs:
        net, domain = model.load_network(doc), model.load_domain(doc)
        backend.optimize_nodes = 0
        signal.setitimer(signal.ITIMER_REAL, budget)
        start = time.perf_counter()
        try:
            explainers.append(engine.Explainer(net, domain, config))
        except _OverBudget:
            record["status"] = "over setup budget"
            return record
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        record["setup_s"].append(time.perf_counter() - start)
        record["setup_nodes"].append(backend.optimize_nodes)

    times = {mode: [] for mode in MODES}
    counts = {mode: {"nodes": 0, "lp_iterations": 0, "solver_calls": 0}
              for mode in MODES}
    checkers = [checker.IndependentChecker(doc) for doc in docs]
    tight_rng = np.random.default_rng([SEED, 2])
    problems = [f"network {k}: {p}" for k, (check, explainer)
                in enumerate(zip(checkers, explainers))
                for p in check.check_tight(explainer.tight, tight_rng)]
    rng = np.random.default_rng([SEED, 1])
    for round_ in rounds:
        for k, x in enumerate(round_):
            kept = {}
            for mode in MODES:
                start = time.perf_counter()
                explanation, stats = explainers[k].explain(x, mode)
                times[mode].append(time.perf_counter() - start)
                tally = counts[mode]
                tally["nodes"] += stats.solver_nodes
                tally["lp_iterations"] += stats.lp_iterations
                tally["solver_calls"] += stats.solver_calls
                kept[mode] = (explanation.kept_indices, explanation.target)
            if kept["baseline"] != kept["improved"]:
                problems.append(f"network {k}: modes diverge: {kept}")
            indices, target = kept["baseline"]
            problems += [f"network {k}: {p}" for p in
                         checkers[k].check_explanation(x, indices, target, rng)]
    for mode in MODES:
        record[mode] = {"median_s": statistics.median(times[mode]), **counts[mode]}
    record["reduction_pct"] = 100.0 * (1.0 - sum(times["improved"]) / sum(times["baseline"]))
    record["status"] = "failed" if problems else "ok"
    record["problems"] = problems
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rungs", nargs="+", choices=sorted(RUNGS),
                        default=list(RUNGS), help="rungs to run, in order")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the boxplain sources to measure")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "benchmark")]
    import boxplain.bnb as bnb
    import boxplain.engine as engine
    import boxplain.model as model
    import checker
    import workloads

    rungs = []
    for name in args.rungs:
        rungs.append(run_rung(name, workloads, checker, engine, model, bnb))
        print(json.dumps(rungs[-1]), file=sys.stderr)
    print(json.dumps({"src": str(args.src.resolve()),
                      "revision": _revision(args.src),
                      "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                      "networks_per_rung": NETWORKS, "instances_per_network": INSTANCES,
                      "rungs": rungs}, indent=1))
    return int(any(rung["status"] == "failed" for rung in rungs))


if __name__ == "__main__":
    sys.exit(main())
