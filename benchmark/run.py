"""Run one benchmark workload and print its metrics as JSON.

    python3 benchmark/run.py --workload wide-shallow --seed 1 --seconds 36 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
used through the calls the CLI makes: ``load_network``/``load_domain`` on a
model document, ``Explainer(net, domain)``, then ``Explainer.explain`` in
improved and baseline mode.  One process, a closed loop with one
explanation in flight.

A run is made of whole rounds, at least ``MIN_ROUNDS`` and more until
``--seconds`` have passed.  A round sets up every network of the workload,
then explains every instance of the workload's fixed pool in both modes, in
an order drawn from ``--seed``.  The outputs are then checked against an
independent HiGHS MILP and forward pass (``checker.py``).  An operation that
raises, or whose output fails a check, counts as failed and is named on
stderr.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
operation's time scaled by a probe of the machine's speed run just before
and just after it (``speed.py``); the line before it gives the unscaled
wall seconds.  With ``--trace 1`` every operation runs twice, untraced and
traced, in turns of which runs first, and the last line holds the
per-layer metrics of the traced copies (unscaled) plus the tracing overhead
against the untraced ones; the spans go to
``benchmark/results/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODES = ("improved", "baseline")
# rounds in every run, however short; setup_s is the median over rounds
MIN_ROUNDS = 3


def _import_program():
    if not (SRC / "boxplain" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))


def _setup(model, engine, text: str):
    doc = json.loads(text)
    net = model.load_network(doc)
    domain = model.load_domain(doc)
    return engine.Explainer(net, domain)


def _explain(explainer, x, mode: str):
    # looked up at call time, so a traced run sees the wrapped method
    return explainer.explain(x, mode)


def _warm_up(model, engine) -> None:
    """One untimed explanation per mode on a small network, so imports and
    first-call costs land before any timing."""
    doc = workloads.random_document(np.random.default_rng(0), 4, (4,))
    explainer = engine.Explainer(model.load_network(doc), model.load_domain(doc))
    for mode in MODES:
        explainer.explain([0.25, 0.5, 0.75, 0.5], mode)


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    import boxplain.engine as engine
    import boxplain.model as model
    from speed import SpeedScale
    from tracing import Tracer

    docs = workloads.network_documents(workload)
    texts = [json.dumps(doc) for doc in docs]
    pool = workloads.instance_pool(workload, docs)
    orders = workloads.round_orders(len(pool), seed)
    _warm_up(model, engine)
    tracer = Tracer() if trace else None
    scale = None if trace else SpeedScale()
    wall = {"setup": 0.0, "explain": 0.0}  # unscaled seconds, for the summary
    paired = {"untraced": 0.0, "traced": 0.0}
    ops = set()  # keys of the operations attempted
    failed = {}  # operation key -> reasons

    def attempt(name, fn, args, traced):
        """One copy of an operation: (result or None, seconds, exception or None)."""
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.span(name):
                    result = fn(*args)
            else:
                result = fn(*args)
            error = None
        except Exception as exc:  # one operation fails, the run goes on
            result, error = None, exc
        return result, time.perf_counter() - start, error

    def operation(key, fn, *args):
        """Run one operation (twice when tracing); returns (result, seconds),
        or (None, 0.0) when it raised, whatever the exception.  Untraced,
        the seconds are speed-normalised (``speed.py``)."""
        ops.add(key)
        if tracer is None:
            result, seconds, error = attempt(key[0], fn, args, False)
            wall[key[0]] += seconds
            seconds = scale.scale(seconds)
        else:
            # which copy runs first alternates, so neither gets the warmer caches
            order = (True, False) if len(ops) % 2 == 0 else (False, True)
            copies = {traced: attempt(key[0], fn, args, traced) for traced in order}
            paired["traced"] += copies[True][1]
            paired["untraced"] += copies[False][1]
            result, seconds, error = copies[True]
        if error is not None:
            failed.setdefault(key, []).append(f"{type(error).__name__}: {error}")
            return None, 0.0
        return result, seconds

    # Whole rounds, at least MIN_ROUNDS, until --seconds have passed.  A round
    # sets up every network afresh, then explains the whole pool in both modes.
    setup_sums = []
    tights = {}  # network -> [(setup key, tight bounds)]
    answers = {}  # pool index -> [(explain key, (kept indices, target))]
    times = {mode: [] for mode in MODES}
    stats = []  # improved-mode ExplainStats
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        explainers, total = [], 0.0
        for k, text in enumerate(texts):
            key = ("setup", rounds, k)
            explainer, dt = operation(key, _setup, model, engine, text)
            explainers.append(explainer)
            total += dt
            if explainer is not None:
                tights.setdefault(k, []).append((key, explainer.tight))
        setup_sums.append(total)
        for i in next(orders):
            k, x = pool[i]
            for mode in MODES:
                key = ("explain", rounds, i, mode)
                if explainers[k] is None:
                    ops.add(key)
                    failed.setdefault(key, []).append("network setup failed")
                    continue
                out, dt = operation(key, _explain, explainers[k], x, mode)
                if out is None:
                    continue
                explanation, explain_stats = out
                answers.setdefault(i, []).append(
                    (key, (explanation.kept_indices, explanation.target)))
                times[mode].append(dt)
                if mode == "improved":
                    stats.append(explain_stats)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, untimed; scipy is imported only now, after the RSS reading
    from checker import IndependentChecker
    check_rng = np.random.default_rng([seed, 1])
    checkers = [IndependentChecker(doc) for doc in docs]
    checked = set()
    for k, setups in tights.items():
        first = setups[0][1]
        problems = checkers[k].check_tight(first, check_rng)
        for key, tight in setups:
            checked.add(key)
            reasons = failed.setdefault(key, [])
            if not tight.allclose(first):
                reasons.append("tight bounds differ between setups")
            reasons += problems
    for i, entries in answers.items():
        k, x = pool[i]
        distinct = sorted(set(answer for _, answer in entries))
        problems = []
        if len(distinct) > 1:
            problems.append(f"modes or rounds disagree: {distinct}")
        for kept_indices, target in distinct:
            problems += checkers[k].check_explanation(x, kept_indices, target, check_rng)
        for key, _ in entries:
            checked.add(key)
            failed.setdefault(key, []).extend(problems)
    failed = {key: reasons for key, reasons in failed.items() if reasons}

    for key, reasons in sorted(failed.items()):
        print(f"FAILED {key}: {'; '.join(dict.fromkeys(reasons))}", file=sys.stderr)

    summary = _paper_columns(stats, times)
    print(json.dumps({"workload": workload.name, "seed": seed, "rounds": rounds,
                      "explanations_per_mode": {m: len(t) for m, t in times.items()},
                      "setup_sums_s": setup_sums, **summary,
                      **({} if scale is None else {
                          "wall_setup_s": wall["setup"], "wall_explain_s": wall["explain"],
                          "probe_s_p50": statistics.median(scale.probes)})}))
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_sums), "s"),
            "explain_s_p50": (statistics.median(times["improved"]), "s"),
            "explain_per_s": (len(times["improved"]) / sum(times["improved"]), "1/s"),
            "baseline_explain_s_p50": (statistics.median(times["baseline"]), "s"),
            "baseline_explain_per_s": (len(times["baseline"]) / sum(times["baseline"]),
                                       "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.write_jsonl(results / f"trace-{workload.name}-{seed}.jsonl")
        metrics = _trace_metrics(tracer, paired, summary)
    return {
        # every operation either failed or had its output checked
        "correct": checked | failed.keys() == ops,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _paper_columns(stats, times) -> dict:
    """The paper's per-workload columns, pooled over improved-mode runs."""
    binaries = sum(s.binaries_counted for s in stats)
    neurons = sum(s.neurons_counted for s in stats)
    return {
        "bounds_tightened_pct": 100.0 * sum(s.tightened_count for s in stats) / max(neurons, 1),
        "binaries_removed_before_pct":
            100.0 * sum(s.removed_before_count for s in stats) / max(binaries, 1),
        "binaries_removed_after_pct":
            100.0 * sum(s.removed_ours_count for s in stats) / max(binaries, 1),
        "shortcut_hits": sum(s.box_shortcut_hits for s in stats),
        "time_reduction_pct": 100.0 * (1.0 - sum(times["improved"]) / sum(times["baseline"])),
    }


# per-layer metric -> unit; every traced run reports all of them
PER_LAYER_UNITS = {
    "model.load_s": "s", "model.self_s": "s",
    "engine.tight_bounds_s": "s", "engine.entail_calls": "count",
    "engine.entail_s": "s", "engine.explain_s": "s", "engine.self_s": "s",
    "encoding.encode_s": "s", "encoding.prefix_s": "s",
    "encoding.simplify_calls": "count", "encoding.simplify_s": "s",
    "encoding.fix_s": "s", "encoding.query_s": "s",
    "encoding.binaries_left": "count", "encoding.bounds_tightened": "count",
    "encoding.self_s": "s",
    "box.propagate_calls": "count", "box.propagate_s": "s",
    "box.shortcut_checks": "count", "box.shortcut_hits": "count",
    "box.shortcut_hit_rate": "ratio", "box.self_s": "s",
    "bnb.optimize_calls": "count", "bnb.optimize_nodes": "count",
    "bnb.optimize_nodes_per_call": "ratio", "bnb.optimize_s": "s",
    "bnb.feasibility_calls": "count", "bnb.feasibility_nodes": "count",
    "bnb.feasibility_nodes_per_call": "ratio", "bnb.feasibility_s": "s",
    "bnb.to_lp_s": "s", "bnb.self_s": "s",
    "simplex.lp_solves": "count", "simplex.iterations": "count",
    "simplex.iterations_per_solve": "ratio", "simplex.solve_s": "s",
    "simplex.prepare_s": "s", "simplex.self_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_s": "s", "trace.overhead_pct": "%",
    "paper.bounds_tightened_pct": "%", "paper.binaries_removed_before_pct": "%",
    "paper.binaries_removed_after_pct": "%", "paper.shortcut_hits": "count",
    "paper.time_reduction_pct": "%",
}


def _trace_metrics(tracer, paired, summary) -> dict:
    silent = tracer.silent()
    if silent:
        # a wrapper its callers bypass would otherwise read as 0
        raise SystemExit(f"benchmark: traced run recorded no calls of {silent}")
    values = tracer.metrics()
    values["trace.wall_s"] = paired["traced"]
    values["trace.untraced_s"] = paired["untraced"]
    values["trace.overhead_pct"] = 100.0 * (paired["traced"] / paired["untraced"] - 1.0)
    for name, value in summary.items():
        values["paper." + name] = value
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        raise SystemExit(f"benchmark: traced run has no value for {missing}")
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
