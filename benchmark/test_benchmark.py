"""Tests of the benchmark itself: seeding, the independent checker, trace
repeatability, the speed scaling and the metric names.

    python -m pytest benchmark -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import boxplain.engine as engine  # noqa: E402
import boxplain.model as model  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from boxplain.simplex import SolverFailure  # noqa: E402
from checker import TOL, IndependentChecker  # noqa: E402
from tracing import LAYERS, WRAPPED, Tracer  # noqa: E402

TINY = workloads.Workload("tiny", 5, (4,), networks=2, instances=2,
                          construction_seed=5)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _instances(docs, seed, rounds):
    stream = workloads.instance_stream(docs, seed)
    return [x for _ in range(rounds) for x in next(stream)]


def _orders(seed, rounds):
    orders = workloads.round_orders(10, seed)
    return [next(orders) for _ in range(rounds)]


def test_same_seed_same_inputs():
    for wl in workloads.WORKLOADS.values():
        docs = workloads.network_documents(wl)
        assert docs == workloads.network_documents(wl)
        assert len(docs) == wl.networks
        pool, again = (workloads.instance_pool(wl, docs) for _ in range(2))
        assert len(pool) == wl.instances * wl.networks + len(wl.extra)
        assert all(k == k2 and np.array_equal(x, x2)
                   for (k, x), (k2, x2) in zip(pool, again))
    docs = workloads.network_documents(TINY)
    first, again, other = (_instances(docs, s, 3) for s in (7, 7, 8))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))
    assert _orders(7, 3) == _orders(7, 3) != _orders(8, 3)
    assert all(sorted(order) == list(range(10)) for order in _orders(7, 3))


def test_selection_rules_hold():
    rng = np.random.default_rng(0)
    for wl in workloads.WORKLOADS.values():
        docs = workloads.network_documents(wl)
        for doc in docs:
            assert workloads.minority_share(doc, rng) >= workloads.MIN_MINORITY_SHARE
        for k, x in workloads.instance_pool(wl, docs):
            doc = docs[k]
            assert ((0.0 <= x) & (x <= 1.0)).all()
            top = np.sort(workloads.forward(doc, x)[-1][0])
            assert top[-1] - top[-2] >= workloads.TIE_MARGIN


@pytest.fixture(scope="module")
def explained():
    """A tiny network, its explainer and an explanation that keeps some
    attributes and frees others."""
    doc = workloads.network_documents(TINY)[0]
    explainer = engine.Explainer(model.load_network(doc), model.load_domain(doc))
    for x in _instances([doc], 3, 20):
        explanation, _ = explainer.explain(x)
        if 0 < len(explanation.kept) < doc["input_dim"]:
            return IndependentChecker(doc), explainer, x, explanation
    raise AssertionError("no instance with a partial explanation")


def test_checker_accepts_program_output(explained):
    checker, explainer, x, explanation = explained
    rng = np.random.default_rng(0)
    assert checker.check_tight(explainer.tight, rng) == []
    assert checker.check_explanation(x, explanation.kept_indices,
                                     explanation.target, rng) == []


def test_checker_rejects_dropped_attribute(explained):
    checker, _, x, explanation = explained
    kept = explanation.kept_indices
    for i in kept:
        smaller = tuple(j for j in kept if j != i)
        problems = checker.check_explanation(x, smaller, explanation.target,
                                             np.random.default_rng(0))
        assert any(p.startswith("insufficient") for p in problems), (i, problems)


def test_checker_rejects_added_attribute(explained):
    checker, _, x, explanation = explained
    kept = explanation.kept_indices
    for i in set(range(len(x))) - set(kept):
        problems = checker.check_explanation(x, kept + (i,), explanation.target,
                                             np.random.default_rng(0))
        assert any(p.startswith("not minimal") for p in problems), (i, problems)


def test_sufficiency_check_solves_past_a_near_tie(explained, monkeypatch):
    """A first rival within TOL of the target must not end the sufficiency
    check before a later rival that beats the target is solved."""
    checker, _, x, explanation = explained
    target = explanation.target
    rivals = [r for r in range(workloads.CLASSES) if r != target]
    monkeypatch.setattr(checker, "biases", [*checker.biases[:-1],
                                            np.zeros(workloads.CLASSES)])
    gaps = iter([0.0, 1.0])
    monkeypatch.setattr(checker, "maximize", lambda c, fixed: next(gaps))
    assert checker._rival_gap(x, (), target, rivals, stop=TOL) == (1.0, rivals[1])
    gaps = iter([0.0, 1.0])
    assert checker._rival_gap(x, (), target, rivals, stop=-TOL) == (0.0, rivals[0])


@pytest.mark.parametrize("field,shift", [("pre_lo", 0.01), ("pre_hi", -0.01),
                                         ("pre_hi", 0.01), ("out_lo", -0.01)])
def test_checker_rejects_corrupted_tight_bound(explained, field, shift):
    checker, explainer, _, _ = explained
    tight = explainer.tight
    value = getattr(tight, field)
    if field.startswith("pre"):
        layer = value[0].copy()
        layer[1] += shift
        value = (layer,) + value[1:]
    else:
        value = value.copy()
        value[2] += shift
    corrupted = dataclasses.replace(tight, **{field: value})
    problems = checker.check_tight(corrupted, np.random.default_rng(0))
    assert any("tight" in p for p in problems)


def _traced_counts():
    docs = workloads.network_documents(TINY)
    tracer = Tracer()
    with tracer.installed():
        explainers = [bench._setup(model, engine, json.dumps(doc)) for doc in docs]
        for k, x in enumerate(_instances(docs, 2, 2)):
            for mode in bench.MODES:
                bench._explain(explainers[k % len(docs)], x, mode)
    return tracer.counts


def test_traced_counts_repeat_and_wrappers_come_off():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in WRAPPED}
    first = _traced_counts()
    assert first == _traced_counts()
    for name in ("engine.entail_calls", "bnb.feasibility_nodes", "bnb.optimize_nodes",
                 "simplex.lp_solves", "simplex.iterations", "box.shortcut_checks"):
        assert first[name] > 0, name
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_metric_names_match_benchmark_json(trace, section):
    result = bench.run(TINY, seed=1, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_solver_failure_counts_as_failed(monkeypatch, trace):
    """An explanation that raises fails its operation and stays attempted;
    in a traced run its time still counts in the wall time."""
    docs = workloads.network_documents(TINY)
    k, bad = workloads.instance_pool(TINY, docs)[0]
    original = engine.Explainer.explain

    def explain(self, x, mode="improved"):
        result = original(self, x, mode)
        if mode == "baseline" and np.array_equal(x, bad):
            raise SolverFailure("injected")
        return result

    monkeypatch.setattr(engine.Explainer, "explain", explain)
    result = bench.run(TINY, seed=1, seconds=0, trace=trace)
    ops_per_round = TINY.networks + 2 * TINY.networks * TINY.instances
    assert result["attempted"] == bench.MIN_ROUNDS * ops_per_round
    assert result["failed"] == bench.MIN_ROUNDS
    assert result["correct"]
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        self_s = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert self_s == pytest.approx(values["trace.wall_s"], rel=0.02)


def test_speed_scale_uses_the_probes_on_either_side(monkeypatch):
    readings = iter([0.01, 0.02, 0.03, 0.01])
    monkeypatch.setattr(speed, "probe", lambda: next(readings))
    scale = speed.SpeedScale()  # the first reading warms up, the second is kept
    assert scale.scale(1.0) == pytest.approx(speed.REFERENCE_S / 0.025)
    assert scale.scale(1.0) == pytest.approx(speed.REFERENCE_S / 0.02)
    assert scale.probes == [0.02, 0.03, 0.01]


def test_traced_run_fails_when_a_wrapper_records_nothing():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.silent()
    with pytest.raises(SystemExit):
        bench._trace_metrics(tracer, {"traced": 1.0, "untraced": 1.0}, {})


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "wide-shallow", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
