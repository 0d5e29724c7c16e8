"""Acceptance suite: the engine's exit criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the verbose listing).

Criterion 3 pins the endpoints that interval propagation gives on the demo
network (h0 = relu(x0 + x1), h1 = relu(x0 - x1), out0 = h0 + h1,
out1 = h0 - h1, x0 in [0, 0.7], x1 in [0.2, 0.5]) with x1 held at 0.2.
Each neuron input is an independent interval, so:

- pre h0 = [0.2, 0.9] and pre h1 = [-0.2, 0.5], hence post h1 = [0, 0.5];
- out0 = [0.2, 1.4] and out1 = [0.2 - 0.5, 0.9 - 0] = [-0.3, 0.9];
- merging out1 with its tight bound [0.2, 1.0] (criterion 1), taking the
  larger lower and the smaller upper bound, gives [0.2, 0.9].

The upper bound 1.4 of out0 is attained at (0.7, 0.2), so any sound
enclosure must reach it.  The true range of out1 is [0.2, 0.4]; the upper
bound 0.9 is sound but loose, because independent intervals cannot see
that h0 and h1 move together.
"""

import functools
import time

import numpy as np
import pytest

from boxplain.box import box_propagate, shortcut_check, ShortcutResult
from boxplain.bnb import BranchAndBoundBackend, optimize, solve_feasibility
from boxplain.encoding import (MODE_ACTIVE, attach_rival_query, encode_network,
                               fix_attributes, merge_bounds,
                               tighten_and_simplify)
from boxplain.engine import (Decision, EngineConfig, Explainer,
                             compute_tight_bounds, verify_explanation)
from boxplain.model import forward, load_domain, load_network
from boxplain.simplex import LpProblem, solve_lp
from conftest import DEMO_DOC, block, pinned_box
from netgen import random_instance, random_network
from oracles import oracle_enumerate, random_bounded_lp, vertex_enumerate
from test_bnb import worked_milp  # noqa: F401  (fixture reuse)

CORPUS_SEED = 92
CORPUS_SIZE = 200
INSTANCES_PER_NET = 5


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d}: FAIL - {description}")
                raise
            print(f"[acceptance] criterion {number:02d}: PASS - {description}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def demo():
    net = load_network(DEMO_DOC)
    domain = load_domain(DEMO_DOC)
    return net, domain


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    entries = []
    for _ in range(CORPUS_SIZE):
        net, domain = random_network(rng)
        instances = [random_instance(rng, net, domain)
                     for _ in range(INSTANCES_PER_NET)]
        entries.append((net, domain, instances))
    return entries


@pytest.fixture(scope="module")
def engines(corpus):
    return [Explainer(net, domain) for net, domain, _ in corpus]


@pytest.fixture(scope="module")
def corpus_runs(corpus, engines):
    """Both modes on every corpus instance; shared by criteria 6-8."""
    runs = []
    for (net, domain, instances), engine in zip(corpus, engines):
        for instance in instances:
            base_expl, base_stats = engine.explain(instance, "baseline")
            ours_expl, ours_stats = engine.explain(instance, "improved")
            runs.append({
                "net": net, "domain": domain, "engine": engine,
                "instance": instance,
                "baseline": (base_expl, base_stats),
                "improved": (ours_expl, ours_stats),
            })
    return runs


@criterion(1, "reference bounds: box and solver-tight values on the demo net")
def test_criterion_01_reference_bounds(demo):
    net, domain = demo
    start = time.perf_counter()
    boxed = box_propagate(net, domain.lows, domain.highs)
    assert boxed.pre_lo[0] == pytest.approx([0.2, -0.5], abs=1e-9)
    assert boxed.pre_hi[0] == pytest.approx([1.2, 0.5], abs=1e-9)
    assert np.maximum(boxed.pre_lo[0], 0.0) == pytest.approx([0.2, 0.0], abs=1e-9)
    assert np.maximum(boxed.pre_hi[0], 0.0) == pytest.approx([1.2, 0.5], abs=1e-9)
    assert boxed.out_lo == pytest.approx([0.2, -0.3], abs=1e-9)
    assert boxed.out_hi == pytest.approx([1.7, 1.2], abs=1e-9)
    tight = compute_tight_bounds(net, domain, "milp")
    assert tight.out_lo == pytest.approx([0.2, 0.2], abs=1e-9)
    assert tight.out_hi == pytest.approx([1.4, 1.0], abs=1e-9)
    assert time.perf_counter() - start < 1.0


@criterion(2, "box shortcut discharges the second attribute without the solver")
def test_criterion_02_box_shortcut(demo):
    net, domain = demo
    boxed = box_propagate(net, *pinned_box(domain, {0: 0.7}))
    assert boxed.out_lo == pytest.approx([1.1, 0.4], abs=1e-9)
    assert boxed.out_hi == pytest.approx([1.7, 1.0], abs=1e-9)
    assert shortcut_check(boxed, 0) is ShortcutResult.REMOVABLE
    # order puts the discharged attribute first; the other attribute then
    # falls to a forward-pass counterexample, so no solver call is left
    engine = Explainer(net, domain, EngineConfig(order=(1, 0)))
    explanation, stats = engine.explain([0.7, 0.2], "improved")
    assert explanation.decisions[1] is Decision.REMOVED_BY_BOX
    assert explanation.decisions[0] is Decision.KEPT_BY_COUNTEREXAMPLE
    assert stats.box_shortcut_hits == 1
    assert stats.solver_calls == 0


@criterion(3, "pinned refinement values for the freed first attribute")
def test_criterion_03_pinned_refinement_values(demo):
    net, domain = demo
    boxed = box_propagate(net, *pinned_box(domain, {1: 0.2}))
    target = 0
    assert shortcut_check(boxed, target) is ShortcutResult.INCONCLUSIVE

    tight = compute_tight_bounds(net, domain, "milp")
    base = encode_network(net, tight)
    simplified, _ = tighten_and_simplify(net, tight, merge_bounds(tight, boxed))
    # big-M constant of the first hidden neuron refines 1.2 -> 0.9, then the
    # still-positive lower bound collapses the block and drops its binary
    assert block(base, 0, 0).pre_ub == pytest.approx(1.2, abs=1e-9)
    assert block(simplified, 0, 0).pre_ub == pytest.approx(0.9, abs=1e-9)
    assert block(simplified, 0, 0).mode == MODE_ACTIVE
    assert block(simplified, 0, 0).z_var is None

    # The box must enclose every reachable output, or the merged bounds could
    # cut off a real counterexample.  (0.7, 0.2) evaluates to (1.4, 0.4), so
    # output0's enclosure must reach 1.4.
    for x0 in (0.0, 0.2, 0.7):
        outputs = forward(net, [x0, 0.2]).outputs
        assert (outputs >= boxed.out_lo - 1e-9).all(), (x0, outputs)
        assert (outputs <= boxed.out_hi + 1e-9).all(), (x0, outputs)

    # Pinned endpoint set, derived by hand in the module docstring: out0 =
    # [0.2, 1.4], out1 = [-0.3, 0.9] (loose: out1 never exceeds 0.4), and
    # merging out1 with its tight bound [0.2, 1.0] gives [0.2, 0.9].
    failures = []

    def expect(label, got, want):
        if abs(got - want) > 1e-9:
            failures.append(f"{label}: expected {want}, engine yields {got}")

    expect("box output0 lower", boxed.out_lo[0], 0.2)
    expect("box output0 upper", boxed.out_hi[0], 1.4)
    expect("box output1 lower", boxed.out_lo[1], -0.3)
    expect("box output1 upper", boxed.out_hi[1], 0.9)
    merged_out1 = simplified.output_vids[1]
    expect("merged output1 lower", simplified.lp.lb[merged_out1], 0.2)
    expect("merged output1 upper", simplified.lp.ub[merged_out1], 0.9)
    assert not failures, "; ".join(failures)


@criterion(4, "worked MILP example: minimum 1.0 at (x1, z1) = (1, 1)")
def test_criterion_04_worked_milp(worked_milp):  # noqa: F811
    out = optimize(worked_milp, {1: 1.0}, "min")
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-6)
    assert out.point[0] == pytest.approx(1.0, abs=1e-6)
    assert out.point[2] == pytest.approx(1.0, abs=1e-6)
    truth = oracle_enumerate(worked_milp, {1: 1.0}, "min")
    assert truth.value == pytest.approx(1.0, abs=1e-6)


class _CrossCheckBackend(BranchAndBoundBackend):
    """Every feasibility answer is compared against exhaustive enumeration."""

    def __init__(self):
        super().__init__()
        self.checked = 0
        self.disagreements = []

    def feasibility(self, problem, *, time_budget_ms=None):
        out = super().feasibility(problem, time_budget_ms=time_budget_ms)
        truth = oracle_enumerate(problem)
        self.checked += 1
        if out.status != truth.status:
            self.disagreements.append((out.status, truth.status))
        return out


@criterion(5, "solver agrees with the enumeration oracle on every rival query")
def test_criterion_05_oracle_equivalence(corpus, engines):
    start = time.perf_counter()
    backend = _CrossCheckBackend()
    config = EngineConfig(backend=backend)
    for (net, domain, instances), engine in zip(corpus, engines):
        checked_engine = Explainer(net, domain, config, tight=engine.tight)
        checked_engine.explain(instances[0], "baseline")
        checked_engine.explain(instances[0], "improved")
    elapsed = time.perf_counter() - start
    assert backend.checked > CORPUS_SIZE
    assert backend.disagreements == []
    assert elapsed < 300.0, f"oracle equivalence took {elapsed:.0f}s"


@criterion(6, "baseline and improved modes return identical kept-sets")
def test_criterion_06_mode_equivalence(corpus_runs):
    assert len(corpus_runs) == CORPUS_SIZE * INSTANCES_PER_NET
    for run in corpus_runs:
        base_expl, _ = run["baseline"]
        ours_expl, _ = run["improved"]
        assert base_expl.kept == ours_expl.kept
        assert base_expl.target == ours_expl.target


@criterion(7, "every explanation passes sufficiency and minimality checks")
def test_criterion_07_explanation_validity(corpus_runs):
    rng = np.random.default_rng(CORPUS_SEED + 1)
    for run in corpus_runs:
        explanation, _ = run["improved"]
        report = verify_explanation(
            run["net"], run["instance"], explanation, run["domain"],
            samples=1000, rng=rng, base_problem=run["engine"].base_problem)
        assert report.sufficiency_violations == ()
        assert all(v == "confirmed" for v in report.minimality.values())


@criterion(8, "improved mode never does worse on binaries or solver calls")
def test_criterion_08_metric_directionality(corpus_runs):
    strict_reduction_with_hit = False
    for run in corpus_runs:
        _, base_stats = run["baseline"]
        _, ours_stats = run["improved"]
        assert ours_stats.bin_vars_removed_ours_pct >= \
            ours_stats.bin_vars_removed_before_pct
        assert ours_stats.removed_ours_count >= ours_stats.removed_before_count
        assert ours_stats.solver_calls <= base_stats.solver_calls
        if (ours_stats.solver_calls < base_stats.solver_calls
                and ours_stats.box_shortcut_hits > 0):
            strict_reduction_with_hit = True
    assert strict_reduction_with_hit


@criterion(9, "simplification preserves satisfiability of rival queries")
def test_criterion_09_equisatisfiability():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    for _ in range(100):
        net, domain = random_network(rng, max_hidden_total=8)
        tight = box_propagate(net, domain.lows, domain.highs)
        problem = encode_network(net, tight)
        instance = random_instance(rng, net, domain)
        fixed = rng.choice(net.input_dim, size=rng.integers(0, net.input_dim),
                           replace=False)
        box = pinned_box(domain, {j: instance[j] for j in fixed})
        boxed = box_propagate(net, *box)
        k = net.class_count
        target = int(rng.integers(k))
        rival = int((target + 1 + rng.integers(k - 1)) % k)
        plain = attach_rival_query(fix_attributes(problem, *box), target, rival)
        simplified, _ = tighten_and_simplify(net, tight,
                                             merge_bounds(tight, boxed))
        simp = attach_rival_query(fix_attributes(simplified, *box), target, rival)
        assert solve_feasibility(plain).status == solve_feasibility(simp).status


@criterion(10, "simplex matches vertex enumeration; degenerate fixture halts")
def test_criterion_10_simplex_oracle():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    for _ in range(500):
        p = random_bounded_lp(rng)
        feasible, best = vertex_enumerate(p)
        out = solve_lp(p)
        if feasible:
            assert out.status == "optimal"
            assert out.value == pytest.approx(best, rel=1e-6, abs=1e-6)
        else:
            assert out.status == "infeasible"
    # classic degenerate cycling instance terminates under the stall guard
    a = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    p = LpProblem(a, ("<=", "<=", "<="), np.array([0.0, 0.0, 1.0]),
                  np.zeros(4), np.full(4, np.inf),
                  np.array([-0.75, 150.0, -0.02, 6.0]))
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-0.05, abs=1e-9)
