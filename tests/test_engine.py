import logging
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from boxplain.box import box_propagate, margin_lower_bounds
from boxplain.bnb import (INTEGRALITY_TOL, BranchAndBoundBackend, MilpOutcome,
                          milp_to_lp, optimize)
from boxplain.encoding import (encode_prefix, fix_attributes, forward_point,
                               merge_bounds)
from boxplain.engine import (Decision, EngineConfig, Explainer, Explanation,
                             ExplainStats, InstanceError, PredictionTieError,
                             attribute_order, compute_tight_bounds, is_entailed,
                             verify_explanation)
from boxplain.model import IDENTITY, RELU, InputDomain, Layer, Network, forward, predict
from boxplain.simplex import FEAS_TOL, SolverFailure, _certify, prepare
from conftest import DEMO_INSTANCE, pinned_box
from netgen import random_instance, random_network
from oracles import ORACLE_BINARY_CAP, oracle_enumerate


def explain(net, instance, domain, mode, config=None):
    """One explanation from a fresh Explainer (tight bounds computed anew)."""
    return Explainer(net, domain, config).explain(instance, mode)


class TestTightBounds:
    def test_demo_milp_mode(self, demo_net, demo_domain):
        tight = compute_tight_bounds(demo_net, demo_domain, "milp")
        assert tight.out_lo == pytest.approx([0.2, 0.2], abs=1e-9)
        assert tight.out_hi == pytest.approx([1.4, 1.0], abs=1e-9)
        assert tight.pre_lo[0] == pytest.approx([0.2, -0.5], abs=1e-9)
        assert tight.pre_hi[0] == pytest.approx([1.2, 0.5], abs=1e-9)

    def test_failed_bound_milp_names_its_sense(self, demo_net, demo_domain):
        class NoMaximum(BranchAndBoundBackend):
            def optimize(self, problem, objective, sense):
                if sense == "max":
                    return MilpOutcome("infeasible")
                return super().optimize(problem, objective, sense)

        with pytest.raises(RuntimeError,
                           match="bound optimization failed: max infeasible"):
            compute_tight_bounds(demo_net, demo_domain, "milp", NoMaximum())

    def test_demo_box_mode(self, demo_net, demo_domain):
        boxed = compute_tight_bounds(demo_net, demo_domain, "box")
        assert boxed.out_lo == pytest.approx([0.2, -0.3], abs=1e-9)
        assert boxed.out_hi == pytest.approx([1.7, 1.2], abs=1e-9)

    def test_zero_weight_network_all_point_intervals(self):
        net = Network((
            Layer(np.zeros((2, 2)), np.array([0.5, -1.0]), RELU),
            Layer(np.zeros((2, 2)), np.array([1.0, 0.0]), IDENTITY),
        ), 2)
        domain = InputDomain(np.zeros(2), np.ones(2))
        for mode in ("milp", "box"):
            b = compute_tight_bounds(net, domain, mode)
            assert b.pre_lo[0] == pytest.approx([0.5, -1.0], abs=1e-9)
            assert b.pre_hi[0] == pytest.approx([0.5, -1.0], abs=1e-9)
            assert np.maximum(b.pre_lo[0], 0.0) == pytest.approx([0.5, 0.0], abs=1e-9)
            assert b.out_lo == pytest.approx([1.0, 0.0], abs=1e-9)
            assert b.out_hi == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_milp_contained_in_box(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            net, domain = random_network(rng, max_hidden_total=8)
            tight = compute_tight_bounds(net, domain, "milp")
            boxed = compute_tight_bounds(net, domain, "box")
            for l in range(len(net.hidden_layers)):
                assert (tight.pre_lo[l] >= boxed.pre_lo[l] - 1e-9).all()
                assert (tight.pre_hi[l] <= boxed.pre_hi[l] + 1e-9).all()
            assert (tight.out_lo >= boxed.out_lo - 1e-9).all()
            assert (tight.out_hi <= boxed.out_hi + 1e-9).all()

    def test_layer_zero_is_the_box_and_the_lp_optimum(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            net, domain = random_network(rng, max_hidden_total=8)
            tight = compute_tight_bounds(net, domain, "milp")
            boxed = box_propagate(net, domain.lows, domain.highs)
            assert (tight.pre_lo[0] == boxed.pre_lo[0]).all()
            assert (tight.pre_hi[0] == boxed.pre_hi[0]).all()
            # the layer-0 prefix: the input box, and the layer's outputs
            prefix = encode_prefix(net, boxed, 0)
            layer = net.hidden_layers[0]
            for j in range(layer.width):
                objective = dict(zip(prefix.input_vids, map(float, layer.weights[j])))
                bias = float(layer.biases[j])
                lo = optimize(prefix, objective, "min").value + bias
                hi = optimize(prefix, objective, "max").value + bias
                assert lo == pytest.approx(tight.pre_lo[0][j], abs=1e-9)
                assert hi == pytest.approx(tight.pre_hi[0][j], abs=1e-9)

    def test_unknown_mode(self, demo_net, demo_domain):
        with pytest.raises(ValueError):
            compute_tight_bounds(demo_net, demo_domain, "exact")

    def test_every_bound_matches_the_oracle(self):
        # every min and max past layer 0, outputs included, against the
        # enumeration oracle on the prefix the bound was optimized over
        rng = np.random.default_rng(101)
        compared = 0
        for depth in (2, 3, 2, 3, 2, 3):
            net, domain = random_network(rng, depth=depth, max_hidden_total=9)
            compared += _bounds_match_the_oracle(net, domain)
        assert compared >= 60

    def test_width_one_hidden_layer(self):
        # a prefix's last layer is no network's output layer, so a width-1
        # hidden layer past layer 0 needs no two classes
        net = Network((
            Layer(np.array([[1.0, -1.0], [0.5, 1.0], [-1.0, 0.5]]),
                  np.array([0.1, -0.3, 0.2]), RELU),
            Layer(np.array([[1.0, -1.0, 0.5]]), np.array([-0.1]), RELU),
            Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 0.2]), IDENTITY),
        ), 2)
        domain = InputDomain(np.array([-1.0, -1.0]), np.ones(2))
        assert _bounds_match_the_oracle(net, domain) == 2 * (1 + 2)

    def test_optimize_returns_certified_integral_points(self):
        # one setup pass: every optimum is a MILP point of its root, its
        # value is the objective at that point, and the forward-pass
        # incumbent supplies some of them
        rng = np.random.default_rng(103)
        checked = forward = 0
        for depth in (2, 3, 3):
            net, domain = random_network(rng, depth=depth)
            backend = _RecordingOptimize()
            Explainer(net, domain, EngineConfig(backend=backend))
            for problem, objective, sense, out in backend.calls:
                assert out.status == "optimal"
                point = out.point
                z = point[list(problem.binary_vids)]
                assert (np.abs(z - np.round(z)) <= INTEGRALITY_TOL).all()
                lp = problem.lp
                _certify(prepare(milp_to_lp(problem)), lp.lb, lp.ub, point)
                value = sum(c * point[vid] for vid, c in objective.items())
                assert out.value == pytest.approx(value, rel=1e-12, abs=1e-12)
                inputs = point[list(problem.input_vids)]
                forward += np.array_equal(forward_point(problem, inputs), point)
                checked += 1
        assert checked >= 40
        assert forward >= 10

    def test_one_debug_line_per_neuron_and_sense(self, caplog):
        rng = np.random.default_rng(107)
        net, domain = random_network(rng, depth=3)
        backend = _RecordingOptimize()
        with caplog.at_level(logging.DEBUG, logger="boxplain.engine"):
            compute_tight_bounds(net, domain, "milp", backend)
        pattern = re.compile(r"tight (min|max) layer (\d+) neuron (\d+): (\d+) nodes, "
                             r"(\d+) LP iterations, [0-9.]+ s, "
                             r"(forward-pass incumbent|LP leaf)$")
        lines = [pattern.match(r.getMessage()) for r in caplog.records
                 if r.name == "boxplain.engine"]
        assert all(lines)
        expected = [(sense, l, j) for l in range(1, len(net.layers))
                    for j in range(net.layers[l].width) for sense in ("min", "max")]
        assert [(m[1], int(m[2]), int(m[3])) for m in lines] == expected
        for m, (problem, _, sense, out) in zip(lines, backend.calls):
            assert m[1] == sense
            assert (int(m[4]), int(m[5])) == (out.node_count, out.lp_iterations)
            inputs = out.point[list(problem.input_vids)]
            from_forward = np.array_equal(forward_point(problem, inputs), out.point)
            assert (m[6] == "forward-pass incumbent") == from_forward
        assert any(m[6] == "forward-pass incumbent" for m in lines)


def _bounds_match_the_oracle(net, domain) -> int:
    """Check each milp bound past layer 0 against the enumeration oracle on
    the prefix it was optimized over: the layers before it at their milp
    bounds, its own outputs at their box bounds.  Returns the count."""
    tight = compute_tight_bounds(net, domain, "milp")
    boxed = box_propagate(net, domain.lows, domain.highs)
    found_lo, found_hi = zip(*tight.layers)
    compared = 0
    for l in range(1, len(net.layers)):
        seen = replace(boxed, pre_lo=tight.pre_lo[:l] + boxed.pre_lo[l:],
                       pre_hi=tight.pre_hi[:l] + boxed.pre_hi[l:])
        prefix = encode_prefix(net, seen, l)
        assert len(prefix.binary_vids) <= ORACLE_BINARY_CAP
        for j, vid in enumerate(prefix.output_vids):
            for sense, got in (("min", found_lo[l][j]), ("max", found_hi[l][j])):
                truth = oracle_enumerate(prefix, {vid: 1.0}, sense).value
                assert got == pytest.approx(truth, rel=1e-6, abs=1e-6)
                compared += 1
    return compared


class _RecordingOptimize(BranchAndBoundBackend):
    """Records every optimize call with its outcome."""

    def __init__(self):
        super().__init__()
        self.calls = []  # (problem, objective, sense, outcome)

    def optimize(self, problem, objective, sense):
        out = super().optimize(problem, objective, sense)
        self.calls.append((problem, objective, sense, out))
        return out


class TestIsEntailed:
    def test_first_attribute_fixed_entails(self, demo_net, demo_domain):
        ex = Explainer(demo_net, demo_domain)
        fixed = fix_attributes(ex.base_problem, *pinned_box(demo_domain, {0: 0.7}))
        entailed, witness = is_entailed(fixed, 0)
        assert entailed is True and witness is None

    def test_free_first_attribute_fails_with_witness(self, demo_net, demo_domain):
        ex = Explainer(demo_net, demo_domain)
        fixed = fix_attributes(ex.base_problem, *pinned_box(demo_domain, {1: 0.2}))
        entailed, witness = is_entailed(fixed, 0)
        assert entailed is False
        outs = forward(demo_net, witness).outputs
        assert outs[1] >= outs[0] - 1e-6

    def test_all_fixed_entails(self, demo_net, demo_domain):
        ex = Explainer(demo_net, demo_domain)
        fixed = fix_attributes(
            ex.base_problem, *pinned_box(demo_domain, {0: 0.7, 1: 0.2}))
        entailed, _ = is_entailed(fixed, 0)
        assert entailed is True


class TestExplainDemo:
    def test_baseline(self, demo_net, demo_domain):
        explanation, stats = explain(demo_net, [0.7, 0.2], demo_domain, "baseline")
        assert explanation.target == 0
        assert explanation.kept == ((0, 0.7),)
        assert explanation.decisions == {0: Decision.KEPT_BY_SOLVER,
                                         1: Decision.REMOVED_BY_SOLVER}
        assert stats.box_shortcut_hits == 0
        assert stats.solver_calls == 2

    def test_improved_uses_box_shortcut(self, demo_net, demo_domain):
        explanation, stats = explain(demo_net, [0.7, 0.2], demo_domain, "improved")
        assert explanation.kept == ((0, 0.7),)
        # freeing x0 admits any x0 <= 0.2, which the sampled points hit
        assert explanation.decisions == {0: Decision.KEPT_BY_COUNTEREXAMPLE,
                                         1: Decision.REMOVED_BY_BOX}
        assert stats.box_shortcut_hits == 1
        assert stats.solver_calls == 0
        assert stats.bin_vars_removed_ours_pct >= stats.bin_vars_removed_before_pct

    def test_custom_order_same_kept_set(self, demo_net, demo_domain):
        config = EngineConfig(order=(1, 0))
        explanation, _ = explain(demo_net, [0.7, 0.2], demo_domain, "improved",
                                 config)
        assert explanation.kept_indices == (0,)

    def test_instance_outside_domain(self, demo_net, demo_domain):
        with pytest.raises(ValueError, match="domain"):
            explain(demo_net, [0.9, 0.2], demo_domain, "improved")

    def test_exact_tie_rejected(self, demo_net, demo_domain):
        with pytest.raises(PredictionTieError):
            explain(demo_net, [0.3, 0.3], demo_domain, "improved")

    def test_bad_order_rejected(self, demo_net, demo_domain):
        with pytest.raises(ValueError, match="permutation"):
            explain(demo_net, [0.7, 0.2], demo_domain, "improved",
                    EngineConfig(order=(0, 0)))

    def test_order_entries_must_be_integer_values(self, demo_net, demo_domain):
        # int() would truncate (1.9, 0.2) to the permutation (1, 0)
        with pytest.raises(ValueError, match="permutation"):
            attribute_order((1.9, 0.2), 2)
        with pytest.raises(ValueError, match="permutation"):
            Explainer(demo_net, demo_domain, EngineConfig(order=(1.9, 0.2)))
        order = attribute_order((np.int64(1), np.int64(0)), 2)
        assert order == (1, 0) and all(type(i) is int for i in order)


class TestExplainEdgeCases:
    def test_ignoring_network_gives_empty_explanation(self):
        net = Network((
            Layer(np.zeros((2, 2)), np.array([0.5, -1.0]), RELU),
            Layer(np.zeros((2, 2)), np.array([1.0, 0.0]), IDENTITY),
        ), 2)
        domain = InputDomain(np.zeros(2), np.ones(2))
        for mode in ("baseline", "improved"):
            explanation, _ = explain(net, [0.4, 0.6], domain, mode)
            assert explanation.kept == ()

    @pytest.mark.parametrize("instance", [[0.6], [0.7, 0.2, 0.1], [[0.7, 0.2]]])
    def test_wrong_shape_is_an_instance_error(self, demo_net, demo_domain,
                                              instance):
        shape = np.shape(instance)
        with pytest.raises(InstanceError,
                           match=re.escape(f"shape {shape}, expected (2,)")):
            Explainer(demo_net, demo_domain).explain(instance)
        assert not demo_domain.contains(instance)

    def test_monotone_single_input_keeps_everything(self):
        net = Network((Layer(np.array([[1.0], [-1.0]]), np.zeros(2), IDENTITY),), 1)
        domain = InputDomain(np.array([-1.0]), np.array([1.0]))
        # freeing the only attribute admits the class-flip point -1
        assert predict(net, [0.5]) == 0
        assert predict(net, [-1.0]) == 1
        for mode in ("baseline", "improved"):
            explanation, _ = explain(net, [0.5], domain, mode)
            assert explanation.kept == ((0, 0.5),)

    @pytest.mark.parametrize("budget", [-5.0, 0.0, float("nan"), float("inf")])
    def test_meaningless_time_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="positive finite number"):
            EngineConfig(time_budget_ms=budget)

    def test_timeout_keeps_attribute_flagged(self, demo_net, demo_domain):
        # a nanosecond runs out before the first node of any query
        config = EngineConfig(time_budget_ms=1e-6)
        explanation, stats = explain(demo_net, [0.7, 0.2], demo_domain,
                                     "baseline", config)
        assert explanation.kept_indices == (0, 1)
        assert set(explanation.decisions.values()) == {Decision.KEPT_BY_TIMEOUT}
        assert stats.timeouts == 2

    def test_three_classes_one_query_per_rival(self):
        # constant 3-class network: every attribute is removable, and the
        # baseline pays one feasibility call per rival per attribute
        net = Network((
            Layer(np.zeros((2, 2)), np.array([0.5, 0.1]), RELU),
            Layer(np.zeros((3, 2)), np.array([0.0, 1.0, 0.5]), IDENTITY),
        ), 2)
        domain = InputDomain(np.zeros(2), np.ones(2))
        explanation, stats = explain(net, [0.4, 0.6], domain, "baseline")
        assert explanation.target == 1
        assert explanation.kept == ()
        assert stats.solver_calls == 2 * net.input_dim
        _, improved_stats = explain(net, [0.4, 0.6], domain, "improved")
        assert improved_stats.solver_calls == 0
        assert improved_stats.box_shortcut_hits == net.input_dim


class TestModeEquivalenceAndSoundness:
    def test_redundant_kept_attribute_is_flagged(self, demo_net, demo_domain):
        # attribute 0 at 0.7 alone forces class 0, so keeping attribute 1
        # too is not minimal
        forged = Explanation(kept=((0, 0.7), (1, 0.2)),
                             decisions={0: Decision.KEPT_BY_SOLVER,
                                        1: Decision.KEPT_BY_SOLVER},
                             target=0)
        report = verify_explanation(demo_net, DEMO_INSTANCE, forged, demo_domain,
                                    samples=200, rng=1)
        assert report.minimality == {0: "confirmed", 1: "violated"}
        assert report.sufficiency_ok
        assert not report.ok

    def test_kept_sets_match_across_modes(self):
        rng = np.random.default_rng(67)
        for _ in range(12):
            net, domain = random_network(rng, max_hidden_total=8)
            ex = Explainer(net, domain)
            for _ in range(2):
                instance = random_instance(rng, net, domain)
                base, _ = ex.explain(instance, "baseline")
                ours, _ = ex.explain(instance, "improved")
                assert base.kept == ours.kept
                assert base.target == ours.target

    def test_box_removals_confirmed_by_solver(self):
        rng = np.random.default_rng(71)
        confirmed = 0
        for _ in range(10):
            net, domain = random_network(rng, max_hidden_total=8)
            ex = Explainer(net, domain)
            instance = random_instance(rng, net, domain)
            explanation, _ = ex.explain(instance, "improved")
            kept = dict(explanation.kept)
            for i, decision in explanation.decisions.items():
                if decision is not Decision.REMOVED_BY_BOX:
                    continue
                fixed = [j for j in kept if j != i]
                problem = fix_attributes(
                    ex.base_problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
                entailed, _ = is_entailed(problem, explanation.target)
                assert entailed is True
                confirmed += 1
        assert confirmed >= 3

    def test_state_reverts_after_improved_run(self, demo_net, demo_domain):
        ex = Explainer(demo_net, demo_domain)
        tight_before = ex.tight
        lp_before = ex.base_problem.lp
        arrays_before = [arr.copy() for arr in (lp_before.a, lp_before.rhs,
                                                lp_before.lb, lp_before.ub)]
        snapshot = [a.copy() for a in (tight_before.out_lo, tight_before.out_hi,
                                       tight_before.pre_lo[0], tight_before.pre_hi[0])]
        ex.explain([0.7, 0.2], "improved")
        assert ex.tight is tight_before
        assert ex.base_problem.lp is lp_before
        for now, before in zip((lp_before.a, lp_before.rhs, lp_before.lb,
                                lp_before.ub), arrays_before):
            assert (now == before).all()
        for now, before in zip((tight_before.out_lo, tight_before.out_hi,
                                tight_before.pre_lo[0], tight_before.pre_hi[0]),
                               snapshot):
            assert (now == before).all()

    def test_removed_percentages_ordered(self):
        rng = np.random.default_rng(73)
        for _ in range(8):
            net, domain = random_network(rng, max_hidden_total=8)
            ex = Explainer(net, domain)
            instance = random_instance(rng, net, domain)
            _, stats = ex.explain(instance, "improved")
            assert stats.bin_vars_removed_ours_pct >= \
                stats.bin_vars_removed_before_pct
            assert stats.removed_ours_count >= stats.removed_before_count


class _RecordingBackend(BranchAndBoundBackend):
    """Records the free attributes and the rival of every feasibility call."""

    def __init__(self):
        super().__init__()
        self.calls = []  # (frozenset of free attributes, rival)

    def feasibility(self, problem, *, time_budget_ms=None):
        lp = problem.lp
        free = frozenset(a for a, vid in enumerate(problem.input_vids)
                         if lp.lb[vid] < lp.ub[vid])
        # attach_rival_query appends o_rival - o_target >= 0 as the last row
        rival = next(r for r, vid in enumerate(problem.output_vids)
                     if lp.a[-1, vid] == 1.0)
        self.calls.append((free, rival))
        return super().feasibility(problem, time_budget_ms=time_budget_ms)


def _proven(net, domain, tight, instance, free, target) -> set:
    """The rivals the margin bound proves with the attributes in ``free``
    freed, from the bounds improved mode merges for that query."""
    fixed = [j for j in range(net.input_dim) if j not in free]
    boxed = box_propagate(net, *pinned_box(domain, {j: instance[j] for j in fixed}))
    margins = margin_lower_bounds(net, merge_bounds(tight, boxed), target)
    return {r for r in range(net.class_count)
            if r != target and margins[r] > FEAS_TOL}


def _recorded_explain(net, domain, instance):
    backend = _RecordingBackend()
    ex = Explainer(net, domain, EngineConfig(backend=backend))
    explanation, stats = ex.explain(instance, "improved")
    return explanation, stats, backend.calls


class TestFalsify:
    def test_counterexample_kept_confirmed_by_solver(self):
        rng = np.random.default_rng(83)
        confirmed = 0
        for _ in range(10):
            net, domain = random_network(rng, max_hidden_total=8)
            ex = Explainer(net, domain)
            instance = random_instance(rng, net, domain)
            explanation, stats = ex.explain(instance, "improved")
            kept = dict(explanation.kept)
            hits = 0
            for i, decision in explanation.decisions.items():
                if decision is not Decision.KEPT_BY_COUNTEREXAMPLE:
                    continue
                fixed = [j for j in kept if j != i]
                problem = fix_attributes(
                    ex.base_problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
                entailed, _ = is_entailed(problem, explanation.target)
                assert entailed is False
                hits += 1
            assert stats.counterexample_hits == hits
            confirmed += hits
        assert confirmed >= 3

    def test_falsified_attribute_makes_no_feasibility_call(self, demo_net,
                                                           demo_domain):
        _, stats, calls = _recorded_explain(demo_net, demo_domain, [0.7, 0.2])
        assert stats.counterexample_hits == 1 and calls == []
        rng = np.random.default_rng(89)
        falsified = 0
        for _ in range(10):
            net, domain = random_network(rng, max_hidden_total=8)
            instance = random_instance(rng, net, domain)
            explanation, stats, calls = _recorded_explain(net, domain, instance)
            assert stats.solver_calls == len(calls)
            # a kept attribute is free only in its own iteration's queries
            queried = set().union(*(free for free, _ in calls))
            for i, decision in explanation.decisions.items():
                if decision is Decision.KEPT_BY_COUNTEREXAMPLE:
                    assert i not in queried
                    falsified += 1
        assert falsified >= 3

    def test_first_rival_queried_has_the_highest_box_upper_bound(self):
        rng = np.random.default_rng(97)
        reordered = 0
        for _ in range(12):
            net, domain = random_network(rng, n_classes=4, max_hidden_total=8)
            tight = compute_tight_bounds(net, domain)
            instance = random_instance(rng, net, domain)
            explanation, _, calls = _recorded_explain(net, domain, instance)
            target = explanation.target
            firsts = [call for n, call in enumerate(calls)
                      if n == 0 or calls[n - 1][0] != call[0]]
            for free, rival in firsts:
                fixed = [j for j in range(net.input_dim) if j not in free]
                boxed = box_propagate(
                    net, *pinned_box(domain, {j: instance[j] for j in fixed}))
                closed = {target} | _proven(net, domain, tight, instance, free,
                                            target)
                out_hi = boxed.out_hi.copy()
                out_hi[list(closed)] = -np.inf
                assert rival == int(np.argmax(out_hi))
                reordered += rival != min(set(range(4)) - closed)
        # index order would have asked another rival first
        assert reordered >= 3

    def test_explaining_twice_is_identical(self):
        rng = np.random.default_rng(101)
        cases = []
        for _ in range(4):
            net, domain = random_network(rng, n_classes=3, max_hidden_total=8)
            cases.append((Explainer(net, domain),
                          random_instance(rng, net, domain)))
        # the rival is a hat of half-width w at x = 0.3 and wins only on its
        # middle w, which 128 uniform points of [0, 1] hit about half the
        # time: a fresh draw per call would show.  The gradient steps cannot
        # help, as the hat is flat outside and a step of 0.1 overshoots it
        w = 0.0054
        net = Network((
            Layer(np.ones((3, 1)), np.array([w - 0.3, -0.3, -0.3 - w]), RELU),
            Layer(np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 1.0]]) / w,
                  np.array([0.5, 0.0]), IDENTITY)), 1)
        cases += [(Explainer(net, InputDomain(np.zeros(1), np.ones(1))),
                   [0.9])] * 8
        for ex, instance in cases:
            first, first_stats = ex.explain(instance, "improved")
            second, second_stats = ex.explain(instance, "improved")
            assert first.decisions == second.decisions
            assert first_stats.solver_calls == second_stats.solver_calls

    def test_ascent_finds_what_sampling_cannot(self):
        # h = relu(sum x) beats 15.5 only in the corner sum x > 15.5 of the
        # unit box, which uniform samples practically never reach
        n = 16
        net = Network((Layer(np.ones((1, n)), np.zeros(1), RELU),
                       Layer(np.array([[0.0], [1.0]]), np.array([15.5, 0.0]),
                             IDENTITY)), n)
        domain = InputDomain(np.zeros(n), np.ones(n))
        instance = np.zeros(n)
        explanation, stats, calls = _recorded_explain(net, domain, instance)
        assert explanation.decisions[15] is Decision.KEPT_BY_COUNTEREXAMPLE
        assert stats.counterexample_hits == 1
        assert stats.solver_calls == 0 and calls == []
        assert explanation.kept_indices == (15,)
        ex = Explainer(net, domain)
        baseline, _ = ex.explain(instance, "baseline")
        assert baseline.kept_indices == (15,)
        problem = fix_attributes(ex.base_problem, domain.lows, domain.highs)
        assert is_entailed(problem, explanation.target)[0] is False


class TestRivalOrder:
    def test_rivals_must_name_every_other_class(self):
        net, domain = random_network(np.random.default_rng(103), n_classes=3)
        problem = Explainer(net, domain).base_problem
        # a duplicate, the target, a class out of range; a subset is fine
        for bad in ((1, 1), (0, 1, 2), (1, 3)):
            with pytest.raises(ValueError, match="rivals"):
                is_entailed(problem, 0, rivals=bad)
        outcomes = []
        is_entailed(problem, 0, rivals=(2,), outcomes=outcomes)
        assert len(outcomes) == 1

    def test_unexpected_status_is_a_solver_failure(self):
        class Optimal(BranchAndBoundBackend):
            def feasibility(self, problem, *, time_budget_ms=None):
                return MilpOutcome("optimal")

        net, domain = random_network(np.random.default_rng(103), n_classes=3)
        problem = Explainer(net, domain).base_problem
        with pytest.raises(SolverFailure, match="unexpected solver status 'optimal'"):
            is_entailed(problem, 0, backend=Optimal())

    def test_order_changes_no_answer(self):
        rng = np.random.default_rng(107)
        for _ in range(6):
            net, domain = random_network(rng, n_classes=3, max_hidden_total=8)
            ex = Explainer(net, domain)
            instance = random_instance(rng, net, domain)
            fixed = rng.choice(net.input_dim, size=net.input_dim // 2,
                               replace=False)
            problem = fix_attributes(
                ex.base_problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
            target = predict(net, instance)
            others = [r for r in range(3) if r != target]
            forward_answer, _ = is_entailed(problem, target)
            backward_answer, _ = is_entailed(problem, target,
                                             rivals=tuple(reversed(others)))
            assert forward_answer == backward_answer


_REMOVED = (Decision.REMOVED_BY_BOX, Decision.REMOVED_BY_MARGIN,
            Decision.REMOVED_BY_SOLVER)
# the decisions of iterations that the margin bound or the solver decided;
# an iteration the gradient steps decide queries no rival
_PAST_FALSIFY = (Decision.REMOVED_BY_MARGIN, Decision.REMOVED_BY_SOLVER,
                 Decision.KEPT_BY_SOLVER, Decision.KEPT_BY_TIMEOUT)


class TestMarginBound:
    def test_proven_rivals_are_unsat(self):
        rng = np.random.default_rng(109)
        proven = removed = 0
        for _ in range(10):
            net, domain = random_network(rng, n_classes=int(rng.integers(2, 5)),
                                         max_hidden_total=8)
            ex = Explainer(net, domain)
            instance = random_instance(rng, net, domain)
            target = predict(net, instance)
            for _ in range(4):
                free = set(np.flatnonzero(rng.random(net.input_dim) < 0.5))
                fixed = [j for j in range(net.input_dim) if j not in free]
                problem = fix_attributes(
                    ex.base_problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
                for rival in _proven(net, domain, ex.tight, instance, free, target):
                    entailed, _ = is_entailed(problem, target, rivals=(rival,))
                    assert entailed is True
                    proven += 1
            explanation, stats = ex.explain(instance, "improved")
            kept = dict(explanation.kept)
            hits = 0
            for i, decision in explanation.decisions.items():
                if decision is Decision.REMOVED_BY_MARGIN:
                    fixed = [j for j in kept if j != i]
                    problem = fix_attributes(
                        ex.base_problem,
                        *pinned_box(domain, {j: instance[j] for j in fixed}))
                    assert is_entailed(problem, target)[0] is True
                    hits += 1
            assert stats.margin_hits == hits
            removed += hits
        assert proven >= 10 and removed >= 3

    def test_no_query_for_a_proven_rival(self):
        rng = np.random.default_rng(113)
        skipped = 0
        for _ in range(12):
            net, domain = random_network(rng, n_classes=int(rng.integers(3, 5)),
                                         max_hidden_total=8)
            tight = compute_tight_bounds(net, domain)
            instance = random_instance(rng, net, domain)
            explanation, stats, calls = _recorded_explain(net, domain, instance)
            asked = {}
            for free, rival in calls:
                asked.setdefault(free, set()).add(rival)
            removed, proven_count = set(), 0
            for i in range(net.input_dim):
                decision = explanation.decisions[i]
                free = frozenset(removed | {i})
                if decision in _PAST_FALSIFY:
                    proven = _proven(net, domain, tight, instance, free,
                                     explanation.target)
                    assert not proven & asked.get(free, set())
                    proven_count += len(proven)
                if decision in _REMOVED:
                    removed.add(i)
            assert stats.margin_rivals_skipped == proven_count
            skipped += proven_count
        assert skipped >= 5


class TestExplainStats:
    def test_pooled_nothing_is_zero(self):
        # the bench row when every instance failed
        pooled = ExplainStats.pooled([])
        assert all(v == 0 for v in asdict(pooled).values())
        assert pooled.bounds_tightened_pct == 0.0
        assert pooled.bin_vars_removed_before_pct == 0.0
        assert pooled.bin_vars_removed_ours_pct == 0.0

    def test_pooled_sums_fields_and_takes_ratios_of_sums(self):
        a = ExplainStats(total_time=0.5, solver_time=0.25, solver_calls=3,
                         box_shortcut_hits=1, counterexample_hits=2,
                         margin_hits=1, margin_rivals_skipped=3, timeouts=0,
                         tightened_count=1, neurons_counted=4,
                         removed_before_count=1, removed_ours_count=2,
                         binaries_counted=2)
        b = ExplainStats(total_time=1.0, solver_time=0.5, solver_calls=5,
                         box_shortcut_hits=2, counterexample_hits=1,
                         margin_hits=0, margin_rivals_skipped=1, timeouts=1,
                         tightened_count=6, neurons_counted=8,
                         removed_before_count=0, removed_ours_count=1,
                         binaries_counted=4)
        pooled = ExplainStats.pooled([a, b])
        da, db = asdict(a), asdict(b)
        assert asdict(pooled) == {k: da[k] + db[k] for k in da}
        # ratios of the sums (7/12, 1/6, 3/6), not means of the two runs'
        # own percentages (50, 25, 62.5)
        assert pooled.bounds_tightened_pct == pytest.approx(700.0 / 12)
        assert pooled.bin_vars_removed_before_pct == pytest.approx(100.0 / 6)
        assert pooled.bin_vars_removed_ours_pct == pytest.approx(50.0)
        assert (a.bounds_tightened_pct + b.bounds_tightened_pct) / 2 == 50.0


class TestVerification:
    def test_demo_explanation_verifies(self, demo_net, demo_domain):
        ex = Explainer(demo_net, demo_domain)
        explanation, _ = ex.explain([0.7, 0.2], "improved")
        report = verify_explanation(demo_net, [0.7, 0.2], explanation,
                                    demo_domain, samples=1000, rng=0,
                                    base_problem=ex.base_problem)
        assert report.ok
        assert report.sufficiency_violations == ()
        assert report.minimality == {0: "confirmed"}

    def test_empty_explanation_on_constant_network(self):
        net = Network((
            Layer(np.zeros((2, 2)), np.array([0.5, -1.0]), RELU),
            Layer(np.zeros((2, 2)), np.array([1.0, 0.0]), IDENTITY),
        ), 2)
        domain = InputDomain(np.zeros(2), np.ones(2))
        explanation, _ = explain(net, [0.4, 0.6], domain, "improved")
        report = verify_explanation(net, [0.4, 0.6], explanation, domain,
                                    samples=500, rng=1)
        assert report.ok and report.minimality == {}

    def test_corrupted_explanation_is_flagged(self):
        net = Network((Layer(np.array([[1.0], [-1.0]]), np.zeros(2), IDENTITY),), 1)
        domain = InputDomain(np.array([-1.0]), np.array([1.0]))
        corrupted = Explanation(kept=(),
                                decisions={0: Decision.REMOVED_BY_SOLVER},
                                target=0)
        report = verify_explanation(net, [0.5], corrupted, domain,
                                    samples=500, rng=2)
        assert not report.sufficiency_ok

    def test_timeout_attributes_reported_unverified(self, demo_net, demo_domain):
        config = EngineConfig(time_budget_ms=1e-6)
        explanation, _ = explain(demo_net, [0.7, 0.2], demo_domain, "baseline",
                                 config)
        report = verify_explanation(demo_net, [0.7, 0.2], explanation,
                                    demo_domain, samples=200, rng=3)
        assert report.unverified == (0, 1)

    def test_order_variants_all_verify(self):
        rng = np.random.default_rng(79)
        net, domain = random_network(rng, n_inputs=4, max_hidden_total=6)
        instance = random_instance(rng, net, domain)
        ex = Explainer(net, domain)
        orders = [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]
        for order in orders:
            cfg = EngineConfig(order=order)
            ex_o = Explainer(net, domain, cfg, tight=ex.tight)
            explanation, _ = ex_o.explain(instance, "improved")
            report = verify_explanation(net, instance, explanation, domain,
                                        samples=400, rng=4,
                                        base_problem=ex.base_problem)
            assert report.ok
