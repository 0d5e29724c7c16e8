from dataclasses import replace

import numpy as np
import pytest

import boxplain.bnb as bnb
import boxplain.simplex as simplex
from boxplain.box import box_propagate
from boxplain.bnb import (BranchAndBoundBackend, milp_to_lp, optimize,
                          solve_feasibility)
from boxplain.encoding import (MilpProblem, attach_rival_query,
                               encode_network, encode_prefix, fix_attributes,
                               forward_basis)
from boxplain.engine import compute_tight_bounds
from boxplain.model import forward, predict
from boxplain.simplex import (GE, LE, OPTIMAL, LpProblem, _Simplex, prepare,
                              solve_prepared)
from conftest import pinned_box
from netgen import random_instance, random_network
from oracles import (ORACLE_BINARY_CAP, eq2_style_milp, loop_records,
                     oracle_enumerate, random_bounded_lp)


def make_problem(lp, input_vids=()):
    """Hand-built problem around ``lp``'s rows and bounds (its objective is
    dropped), with no outputs: its output rows start past its last row."""
    lp = replace(lp, c=np.zeros_like(lp.c))
    return MilpProblem(lp, (), tuple(input_vids), (), len(lp.rel))


def make_lp(a, rel, rhs, lb, ub, binaries=()):
    n = len(lb)
    return LpProblem(np.array(a, dtype=float).reshape(len(rel), n), rel,
                     np.array(rhs, dtype=float), np.array(lb, dtype=float),
                     np.array(ub, dtype=float), np.zeros(n), binaries)


@pytest.fixture()
def worked_milp():
    """min y1 s.t. 1<=x1<=3, 3x1-2 <= y1 <= 3x1-2-0.5(1-z1), 0<=y1<=8z1."""
    return make_problem(eq2_style_milp(), input_vids=(0,))


def domain_box(net, domain):
    return box_propagate(net, domain.lows, domain.highs)


class TestWorkedMilp:
    def test_optimize_minimum(self, worked_milp):
        out = optimize(worked_milp, {1: 1.0}, "min")
        assert out.status == "optimal"
        assert out.value == pytest.approx(1.0, abs=1e-6)
        assert out.point[0] == pytest.approx(1.0, abs=1e-6)
        assert out.point[2] == pytest.approx(1.0, abs=1e-6)

    def test_oracle_agrees(self, worked_milp):
        truth = oracle_enumerate(worked_milp, {1: 1.0}, "min")
        assert truth.status == "optimal"
        assert truth.value == pytest.approx(1.0, abs=1e-6)
        assert truth.node_count == 2

    def test_feasibility_sat(self, worked_milp):
        out = solve_feasibility(worked_milp)
        assert out.status == "sat"
        assert abs(out.point[2] - round(out.point[2])) <= 1e-6

    def test_maximize(self, worked_milp):
        out = optimize(worked_milp, {1: 1.0}, "max")
        truth = oracle_enumerate(worked_milp, {1: 1.0}, "max")
        assert out.value == pytest.approx(truth.value, abs=1e-6)
        assert out.value == pytest.approx(7.0, abs=1e-6)  # y1 = 3*3 - 2


class TestTrivial:
    def test_root_infeasible(self):
        p = make_problem(make_lp([[1.0], [1.0]], (GE, LE), [2.0, 1.0],
                                 [-10.0], [10.0]), input_vids=(0,))
        out = solve_feasibility(p)
        assert out.status == "unsat"
        assert out.node_count == 1

    def test_no_binaries_single_lp(self):
        p = make_problem(make_lp([[1.0]], (GE,), [0.5], [0.0], [1.0]),
                         input_vids=(0,))
        out = solve_feasibility(p)
        assert out.status == "sat" and out.node_count == 1
        best = oracle_enumerate(p, {0: 1.0}, "min")
        assert best.value == pytest.approx(0.5, abs=1e-9)
        assert best.node_count == 1

    def test_oracle_binary_cap(self):
        n = ORACLE_BINARY_CAP + 1
        p = make_problem(make_lp(np.eye(1, n), (GE,), [0.0], np.zeros(n),
                                 np.ones(n), binaries=tuple(range(n))))
        with pytest.raises(ValueError, match="cap"):
            oracle_enumerate(p)

    def test_time_budget_unknown(self, worked_milp):
        out = solve_feasibility(worked_milp, time_budget_ms=0.0)
        assert out.status == "unknown"


class TestDemoQueries:
    def test_first_attribute_fixed_is_unsat(self, demo_net, demo_domain):
        problem = encode_network(demo_net, domain_box(demo_net, demo_domain))
        fixed = fix_attributes(problem, *pinned_box(demo_domain, {0: 0.7}))
        query = attach_rival_query(fixed, 0, 1)
        assert solve_feasibility(query).status == "unsat"
        assert oracle_enumerate(query).status == "unsat"

    def test_second_attribute_fixed_is_sat_with_valid_witness(self, demo_net,
                                                              demo_domain):
        problem = encode_network(demo_net, domain_box(demo_net, demo_domain))
        fixed = fix_attributes(problem, *pinned_box(demo_domain, {1: 0.2}))
        query = attach_rival_query(fixed, 0, 1)
        out = solve_feasibility(query)
        assert out.status == "sat"
        assert oracle_enumerate(query).status == "sat"
        outs = forward(demo_net, out.witness).outputs
        assert outs[1] >= outs[0] - 1e-6
        assert out.witness[1] == pytest.approx(0.2, abs=1e-9)


class TestRandomAgreement:
    def test_feasibility_and_optimize_match_oracle(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(25):
            net, domain = random_network(rng, max_hidden_total=8)
            problem = encode_network(net, domain_box(net, domain))
            instance = random_instance(rng, net, domain)
            target = predict(net, instance)
            fixed = rng.choice(net.input_dim,
                               size=rng.integers(0, net.input_dim), replace=False)
            base = fix_attributes(
                problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
            for rival in range(net.class_count):
                if rival == target:
                    continue
                query = attach_rival_query(base, target, rival)
                got = solve_feasibility(query)
                truth = oracle_enumerate(query)
                assert got.status == truth.status
                if got.status == "sat":
                    outs = forward(net, got.witness).outputs
                    rel = np.abs(outs).max() + 1.0
                    # witness outputs agree with the o variables of the point
                    for j, vid in enumerate(query.output_vids):
                        assert abs(outs[j] - got.point[vid]) <= 1e-6 * rel
                    assert outs[rival] >= outs[target] - 1e-6 * rel
                checked += 1
            obj = {problem.output_vids[0]: 1.0}
            for sense in ("min", "max"):
                got = optimize(base, obj, sense)
                truth = oracle_enumerate(base, obj, sense)
                assert got.status == truth.status == "optimal"
                assert got.value == pytest.approx(truth.value, rel=1e-6, abs=1e-6)
        assert checked >= 25


def test_lp_iterations_sum_over_nodes(monkeypatch):
    per_node = []
    solve_prepared = bnb.solve_prepared

    def counted(*args):
        outcome = solve_prepared(*args)
        per_node.append(outcome.iterations)
        return outcome

    monkeypatch.setattr(bnb, "solve_prepared", counted)
    rng = np.random.default_rng(61)
    branched = iterated = 0
    for _ in range(8):
        net, domain = random_network(rng, max_hidden_total=8)
        problem = encode_network(net, domain_box(net, domain))
        target = predict(net, random_instance(rng, net, domain))
        rival = (target + 1) % net.class_count
        calls = (lambda: solve_feasibility(attach_rival_query(problem, target, rival)),
                 lambda: optimize(problem, {problem.output_vids[0]: 1.0}, "max"))
        for call in calls:
            per_node.clear()
            out = call()
            assert out.node_count == len(per_node)
            assert out.lp_iterations == sum(per_node)
            if out.status == "sat" and out.lp_iterations == 0:
                # the root's forward-pass basis was already a witness
                assert out.node_count == 1
            branched += out.node_count > 1
            iterated += out.lp_iterations > 0
    assert branched >= 3
    assert iterated >= 12


def test_every_root_starts_from_the_forward_basis(monkeypatch):
    starts = []
    solve_prepared = bnb.solve_prepared

    def recorded(prep, lb, ub, warm=None):
        starts.append(warm)
        return solve_prepared(prep, lb, ub, warm)

    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    rng = np.random.default_rng(59)
    for _ in range(5):
        net, domain = random_network(rng, max_hidden_total=8)
        problem = encode_network(net, domain_box(net, domain))
        query = attach_rival_query(problem, 0, 1)
        for source, call in ((query, lambda: solve_feasibility(query)),
                             (problem, lambda: optimize(problem, {0: 1.0}, "min"))):
            starts.clear()
            call()
            expected = forward_basis(source)
            assert starts[0].inverse is None
            assert (starts[0].columns == expected.columns).all()
            assert (starts[0].status == expected.status).all()
            # children start from their parent's optimal basis
            assert all(start.inverse is not None for start in starts[1:])


def test_problems_without_blocks_match_oracle():
    # hand-built rows: the forward-pass basis is all slacks
    rng = np.random.default_rng(73)
    statuses = set()
    for _ in range(150):
        lp = random_bounded_lp(rng)
        n = lp.lb.size
        binaries = tuple(int(j) for j in np.nonzero(rng.uniform(size=n) < 0.5)[0])
        lb, ub = lp.lb.copy(), lp.ub.copy()
        lb[list(binaries)], ub[list(binaries)] = 0.0, 1.0
        problem = make_problem(replace(lp, lb=lb, ub=ub, binaries=binaries))
        assert (forward_basis(problem).columns >= n).all()
        got = solve_feasibility(problem)
        truth = oracle_enumerate(problem)
        assert got.status == truth.status
        statuses.add(got.status)
        if got.status == "sat":
            objective = {j: float(c) for j, c in enumerate(lp.c)}
            best = optimize(problem, objective, "min")
            value = oracle_enumerate(problem, objective, "min").value
            assert best.value == pytest.approx(value, rel=1e-6, abs=1e-6)
    assert statuses == {"sat", "unsat"}


def test_abandoned_forward_root_gives_the_cold_answer(monkeypatch):
    # cap the dual loop at one iteration, so roots that need more give up
    tried = []
    run_dual = _Simplex.run_dual

    def capped(core, cost):
        core.dual_max_iter = 1
        verdict = run_dual(core, cost)
        tried.append((verdict, core.iterations))
        return verdict

    monkeypatch.setattr(_Simplex, "run_dual", capped)
    rng = np.random.default_rng(79)
    abandoned = 0
    for _ in range(30):
        net, domain = random_network(rng)
        bounds = domain_box(net, domain)
        problem = encode_network(net, bounds)
        target = predict(net, random_instance(rng, net, domain))
        query = attach_rival_query(problem, target, (target + 1) % net.class_count)
        prefix = encode_prefix(net, bounds, 1)
        out = {query.output_vids[target]: 1.0}
        roots = ((query, milp_to_lp(query)),
                 (query, milp_to_lp(query, out)),
                 (problem, milp_to_lp(problem, out)),
                 (prefix, milp_to_lp(prefix, {prefix.input_vids[0]: 1.0})))
        for source, lp in roots:
            prep = prepare(lp)
            tried.clear()
            warm = solve_prepared(prep, lp.lb, lp.ub, forward_basis(source))
            cold = solve_prepared(prep, lp.lb, lp.ub)
            assert warm.status == cold.status
            if cold.status == OPTIMAL:
                assert warm.value == pytest.approx(cold.value, rel=1e-6, abs=1e-6)
            (verdict, spent), = tried
            if verdict is None:
                abandoned += 1
                assert warm.iterations == spent + cold.iterations
                if cold.status == OPTIMAL:
                    assert (warm.point == cold.point).all()
    assert abandoned >= 20


def _most_fractional_by_loop(point, binaries, tol):
    """Reference for ``_fractional_binaries``: the first strictly largest."""
    worst_vid, worst_frac = None, tol
    for vid in binaries:
        frac = abs(point[vid] - round(point[vid]))
        if frac > worst_frac:
            worst_vid, worst_frac = vid, frac
    return worst_vid


def test_most_fractional_binary_matches_the_loop():
    rng = np.random.default_rng(67)
    # ties, exact halves (round half to even) and near-integral values
    choices = np.array([0.0, 1.0, 0.5, 1.5, 0.25, 0.75, 1e-7, 1 - 1e-7, 0.3, 0.7])
    for _ in range(500):
        point = rng.choice(choices, size=6)
        binaries = tuple(int(v) for v in rng.permutation(6)[:int(rng.integers(0, 7))])
        assert bnb._fractional_binaries(point, binaries, bnb.INTEGRALITY_TOL) == \
            _most_fractional_by_loop(point, binaries, bnb.INTEGRALITY_TOL)


def _dual_weighted_by_loop(problem, prep, point, basis, tol):
    """Reference for ``_ReluGraph.branching``: the fractional binary of the
    split neuron whose upper-side rows' dual weight, times the widest gap
    its triangle relaxation leaves above the ReLU, scores highest (the
    first, lowest vid, on a tie); None when none scores above 0."""
    if prep.cost is None:
        return None
    duals = prep.cost[basis.columns] @ basis.inverse
    best_vid, best = None, 0.0
    for blk in problem.blocks:
        if blk.z_var is None:
            continue
        z = point[blk.z_var]
        if abs(z - round(z)) <= tol:
            continue
        r0, _, r2 = blk.constraint_ids  # post <= pre - l (1 - z), post <= u z
        lo, hi = blk.pre_lb, blk.pre_ub
        score = (abs(duals[r0]) + abs(duals[r2])) * (-lo * hi / (hi - lo))
        if score > best:
            best_vid, best = blk.z_var, score
    return best_vid


def test_optimize_branches_on_the_relu_the_duals_weigh_most(monkeypatch):
    picks = []
    branching = bnb._ReluGraph.branching

    def recorded(graph, point, basis):
        vid = branching(graph, point, basis)
        picks.append((graph.problem, graph.prep, point, basis, vid))
        return vid

    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded)
    rng = np.random.default_rng(109)
    for _ in range(10):
        net, domain = random_network(rng, max_hidden_total=10)
        bounds = domain_box(net, domain)
        problem = encode_network(net, bounds)
        target = predict(net, random_instance(rng, net, domain))
        before = len(picks)
        rival = (target + 1) % net.class_count
        solve_feasibility(attach_rival_query(problem, target, rival))
        assert len(picks) == before  # feasibility keeps the most fractional rule
        for l in range(1, len(net.hidden_layers)):
            prefix = encode_prefix(net, bounds, l)
            optimize(prefix, {prefix.blocks[-1].post_var: 1.0}, "max")
        optimize(problem, {problem.output_vids[0]: 1.0}, "min")
    branched = 0
    for problem, prep, point, basis, vid in picks:
        # the duals solve y B = c_B for the node's basis
        duals = prep.cost[basis.columns] @ basis.inverse
        assert np.allclose(duals @ prep.A[:, basis.columns], prep.cost[basis.columns])
        assert vid == _dual_weighted_by_loop(problem, prep, point, basis,
                                             bnb.INTEGRALITY_TOL)
        branched += vid is not None
    assert branched >= 10


def test_zero_objective_never_reads_duals(monkeypatch):
    # {vid: 0.0} makes an optimize call whose _Prepared.cost is None: no
    # duals, so every branching falls back to the most fractional binary,
    # and the answer is that of a feasibility search with value 0
    calls = []
    branching = bnb._ReluGraph.branching

    def recorded(graph, point, basis):
        vid = branching(graph, point, basis)
        calls.append((graph.prep.cost is None, vid))
        return vid

    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded)
    rng = np.random.default_rng(3)
    statuses = []
    for _ in range(30):
        net, domain = random_network(rng)
        problem = encode_network(net, domain_box(net, domain))
        query = attach_rival_query(problem, 0, 1)
        for sense in ("min", "max"):
            # the forward pass from the root's inputs is an incumbent whose
            # value matches the root's, so the search ends there
            got = optimize(problem, {problem.output_vids[0]: 0.0}, sense)
            assert (got.status, got.value, got.node_count) == (OPTIMAL, 0.0, 1)
            got = optimize(query, {query.output_vids[0]: 0.0}, sense)
            truth = oracle_enumerate(query, {query.output_vids[0]: 0.0}, sense)
            assert got.status == truth.status
            if got.status == OPTIMAL:
                assert got.value == 0.0
            statuses.append(got.status)
    assert calls and calls == [(True, None)] * len(calls)
    assert "infeasible" in statuses and OPTIMAL in statuses


def test_node_without_dual_weight_branches_most_fractional(monkeypatch):
    # a node whose fractional block binaries carry no dual weight on their
    # upper-side rows branches on _fractional_binaries' pick: depth first,
    # the next LP solved is its child with that binary pinned
    events = []
    branching = bnb._ReluGraph.branching
    solve_prepared = bnb.solve_prepared

    def recorded_branching(graph, point, basis):
        vid = branching(graph, point, basis)
        z = point[graph.z]
        if vid is None and (np.abs(z - np.round(z)) > bnb.INTEGRALITY_TOL).any():
            events.append(("fallback", point, graph.problem.lp.binaries))
        return vid

    def recorded_solve(prep, lb, ub, warm=None):
        events.append(("solve", lb.copy(), ub.copy()))
        return solve_prepared(prep, lb, ub, warm)

    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded_branching)
    monkeypatch.setattr(bnb, "solve_prepared", recorded_solve)
    rng = np.random.default_rng(4)
    for _ in range(10):
        net, domain = random_network(rng, max_hidden_total=16)
        compute_tight_bounds(net, domain)
    fallbacks = 0
    for k, event in enumerate(events):
        if event[0] != "fallback":
            continue
        fallbacks += 1
        _, point, binaries = event
        (_, lb, ub), (_, child_lb, child_ub) = events[k - 1], events[k + 1]
        vid = bnb._fractional_binaries(point, binaries, bnb.INTEGRALITY_TOL)
        assert vid is not None
        pinned = np.flatnonzero((child_lb != lb) | (child_ub != ub))
        assert pinned.tolist() == [vid]
        assert child_lb[vid] == child_ub[vid] == round(point[vid])
    assert fallbacks >= 10


def test_dual_weighted_branching_takes_fewer_nodes(monkeypatch):
    # the precompute of 20 random nets, against most fractional branching
    # everywhere; both are exact, so the bounds agree
    class Counting(BranchAndBoundBackend):
        def __init__(self):
            self.nodes = 0

        def optimize(self, problem, objective, sense):
            out = super().optimize(problem, objective, sense)
            self.nodes += out.node_count
            return out

    def precompute():
        rng = np.random.default_rng(5)
        backend = Counting()
        tights = [compute_tight_bounds(*random_network(rng, max_hidden_total=16),
                                       backend=backend) for _ in range(20)]
        return backend.nodes, tights

    nodes, tights = precompute()
    monkeypatch.setattr(bnb._ReluGraph, "branching", lambda graph, point, basis: None)
    fractional_nodes, fractional_tights = precompute()
    assert nodes < fractional_nodes
    for got, want in zip(tights, fractional_tights):
        for ends, want_ends in zip(got.layers, want.layers):
            for bound, want_bound in zip(ends, want_ends):
                assert np.all(np.abs(bound - want_bound)
                              <= 1e-9 * np.maximum(1.0, np.abs(want_bound)))


def test_optimize_over_rival_queries_matches_oracle(monkeypatch):
    # A rival query's row can cut off the forward pass from a node's inputs,
    # so some incumbents fail the certificate, and on nets where the rival
    # never reaches the target the search ends infeasible.
    rejected = []
    incumbent = bnb._ReluGraph.incumbent

    def recorded(graph, point):
        x = incumbent(graph, point)
        rejected.append(x is None)
        return x

    monkeypatch.setattr(bnb._ReluGraph, "incumbent", recorded)
    rng = np.random.default_rng(1)
    statuses = []
    for _ in range(30):
        net, domain = random_network(rng)
        query = attach_rival_query(encode_network(net, domain_box(net, domain)), 0, 1)
        margin = {query.output_vids[1]: 1.0, query.output_vids[0]: -1.0}
        for sense in ("min", "max"):
            got = optimize(query, margin, sense)
            truth = oracle_enumerate(query, margin, sense)
            assert got.status == truth.status
            if got.status == OPTIMAL:
                assert got.value == pytest.approx(truth.value, rel=1e-6, abs=1e-6)
            statuses.append(got.status)
    assert any(rejected)
    assert "infeasible" in statuses and OPTIMAL in statuses


def test_backend_contract():
    backend = BranchAndBoundBackend()
    p = make_problem(make_lp([[1.0, 1.0]], (GE,), [1.5], [0.0, 0.0], [1.0, 1.0],
                             binaries=(1,)), input_vids=(0,))
    out = backend.feasibility(p)
    assert out.status == "sat"
    assert out.witness.shape == (1,)
    best = backend.optimize(p, {0: 1.0}, "min")
    assert best.value == pytest.approx(0.5, abs=1e-6)


def _tree_nodes(monkeypatch):
    """(prep, lb, ub, warm basis) of every node of feasibility and optimize
    trees on eight random three-layer networks."""
    nodes = []
    solve_prepared = bnb.solve_prepared

    def recorded(prep, lb, ub, warm=None):
        nodes.append((prep, lb.copy(), ub.copy(), warm))
        return solve_prepared(prep, lb, ub, warm)

    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    rng = np.random.default_rng(131)
    for _ in range(8):
        net, domain = random_network(rng, depth=3, max_hidden_total=16)
        problem = encode_network(net, domain_box(net, domain))
        for target in range(net.class_count):
            for rival in range(net.class_count):
                if rival != target:
                    solve_feasibility(attach_rival_query(problem, target, rival))
        for vid in problem.output_vids:
            for sense in ("min", "max"):
                optimize(problem, {vid: 1.0}, sense)
    return nodes


def test_every_node_matches_the_reference_loops(monkeypatch):
    # every node of feasibility and optimize trees, from the start branch
    # and bound gave it, pivot by pivot against the reference loops
    nodes = _tree_nodes(monkeypatch)
    pivoted = {"feas": 0, "min": 0}
    for prep, lb, ub, warm in nodes:
        core, reference = loop_records(prep, lb, ub, warm, prep.cost)
        assert core == reference
        pivoted["feas" if prep.cost is None else "min"] += bool(core.pivots)
    assert len(nodes) >= 400
    assert pivoted["feas"] >= 60 and pivoted["min"] >= 300


def test_every_node_agrees_with_refactoring_always(monkeypatch):
    # _INVERSE_TOL below 0 fails every check: the policy of refactoring
    # before every decision that follows a pivot
    nodes = _tree_nodes(monkeypatch)
    for prep, lb, ub, warm in nodes:
        checked = solve_prepared(prep, lb, ub, warm)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_INVERSE_TOL", -1.0)
            refactored = solve_prepared(prep, lb, ub, warm)
        assert checked.status == refactored.status
        if checked.status == OPTIMAL:
            assert abs(checked.value - refactored.value) <= \
                1e-9 * max(1.0, abs(refactored.value))
    assert len(nodes) >= 400
