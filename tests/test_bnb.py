import itertools
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
                     oracle_enumerate, random_bounded_lp, rival_row)


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
        out = optimize(worked_milp, {1: 1.0})
        assert out.status == "optimal"
        assert out.value == pytest.approx(1.0, abs=1e-6)
        assert out.point[0] == pytest.approx(1.0, abs=1e-6)
        assert out.point[2] == pytest.approx(1.0, abs=1e-6)

    def test_oracle_agrees(self, worked_milp):
        truth = oracle_enumerate(worked_milp, {1: 1.0})
        assert truth.status == "optimal"
        assert truth.value == pytest.approx(1.0, abs=1e-6)
        assert truth.node_count == 2

    def test_feasibility_sat(self, worked_milp):
        out = solve_feasibility(worked_milp)
        assert out.status == "optimal"
        assert abs(out.point[2] - round(out.point[2])) <= 1e-6

    def test_maximize(self, worked_milp):
        out = optimize(worked_milp, {1: -1.0})
        truth = oracle_enumerate(worked_milp, {1: -1.0})
        assert out.value == pytest.approx(truth.value, abs=1e-6)
        assert -out.value == pytest.approx(7.0, abs=1e-6)  # y1 = 3*3 - 2


class TestTrivial:
    def test_root_infeasible(self):
        p = make_problem(make_lp([[1.0], [1.0]], (GE, LE), [2.0, 1.0],
                                 [-10.0], [10.0]), input_vids=(0,))
        out = solve_feasibility(p)
        assert out.status == "infeasible"
        assert out.node_count == 1

    def test_no_binaries_single_lp(self):
        p = make_problem(make_lp([[1.0]], (GE,), [0.5], [0.0], [1.0]),
                         input_vids=(0,))
        out = solve_feasibility(p)
        assert out.status == "optimal" and out.node_count == 1
        best = oracle_enumerate(p, {0: 1.0})
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
        assert solve_feasibility(query).status == "infeasible"
        assert oracle_enumerate(query).status == "infeasible"

    def test_second_attribute_fixed_is_sat_with_valid_witness(self, demo_net,
                                                              demo_domain):
        problem = encode_network(demo_net, domain_box(demo_net, demo_domain))
        fixed = fix_attributes(problem, *pinned_box(demo_domain, {1: 0.2}))
        query = attach_rival_query(fixed, 0, 1)
        out = solve_feasibility(query)
        assert out.status == "optimal"
        assert oracle_enumerate(query).status == "optimal"
        witness = out.point[list(query.input_vids)]
        outs = forward(demo_net, witness).outputs
        assert outs[1] >= outs[0] - 1e-6
        assert witness[1] == pytest.approx(0.2, abs=1e-9)


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
                if got.status == "optimal":
                    outs = forward(net, got.point[list(query.input_vids)]).outputs
                    rel = np.abs(outs).max() + 1.0
                    # witness outputs agree with the o variables of the point
                    for j, vid in enumerate(query.output_vids):
                        assert abs(outs[j] - got.point[vid]) <= 1e-6 * rel
                    assert outs[rival] >= outs[target] - 1e-6 * rel
                checked += 1
            obj = {problem.output_vids[0]: 1.0}
            for sign in (1.0, -1.0):
                objective = {v: sign * c for v, c in obj.items()}
                got = optimize(base, objective)
                truth = oracle_enumerate(base, objective)
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
    for _ in range(10):
        net, domain = random_network(rng, max_hidden_total=8)
        problem = encode_network(net, domain_box(net, domain))
        target = predict(net, random_instance(rng, net, domain))
        rival = (target + 1) % net.class_count
        calls = (lambda: solve_feasibility(attach_rival_query(problem, target, rival)),
                 lambda: optimize(problem, {problem.output_vids[0]: -1.0}))
        for call in calls:
            per_node.clear()
            out = call()
            assert out.node_count == len(per_node)
            assert out.lp_iterations == sum(per_node)
            if out.status == "optimal" and out.lp_iterations == 0:
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
                             (problem, lambda: optimize(problem, {0: 1.0}))):
            starts.clear()
            call()
            expected = forward_basis(source)
            assert starts[0].inverse is None
            assert (starts[0].columns == expected.columns).all()
            assert (starts[0].status == expected.status).all()
            # children start from their parent's optimal basis
            assert all(start.inverse is not None for start in starts[1:])


def _blockless_milps(rng, count):
    """``count`` hand-built MILPs without blocks, each with the objective of
    its random LP; each column is a binary over [0, 1] with probability 1/2."""
    for _ in range(count):
        lp = random_bounded_lp(rng)
        n = lp.lb.size
        binaries = tuple(int(j) for j in np.nonzero(rng.uniform(size=n) < 0.5)[0])
        lb, ub = lp.lb.copy(), lp.ub.copy()
        lb[list(binaries)], ub[list(binaries)] = 0.0, 1.0
        yield (make_problem(replace(lp, lb=lb, ub=ub, binaries=binaries)),
               {j: float(c) for j, c in enumerate(lp.c)})


def test_problems_without_blocks_match_oracle():
    # hand-built rows: the forward-pass basis is all slacks
    statuses = set()
    for problem, objective in _blockless_milps(np.random.default_rng(73), 150):
        assert (forward_basis(problem).columns >= problem.lp.lb.size).all()
        got = solve_feasibility(problem)
        truth = oracle_enumerate(problem)
        assert got.status == truth.status
        statuses.add(got.status)
        if got.status == "optimal":
            best = optimize(problem, objective)
            value = oracle_enumerate(problem, objective).value
            assert best.value == pytest.approx(value, rel=1e-6, abs=1e-6)
    assert statuses == {"optimal", "infeasible"}


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
        # the row form: the forward-pass basis misses the rival row
        query = rival_row(
            attach_rival_query(problem, target, (target + 1) % net.class_count))
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
    picks, outcomes = [], []
    solve, branching = bnb.solve_prepared, bnb._ReluGraph.branching

    def recorded_solve(prep, lb, ub, warm=None):
        outcomes.append(solve(prep, lb, ub, warm))
        return outcomes[-1]

    def recorded(graph, point, y):
        vid = branching(graph, point, y)
        outcome = outcomes[-1]
        # the node's own outcome: its point and its duals
        assert point is outcome.point and y is outcome.duals
        picks.append((graph.problem, graph.prep, point, outcome.basis, y, vid))
        return vid

    monkeypatch.setattr(bnb, "solve_prepared", recorded_solve)
    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded)
    rng = np.random.default_rng(109)
    for _ in range(10):
        net, domain = random_network(rng, max_hidden_total=10)
        bounds = domain_box(net, domain)
        problem = encode_network(net, bounds)
        target = predict(net, random_instance(rng, net, domain))
        rival = (target + 1) % net.class_count
        solve_feasibility(attach_rival_query(problem, target, rival))
        for l in range(1, len(net.hidden_layers)):
            prefix = encode_prefix(net, bounds, l)
            optimize(prefix, {prefix.blocks[-1].post_var: -1.0})
        optimize(problem, {problem.output_vids[0]: 1.0})
    branched = 0
    for problem, prep, point, basis, y, vid in picks:
        # the duals solve y B = c_B for the node's basis
        assert np.allclose(y @ prep.rows.A[:, basis.columns], prep.cost[basis.columns])
        assert vid == _dual_weighted_by_loop(problem, prep, point, basis,
                                             bnb.INTEGRALITY_TOL)
        branched += vid is not None
    assert branched >= 10


def test_zero_objective_has_zero_duals(monkeypatch):
    # {vid: 0.0} or {vid: -0.0} makes an optimize call with a zero cost: its
    # optimal LPs carry zero duals, so branching scores no binary and falls
    # back to the most fractional one, both children's floors are the
    # parent's value, and the answer has value 0, as the oracle's does
    duals, fallbacks, floored = [], [], []
    solve, branching = bnb.solve_prepared, bnb._ReluGraph.branching
    floors = bnb.branch_floors

    def recorded(prep, lb, ub, warm=None):
        outcome = solve(prep, lb, ub, warm)
        if outcome.status == OPTIMAL:
            zero = not np.count_nonzero(prep.c)
            duals.append((zero, not np.count_nonzero(outcome.duals)))
        return outcome

    def recorded_branching(graph, point, y):
        vid = branching(graph, point, y)
        if not np.count_nonzero(graph.prep.c):
            assert vid is None
            fallbacks.append((point, graph.problem.lp.binaries))
        return vid

    def recorded_floors(prep, outcome, lb, ub, col):
        got = floors(prep, outcome, lb, ub, col)
        if not np.count_nonzero(prep.c):
            point, binaries = fallbacks[-1]
            assert outcome.point is point
            assert col == bnb._fractional_binaries(point, binaries,
                                                   bnb.INTEGRALITY_TOL)
            assert got == (outcome.value, outcome.value) == (0.0, 0.0)
            floored.append(col)
        return got

    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded_branching)
    monkeypatch.setattr(bnb, "branch_floors", recorded_floors)
    rng = np.random.default_rng(3)
    statuses = []
    for _ in range(30):
        net, domain = random_network(rng)
        problem = encode_network(net, domain_box(net, domain))
        query = rival_row(attach_rival_query(problem, 0, 1))
        for zero in (0.0, -0.0):
            # the root starts from the forward pass of its encoding, whose
            # binaries are integral, so the search ends there
            got = optimize(problem, {problem.output_vids[0]: zero})
            assert (got.status, got.value, got.node_count) == (OPTIMAL, 0.0, 1)
            got = optimize(query, {query.output_vids[0]: zero})
            truth = oracle_enumerate(query, {query.output_vids[0]: zero})
            assert got.status == truth.status
            if got.status == OPTIMAL:
                assert got.value == 0.0
            statuses.append(got.status)
        # the row forms' own searches: a zero cost under a cutoff
        for rival in range(1, net.class_count):
            query = rival_row(attach_rival_query(problem, 0, rival))
            assert solve_feasibility(query).status == \
                oracle_enumerate(query).status
        # a nonzero cost on the same encoding prices nonzero duals
        optimize(problem, {problem.output_vids[0]: 1.0})
    assert len(fallbacks) >= 10 and len(floored) >= 10
    assert "infeasible" in statuses and OPTIMAL in statuses
    # a zero cost's optimal LPs carry zero duals, and on these encodings
    # every nonzero cost's carry a nonzero one
    assert set(duals) == {(True, True), (False, False)}


def test_node_without_dual_weight_branches_most_fractional(monkeypatch):
    # a node whose fractional block binaries carry no dual weight on their
    # upper-side rows branches on _fractional_binaries' pick: the next
    # children it pushes, floored by ``branch_floors``, pin that binary
    events = []
    branching, floors = bnb._ReluGraph.branching, bnb.branch_floors

    def recorded_branching(graph, point, duals):
        vid = branching(graph, point, duals)
        z = point[graph.z]
        if vid is None and (np.abs(z - np.round(z)) > bnb.INTEGRALITY_TOL).any():
            events.append(("fallback", point, graph.problem.lp.binaries))
        return vid

    def recorded_floors(prep, outcome, lb, ub, col):
        events.append(("children", outcome.point, col))
        return floors(prep, outcome, lb, ub, col)

    monkeypatch.setattr(bnb._ReluGraph, "branching", recorded_branching)
    monkeypatch.setattr(bnb, "branch_floors", recorded_floors)
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
        kind, children_of, pinned = events[k + 1]
        vid = bnb._fractional_binaries(point, binaries, bnb.INTEGRALITY_TOL)
        assert vid is not None
        assert kind == "children" and children_of is point and pinned == vid
    assert fallbacks >= 10


def test_dual_weighted_branching_takes_fewer_nodes(monkeypatch):
    # the precompute of 20 random nets, against most fractional branching
    # everywhere; both are exact, so the bounds agree
    class Counting(BranchAndBoundBackend):
        def __init__(self):
            self.nodes = 0

        def optimize(self, problem, objective):
            out = super().optimize(problem, objective)
            self.nodes += out.node_count
            return out

    def precompute():
        rng = np.random.default_rng(5)
        backend = Counting()
        tights = [compute_tight_bounds(*random_network(rng, max_hidden_total=16),
                                       backend=backend) for _ in range(20)]
        return backend.nodes, tights

    nodes, tights = precompute()
    monkeypatch.setattr(bnb._ReluGraph, "branching", lambda graph, point, duals: None)
    fractional_nodes, fractional_tights = precompute()
    assert nodes < fractional_nodes
    for got, want in zip(tights, fractional_tights):
        for ends, want_ends in zip(got.layers, want.layers):
            for bound, want_bound in zip(ends, want_ends):
                assert np.all(np.abs(bound - want_bound)
                              <= 1e-9 * np.maximum(1.0, np.abs(want_bound)))


def test_optimize_over_rival_queries_matches_oracle(monkeypatch):
    # A rival query's row (its row form) can cut off the forward pass from a
    # node's inputs, so some incumbents the search would take fail the
    # certificate, and on nets where the rival never reaches the target the
    # search ends infeasible.
    rejected = []
    certified = bnb._ReluGraph.certified

    def recorded(graph, x):
        ok = certified(graph, x)
        rejected.append(not ok)
        return ok

    monkeypatch.setattr(bnb._ReluGraph, "certified", recorded)
    rng = np.random.default_rng(1)
    statuses = []
    for _ in range(30):
        net, domain = random_network(rng)
        query = rival_row(
            attach_rival_query(encode_network(net, domain_box(net, domain)), 0, 1))
        margin = {query.output_vids[1]: 1.0, query.output_vids[0]: -1.0}
        for sign in (1.0, -1.0):
            objective = {v: sign * c for v, c in margin.items()}
            got = optimize(query, objective)
            truth = oracle_enumerate(query, objective)
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
    assert out.status == "optimal"
    assert out.point.shape == (2,)
    best = backend.optimize(p, {0: 1.0})
    assert best.value == pytest.approx(0.5, abs=1e-6)


def _tree_nodes(monkeypatch):
    """(prep, lb, ub, warm basis) of every node of rival queries, of their
    row forms (a zero cost) and of optimize trees on fourteen random
    three-layer networks."""
    nodes = []
    solve_prepared = bnb.solve_prepared

    def recorded(prep, lb, ub, warm=None):
        nodes.append((prep, lb.copy(), ub.copy(), warm))
        return solve_prepared(prep, lb, ub, warm)

    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    rng = np.random.default_rng(131)
    for _ in range(14):
        net, domain = random_network(rng, depth=3, max_hidden_total=16)
        problem = encode_network(net, domain_box(net, domain))
        for target in range(net.class_count):
            for rival in range(net.class_count):
                if rival != target:
                    query = attach_rival_query(problem, target, rival)
                    solve_feasibility(query)
                    solve_feasibility(rival_row(query))
        for vid in problem.output_vids:
            for sign in (1.0, -1.0):
                optimize(problem, {vid: sign})
    return nodes


def test_every_node_matches_the_reference_loops(monkeypatch):
    # every node of feasibility and optimize trees, from the start branch
    # and bound gave it, pivot by pivot against the reference loops
    nodes = _tree_nodes(monkeypatch)
    pivoted = {"feas": 0, "min": 0}
    for prep, lb, ub, warm in nodes:
        core, reference = loop_records(prep, lb, ub, warm, prep.cost)
        assert core == reference
        pivoted["min" if np.count_nonzero(prep.c) else "feas"] += bool(core.pivots)
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


def test_phase_two_skips_only_a_recompute_that_changes_nothing(monkeypatch):
    # _finish computes the basic values again after phase 2 only when a
    # pivot or a bound flip moved them since they last were; at every node
    # where none did, the recompute it skips changes no bit, whether phase 2
    # did nothing or ended on the check that follows its last pivot
    nodes = _tree_nodes(monkeypatch)
    run = _Simplex.run
    skipped = []

    def checked(core, cost, artificials=False):
        before = core.iterations
        run(core, cost, artificials)
        if not artificials and not core.moved:
            x, xb = core.x.tobytes(), core.xb.tobytes()
            core._solve_basics()
            assert (core.x.tobytes(), core.xb.tobytes()) == (x, xb)
            skipped.append(core.iterations - before > 1)

    monkeypatch.setattr(_Simplex, "run", checked)
    for prep, lb, ub, warm in nodes:
        solve_prepared(prep, lb, ub, warm)
    assert skipped.count(False) >= 100 and skipped.count(True) >= 100


def test_search_prepares_rows_afresh_for_other_row_arrays(monkeypatch):
    # an edit that replaces the row arrays keeps the encoding's holder
    # (``MilpProblem.searched``) but not its rows: every search solves on
    # rows prepared from its own arrays, as a search with a holder of its
    # own does
    prepared = []
    prepare_ = bnb.prepare

    def recorded(lp, rows=None):
        prep = prepare_(lp, rows)
        prepared.append((lp, prep.rows))
        return prep

    monkeypatch.setattr(bnb, "prepare", recorded)
    rng = np.random.default_rng(211)
    for _ in range(12):
        net, domain = random_network(rng, max_hidden_total=10)
        query = attach_rival_query(encode_network(net, domain_box(net, domain)), 0, 1)
        lp = query.lp
        solve_feasibility(query)
        # a row appended (new a, rel and rhs), and a new a alone
        for edit in (rival_row(query),
                     replace(query, lp=replace(lp, a=2.0 * lp.a))):
            assert edit.searched is query.searched
            got = solve_feasibility(edit)
            alone = solve_feasibility(replace(edit, searched={}))
            assert (got.status, got.value, got.node_count, got.lp_iterations) == \
                (alone.status, alone.value, alone.node_count, alone.lp_iterations)
    assert len(prepared) == 12 * 5
    for lp, rows in prepared:
        assert rows.A[:, :lp.a.shape[1]].tobytes() == lp.a.tobytes()
        assert rows.rhs.tobytes() == lp.rhs.tobytes() and rows.rel == lp.rel


def _precompute_corpus():
    rng = np.random.default_rng(23)
    return [random_network(rng, max_hidden_total=16) for _ in range(20)]


def test_child_floors_never_exceed_the_child_lp(monkeypatch):
    # every child of every node that branches in 600 hand-built MILPs
    # without blocks and in 20 precomputes, solved anyway from its parent's
    # basis: its floor lies between the parent's value and its own LP value
    seen = {"optimal": 0, "infeasible": 0, "raised": 0}
    floors = bnb.branch_floors

    def checked(prep, outcome, lb, ub, col):
        got = floors(prep, outcome, lb, ub, col)
        for value in (0, 1):
            child_lb, child_ub = lb.copy(), ub.copy()
            child_lb[col] = child_ub[col] = value
            lp = solve_prepared(prep, child_lb, child_ub, outcome.basis)
            assert got[value] >= outcome.value
            seen[lp.status] += 1
            if lp.status == OPTIMAL:
                assert got[value] <= lp.value + 1e-9 * max(1.0, abs(lp.value))
            seen["raised"] += got[value] > outcome.value
        return got

    monkeypatch.setattr(bnb, "branch_floors", checked)
    for problem, objective in _blockless_milps(np.random.default_rng(73), 600):
        optimize(problem, objective)
    blockless = dict(seen)
    assert blockless["optimal"] >= 80 and blockless["infeasible"] >= 40
    assert blockless["raised"] >= 80
    for net, domain in _precompute_corpus():
        compute_tight_bounds(net, domain)
    assert seen["infeasible"] >= 5 and seen["optimal"] >= 500 + blockless["optimal"]
    assert seen["raised"] >= 0.5 * (seen["optimal"] + seen["infeasible"])


def _precompute_nodes(monkeypatch, floored: bool):
    """The corpus' tight bounds, and each node LP of their searches in
    order: (call, lb and ub bytes, whether the node went on to offer an
    incumbent, which every node with a cost that is neither infeasible nor
    dropped does)."""
    nodes, calls = [], [0]
    solve, incumbent, optimize_ = bnb.solve_prepared, bnb._ReluGraph.incumbent, bnb.optimize

    def counted(problem, objective):
        calls[0] += 1
        return optimize_(problem, objective)

    def recorded(prep, lb, ub, warm=None):
        nodes.append([calls[0], lb.tobytes() + ub.tobytes(), False])
        return solve(prep, lb, ub, warm)

    def offered(graph, point):
        nodes[-1][2] = True
        return incumbent(graph, point)

    with monkeypatch.context() as m:
        m.setattr(bnb, "solve_prepared", recorded)
        m.setattr(bnb._ReluGraph, "incumbent", offered)
        m.setattr(bnb, "optimize", counted)
        if not floored:
            m.setattr(bnb, "branch_floors",
                      lambda prep, outcome, lb, ub, col: (-np.inf, -np.inf))
        tights = [compute_tight_bounds(net, domain) for net, domain in _precompute_corpus()]
    return tights, [tuple(node) for node in nodes]


def test_floors_keep_the_search(monkeypatch):
    # without floors the same searches solve every child: bounds agree bit
    # for bit, and the nodes solved with floors are a subsequence of theirs
    tights, nodes = _precompute_nodes(monkeypatch, True)
    plain_tights, plain_nodes = _precompute_nodes(monkeypatch, False)
    for got, want in zip(tights, plain_tights):
        for ends, want_ends in zip(got.layers, want.layers):
            for bound, want_bound in zip(ends, want_ends):
                assert bound.tobytes() == want_bound.tobytes()
    rest = iter(plain_nodes)
    assert all(node in rest for node in nodes)


def test_floors_skip_only_children_the_search_drops(monkeypatch):
    # the LPs the floors save are nodes that, solved, turn out infeasible
    # or no better than the incumbent, and they are many
    _, nodes = _precompute_nodes(monkeypatch, True)
    _, plain_nodes = _precompute_nodes(monkeypatch, False)
    kept = set(node[:2] for node in nodes)
    skipped = [node for node in plain_nodes if node[:2] not in kept]
    assert not any(offered for _, _, offered in skipped)
    assert len(nodes) + len(skipped) == len(plain_nodes)
    assert len(nodes) <= 0.8 * len(plain_nodes)


def test_margin_search_matches_the_row_query():
    # every rival query of a seeded corpus, with some attributes pinned: the
    # search that minimizes the margin under the cutoff FEAS_TOL and the
    # zero-cost search over the row o_rival - o_target >= 0 agree, and so
    # does the enumeration oracle where it can run
    rng = np.random.default_rng(139)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(40):
        net, domain = random_network(rng, max_hidden_total=10)
        problem = encode_network(net, domain_box(net, domain))
        instance = random_instance(rng, net, domain)
        target = int(rng.integers(net.class_count))
        fixed = rng.choice(net.input_dim, size=rng.integers(0, net.input_dim),
                           replace=False)
        base = fix_attributes(problem,
                              *pinned_box(domain, {j: instance[j] for j in fixed}))
        for rival in range(net.class_count):
            if rival == target:
                continue
            query = attach_rival_query(base, target, rival)
            got = solve_feasibility(query)
            row = solve_feasibility(rival_row(query))
            assert got.status == row.status
            if len(query.binary_vids) <= ORACLE_BINARY_CAP:
                assert got.status == oracle_enumerate(query).status
            seen[got.status] += 1
            if got.status == OPTIMAL:
                # a counterexample: within the cutoff, integral, and the
                # rival within tolerance of the target at its inputs
                assert got.value <= simplex.FEAS_TOL
                z = got.point[list(query.binary_vids)]
                assert (np.abs(z - np.round(z)) <= bnb.INTEGRALITY_TOL).all()
                outs = forward(net, got.point[list(query.input_vids)]).outputs
                assert outs[rival] >= outs[target] - 1e-6 * (np.abs(outs).max() + 1.0)
    assert seen["optimal"] >= 30 and seen["infeasible"] >= 15


def test_cutoff_drops_nodes_and_children_above_it(monkeypatch):
    # only nodes whose LP value is within the cutoff branch, and a child
    # whose floor is above it is never solved
    values, above, solved = [], set(), set()
    branch_floors, solve = bnb.branch_floors, bnb.solve_prepared

    def recorded_floors(prep, outcome, lb, ub, col):
        values.append(outcome.value)
        got = branch_floors(prep, outcome, lb, ub, col)
        for value, floor in enumerate(got):
            if floor > simplex.FEAS_TOL:
                child = np.array((lb, ub))
                child[:, col] = value
                above.add(child.tobytes())
        return got

    def recorded(prep, lb, ub, warm=None):
        solved.add(np.array((lb, ub)).tobytes())
        return solve(prep, lb, ub, warm)

    monkeypatch.setattr(bnb, "branch_floors", recorded_floors)
    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    rng = np.random.default_rng(149)
    dropped = 0
    for _ in range(60):
        net, domain = random_network(rng, max_hidden_total=16)
        problem = encode_network(net, domain_box(net, domain))
        for target, rival in itertools.permutations(range(net.class_count), 2):
            above.clear()
            solved.clear()
            solve_feasibility(attach_rival_query(problem, target, rival))
            assert not above & solved
            dropped += len(above)
    assert values and max(values) <= simplex.FEAS_TOL
    assert dropped >= 10


def test_given_start_seeds_the_root(monkeypatch):
    # a search handed the root basis of an earlier search over the same rows
    # starts there; its children still start from their parent's basis
    starts = []
    solve = bnb.solve_prepared

    def recorded(prep, lb, ub, warm=None):
        starts.append(warm)
        return solve(prep, lb, ub, warm)

    monkeypatch.setattr(bnb, "solve_prepared", recorded)
    rng = np.random.default_rng(151)
    seeded = 0
    for _ in range(20):
        net, domain = random_network(rng, n_classes=3)
        problem = encode_network(net, domain_box(net, domain))
        first = solve_feasibility(attach_rival_query(problem, 0, 1))
        if first.basis is None:
            continue
        query = attach_rival_query(problem, 0, 2)
        assert query.lp.a is problem.lp.a
        starts.clear()
        warm = solve_feasibility(query, start=first.basis)
        assert starts[0] is first.basis
        assert warm.status == solve_feasibility(query).status
        seeded += 1
    assert seeded >= 15
