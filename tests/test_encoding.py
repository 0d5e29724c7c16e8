import numpy as np
import pytest

from boxplain.box import BoundsMap, box_propagate
from boxplain.bnb import milp_to_lp, solve_feasibility
from boxplain.encoding import (MODE_ACTIVE, MODE_INACTIVE, MODE_SPLIT,
                               attach_rival_query, encode_network,
                               encode_prefix, fix_attributes, forward_basis,
                               forward_point, merge_bounds, tighten_and_simplify)
from boxplain.simplex import EQ, GE, LE, _Simplex, prepare
from boxplain.engine import compute_tight_bounds
from boxplain.model import IDENTITY, RELU, InputDomain, Layer, Network, forward
from conftest import block, pinned_box
from netgen import random_instance, random_network


@pytest.fixture(scope="module")
def demo_tight(demo_net, demo_domain):
    return compute_tight_bounds(demo_net, demo_domain, "milp")


@pytest.fixture()
def demo_problem(demo_net, demo_tight):
    return encode_network(demo_net, demo_tight)


def domain_box(net, domain):
    return box_propagate(net, domain.lows, domain.highs)


def row_terms(problem, i):
    """Row ``i`` as ({vid: coefficient} over its nonzeros, relation, rhs)."""
    lp = problem.lp
    cols = np.nonzero(lp.a[i])[0]
    return {int(c): lp.a[i, c] for c in cols}, lp.rel[i], lp.rhs[i]


def structural_rows(problem):
    return sum(len(b.constraint_ids) for b in problem.blocks) + \
        len(problem.output_vids)


class TestEncode:
    def test_stable_active_neuron_collapses(self, demo_problem):
        # first hidden neuron has tight pre-bounds [0.2, 1.2]: always active
        blk = block(demo_problem, 0, 0)
        assert blk.mode == MODE_ACTIVE
        assert blk.z_var is None
        # the affine equality post - x0 - x1 == 0
        rows = [row_terms(demo_problem, i) for i in blk.constraint_ids]
        assert rows == [({0: -1.0, 1: -1.0, blk.post_var: 1.0}, EQ, 0.0)]

    def test_unstable_neuron_carries_indicator(self, demo_problem):
        blk = block(demo_problem, 0, 1)
        assert blk.mode == MODE_SPLIT
        assert blk.z_var is not None
        rows = [row_terms(demo_problem, i) for i in blk.constraint_ids]
        weights = {0: -1.0, 1: 1.0, blk.post_var: 1.0}  # post - (x0 - x1)
        # upper side, active branch: post - w.x - lb*z <= b - lb
        active, rel, rhs = rows[0]
        assert rel == LE
        assert active[blk.z_var] == pytest.approx(0.5, abs=1e-12)
        assert {v: c for v, c in active.items() if v != blk.z_var} == weights
        assert rhs == pytest.approx(0.5, abs=1e-12)
        # lower side: post - w.x >= b
        assert rows[1] == (weights, GE, 0.0)
        # upper side, indicator: post - ub*z <= 0
        indicator, rel, rhs = rows[2]
        assert (rel, rhs) == (LE, 0.0)
        assert set(indicator) == {blk.post_var, blk.z_var}
        assert indicator[blk.post_var] == 1.0
        assert indicator[blk.z_var] == pytest.approx(-0.5, abs=1e-12)
        # relu lower bound rides on the variable, not a row
        assert demo_problem.lp.lb[blk.post_var] == 0.0

    def test_always_inactive_neuron_pins_post_to_zero(self):
        net = Network((
            Layer(np.array([[1.0]]), np.array([-3.0]), RELU),
            Layer(np.array([[1.0], [-1.0]]), np.zeros(2), IDENTITY),
        ), 1)
        domain = InputDomain(np.zeros(1), np.ones(1))
        problem = encode_network(net, domain_box(net, domain))
        blk = block(problem, 0, 0)
        assert blk.mode == MODE_INACTIVE
        assert blk.z_var is None
        assert blk.constraint_ids == ()
        assert (problem.lp.lb[blk.post_var], problem.lp.ub[blk.post_var]) == \
            (0.0, 0.0)
        assert net.num_hidden_neurons - len(problem.binary_vids) == 1

    def test_output_rows(self, demo_problem, demo_net):
        lp = demo_problem.lp
        rows = [i for i in range(lp.a.shape[0])
                if lp.a[i, list(demo_problem.output_vids)].any()]
        assert len(rows) == demo_net.class_count
        assert all(lp.rel[i] == EQ for i in rows)

    def test_encode_time_stats(self, demo_net, demo_problem):
        # two hidden neurons, one of them stable under the tight bounds
        assert demo_net.num_hidden_neurons == len(demo_problem.blocks) == 2
        assert demo_net.num_hidden_neurons - len(demo_problem.binary_vids) == 1
        assert demo_net.num_hidden_neurons + demo_net.class_count == 4

    def test_completeness_one_binary_or_none(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net, domain = random_network(rng)
            problem = encode_network(net, domain_box(net, domain))
            z_count = 0
            for blk in problem.blocks:
                rows = blk.constraint_ids
                if blk.mode == MODE_SPLIT:
                    z_count += 1
                    assert blk.z_var in problem.binary_vids
                    assert len(rows) == 3
                else:
                    assert blk.z_var is None
                    assert len(rows) <= 1
            assert z_count == len(problem.binary_vids)

    def test_every_column_has_a_finite_bound(self):
        # the LP core takes no free column; a prefix's outputs, layer l's
        # pre-activations, carry layer l's bounds, and no later layer has a
        # column
        rng = np.random.default_rng(37)
        for _ in range(5):
            net, domain = random_network(rng, depth=3)
            bounds = domain_box(net, domain)
            full = encode_network(net, bounds).lp
            assert (np.isfinite(full.lb) | np.isfinite(full.ub)).all()
            lo, hi = zip(*bounds.layers)
            for l in range(len(net.layers)):
                prefix = encode_prefix(net, bounds, l)
                lp = prefix.lp
                assert (np.isfinite(lp.lb) | np.isfinite(lp.ub)).all()
                scope = net.input_dim + sum(net.hidden_widths[:l])
                out = list(prefix.output_vids)
                assert out == list(range(scope, scope + net.layers[l].width))
                assert (lp.lb[out] == lo[l]).all() and (lp.ub[out] == hi[l]).all()
                assert lp.a.shape[1] == out[-1] + 1 + len(prefix.binary_vids)

    def test_prefix_is_the_encoding_of_the_first_layers(self):
        # net.layers[:l + 1] as a network of its own, with layer l's
        # entries as its output bounds, encodes bit for bit as the prefix
        rng = np.random.default_rng(47)
        compared = 0
        for _ in range(8):
            net, domain = random_network(rng, depth=3)
            bounds = domain_box(net, domain)
            for l in range(len(net.layers)):
                *hidden, last = net.layers[:l + 1]
                head = Network((*hidden, Layer(last.weights, last.biases, IDENTITY)),
                               net.input_dim)
                head_bounds = BoundsMap.of_layers(bounds.input_lo, bounds.input_hi,
                                                  bounds.layers[:l + 1])
                got = encode_prefix(net, bounds, l)
                want = encode_network(head, head_bounds)
                for name in ("a", "rhs", "lb", "ub"):
                    g, w = getattr(got.lp, name), getattr(want.lp, name)
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()
                assert got.lp.rel == want.lp.rel
                assert got.binary_vids == want.binary_vids
                assert (got.blocks, got.input_vids, got.output_vids, got.output_row) \
                    == (want.blocks, want.input_vids, want.output_vids, want.output_row)
                compared += len(hidden) > 0
        assert compared >= 8

    def test_bounds_shape_mismatch(self, demo_net):
        other_net, other_domain = random_network(np.random.default_rng(1))
        bad = domain_box(other_net, other_domain)
        with pytest.raises(ValueError):
            encode_network(demo_net, bad)

    def test_stability_threshold_exactly_zero(self):
        # pre-activation ub == 0 is inactive; pre-activation lb == 0 still
        # needs the binary (only lb > 0 collapses to the equality)
        net = Network((
            Layer(np.array([[1.0], [1.0]]), np.array([-1.0, 0.0]), RELU),
            Layer(np.array([[1.0, 1.0], [-1.0, 1.0]]), np.zeros(2), IDENTITY),
        ), 1)
        domain = InputDomain(np.zeros(1), np.ones(1))
        problem = encode_network(net, domain_box(net, domain))
        assert block(problem, 0, 0).mode == MODE_INACTIVE  # pre in [-1, 0]
        assert block(problem, 0, 1).mode == MODE_SPLIT     # pre in [0, 1]


class TestQueryAndFix:
    def test_rival_query_row(self, demo_problem):
        q = attach_rival_query(demo_problem, 0, 1)
        assert q.lp.a.shape[0] == structural_rows(q) + 1
        coeffs, rel, rhs = row_terms(q, -1)
        assert rel == GE and rhs == 0.0
        assert coeffs == {q.output_vids[1]: 1.0, q.output_vids[0]: -1.0}

    def test_query_index_validation(self, demo_problem):
        with pytest.raises(ValueError):
            attach_rival_query(demo_problem, 1, 1)
        with pytest.raises(ValueError):
            attach_rival_query(demo_problem, 0, 5)

    def test_fix_pins_bounds(self, demo_problem, demo_domain):
        fixed = fix_attributes(demo_problem, *pinned_box(demo_domain, {0: 0.7}))
        pinned, free = fixed.input_vids
        assert (fixed.lp.lb[pinned], fixed.lp.ub[pinned]) == (0.7, 0.7)
        assert (fixed.lp.lb[free], fixed.lp.ub[free]) == (0.2, 0.5)

    def test_all_free_is_identity(self, demo_problem, demo_domain):
        same = fix_attributes(demo_problem, demo_domain.lows, demo_domain.highs)
        assert (same.lp.lb == demo_problem.lp.lb).all()
        assert (same.lp.ub == demo_problem.lp.ub).all()
        assert same.lp.a is demo_problem.lp.a

    def test_fix_outside_domain(self, demo_problem, demo_domain):
        with pytest.raises(ValueError, match="attribute 1"):
            fix_attributes(demo_problem, *pinned_box(demo_domain, {1: 0.9}))

    def test_fix_rejects_bad_boxes(self, demo_problem):
        with pytest.raises(ValueError, match="for 2 inputs"):
            fix_attributes(demo_problem, np.zeros(3), np.ones(3))
        # within the input bounds, but inverted
        with pytest.raises(ValueError, match=r"attribute 0: box \[0.5, 0.4\]"):
            fix_attributes(demo_problem, np.array([0.5, 0.2]),
                           np.array([0.4, 0.5]))
        with pytest.raises(ValueError, match="attribute 1: box"):
            fix_attributes(demo_problem, np.array([0.5, np.nan]),
                           np.array([0.5, 0.3]))


class TestSharedArrays:
    def test_edits_leave_base_arrays_bit_identical(self, demo_problem,
                                                   demo_tight, demo_net,
                                                   demo_domain):
        lp = demo_problem.lp
        arrays = (lp.a, lp.rhs, lp.lb, lp.ub, lp.c)
        before = [arr.copy() for arr in arrays]
        rel_before = lp.rel
        box = pinned_box(demo_domain, {1: 0.2})
        boxed = box_propagate(demo_net, *box)
        fix_attributes(demo_problem, *box)
        attach_rival_query(demo_problem, 0, 1)
        tighten_and_simplify(demo_net, demo_tight, merge_bounds(demo_tight, boxed))
        milp_to_lp(demo_problem, {demo_problem.output_vids[0]: 1.0})
        assert demo_problem.lp is lp and lp.rel == rel_before
        for arr, old in zip(arrays, before):
            assert arr.tobytes() == old.tobytes()

    def test_arrays_are_read_only(self, demo_problem, demo_domain):
        fixed = fix_attributes(demo_problem, *pinned_box(demo_domain, {0: 0.7}))
        query = attach_rival_query(fixed, 0, 1)
        for problem in (demo_problem, fixed, query):
            lp = problem.lp
            for arr in (lp.a, lp.rhs, lp.lb, lp.ub, lp.c):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0


class TestMergeAndSimplify:
    def test_merge_keeps_max_lower_min_upper(self):
        net = Network((Layer(np.eye(2), np.zeros(2), IDENTITY),), 2)
        tight = BoundsMap(np.zeros(2), np.ones(2), (), (),
                          np.array([0.2, 0.2]), np.array([1.4, 1.0]))
        boxed = BoundsMap(np.zeros(2), np.ones(2), (), (),
                          np.array([0.2, -0.3]), np.array([1.0, 0.5]))
        merged = merge_bounds(tight, boxed)
        assert merged.out_lo == pytest.approx([0.2, 0.2], abs=0)
        assert merged.out_hi == pytest.approx([1.0, 0.5], abs=0)
        _, stats = tighten_and_simplify(net, tight, merged)
        assert stats.bounds_tightened_count == 2

    def test_disjoint_merge_reverts_to_tight(self):
        tight = BoundsMap(np.zeros(1), np.ones(1), (), (),
                          np.array([0.0]), np.array([1.0]))
        boxed = BoundsMap(np.zeros(1), np.ones(1), (), (),
                          np.array([2.0]), np.array([3.0]))
        merged = merge_bounds(tight, boxed)
        assert merged.out_lo[0] == 0.0 and merged.out_hi[0] == 1.0
        # every bound is the tight one, so no neuron counts as narrowed
        assert merged.allclose(tight)

    def test_demo_refinement_and_collapse(self, demo_net, demo_domain,
                                          demo_tight, demo_problem):
        boxed = box_propagate(demo_net, *pinned_box(demo_domain, {1: 0.2}))
        simplified, stats = tighten_and_simplify(
            demo_net, demo_tight, merge_bounds(demo_tight, boxed))
        # big-M constant for the first hidden neuron drops 1.2 -> 0.9, and
        # since its merged lower bound stays positive the block remains the
        # plain equality with no binary
        base_blk = block(demo_problem, 0, 0)
        new_blk = block(simplified, 0, 0)
        assert base_blk.pre_ub == pytest.approx(1.2, abs=1e-12)
        assert new_blk.pre_ub == pytest.approx(0.9, abs=1e-9)
        assert new_blk.mode == MODE_ACTIVE and new_blk.z_var is None
        # second hidden neuron still straddles zero: binary survives
        assert block(simplified, 0, 1).mode == MODE_SPLIT
        assert stats.binary_removed_count == 1
        assert stats.bounds_tightened_count == 3
        # second output variable bounds merged to [0.2, 0.9]
        out1 = simplified.output_vids[1]
        assert simplified.lp.lb[out1] == pytest.approx(0.2, abs=1e-12)
        assert simplified.lp.ub[out1] == pytest.approx(0.9, abs=1e-9)
        # the assignment's input is pinned, the freed one keeps its domain
        pinned, free = simplified.input_vids[1], simplified.input_vids[0]
        assert (simplified.lp.lb[pinned], simplified.lp.ub[pinned]) == (0.2, 0.2)
        assert (simplified.lp.lb[free], simplified.lp.ub[free]) == (0.0, 0.7)
        # the base problem is untouched
        assert block(demo_problem, 0, 0).pre_ub == pytest.approx(1.2, abs=1e-12)

    def test_identical_boxed_changes_nothing(self, demo_net, demo_problem,
                                             demo_tight):
        simplified, stats = tighten_and_simplify(
            demo_net, demo_tight, merge_bounds(demo_tight, demo_tight))
        assert stats.bounds_tightened_count == 0
        assert stats.binary_removed_count == \
            demo_net.num_hidden_neurons - len(demo_problem.binary_vids)

    def test_removed_never_below_encode_time(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            net, domain = random_network(rng)
            tight = domain_box(net, domain)
            problem = encode_network(net, tight)
            instance = random_instance(rng, net, domain)
            fixed = rng.choice(net.input_dim,
                               size=rng.integers(0, net.input_dim),
                               replace=False)
            boxed = box_propagate(
                net, *pinned_box(domain, {j: instance[j] for j in fixed}))
            _, stats = tighten_and_simplify(net, tight, merge_bounds(tight, boxed))
            assert stats.binary_removed_count >= \
                net.num_hidden_neurons - len(problem.binary_vids)


def _feasible_assignment(net, problem, point):
    """Forward activations extended to values for every problem variable; a
    prefix's outputs are the pre-activations of the layer after its blocks'."""
    acts = forward(net, point)
    values = np.zeros(problem.lp.a.shape[1])
    for i, vid in enumerate(problem.input_vids):
        values[vid] = point[i]
    for blk in problem.blocks:
        values[blk.post_var] = acts.post[blk.layer][blk.index]
        if blk.z_var is not None:
            values[blk.z_var] = 1.0 if acts.pre[blk.layer][blk.index] > 0 else 0.0
    depth = len({blk.layer for blk in problem.blocks})
    for j, vid in enumerate(problem.output_vids):
        values[vid] = acts.pre[depth][j]
    return values


def _check_feasible(problem, values, tol=1e-6):
    lp = problem.lp
    for vid in range(lp.a.shape[1]):
        assert values[vid] >= lp.lb[vid] - tol, vid
        assert values[vid] <= lp.ub[vid] + tol, vid
    for i in range(lp.a.shape[0]):
        coeffs, rel, rhs = row_terms(problem, i)
        lhs = sum(coef * values[vid] for vid, coef in coeffs.items())
        slack = tol * max(1.0, abs(rhs))
        if rel == LE:
            assert lhs <= rhs + slack, i
        elif rel == GE:
            assert lhs >= rhs - slack, i
        else:
            assert abs(lhs - rhs) <= slack, i


class TestModelPreservation:
    def test_forward_points_are_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            net, domain = random_network(rng)
            tight = domain_box(net, domain)
            problem = encode_network(net, tight)
            instance = random_instance(rng, net, domain)
            fixed = rng.choice(net.input_dim,
                               size=rng.integers(0, net.input_dim), replace=False)
            lo, hi = pinned_box(domain, {j: instance[j] for j in fixed})
            boxed = box_propagate(net, lo, hi)
            simplified, _ = tighten_and_simplify(net, tight,
                                                 merge_bounds(tight, boxed))
            for _ in range(5):
                point = rng.uniform(lo, hi)
                for p in (fix_attributes(problem, lo, hi),
                          fix_attributes(simplified, lo, hi)):
                    _check_feasible(p, _feasible_assignment(net, p, point))


class TestEquisatisfiability:
    def test_simplified_and_original_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            net, domain = random_network(rng, max_hidden_total=8)
            tight = domain_box(net, domain)
            problem = encode_network(net, tight)
            instance = random_instance(rng, net, domain)
            fixed = rng.choice(net.input_dim,
                               size=rng.integers(0, net.input_dim), replace=False)
            box = pinned_box(domain, {j: instance[j] for j in fixed})
            boxed = box_propagate(net, *box)
            k = net.class_count
            target = int(rng.integers(k))
            rival = int((target + 1 + rng.integers(k - 1)) % k)
            plain = attach_rival_query(fix_attributes(problem, *box),
                                       target, rival)
            simplified, _ = tighten_and_simplify(net, tight,
                                                 merge_bounds(tight, boxed))
            simp = attach_rival_query(fix_attributes(simplified, *box),
                                      target, rival)
            assert solve_feasibility(plain).status == \
                solve_feasibility(simp).status


def _forward_cases(rng, count):
    """(net, problem, kind) over random networks: full encodings with some
    attributes fixed, their improved-mode re-encodings, rival queries on
    both, and every prefix short of the whole network."""
    for _ in range(count):
        net, domain = random_network(rng)
        tight = domain_box(net, domain)
        instance = random_instance(rng, net, domain)
        fixed = rng.choice(net.input_dim,
                           size=rng.integers(0, net.input_dim + 1), replace=False)
        box = pinned_box(domain, {j: instance[j] for j in fixed})
        simplified, _ = tighten_and_simplify(
            net, tight, merge_bounds(tight, box_propagate(net, *box)))
        k = net.class_count
        target = int(rng.integers(k))
        rival = int((target + 1 + rng.integers(k - 1)) % k)
        for full in (fix_attributes(encode_network(net, tight), *box), simplified):
            yield net, full, "full"
            yield net, attach_rival_query(full, target, rival), "rival"
        for l in range(len(net.hidden_layers)):
            yield net, encode_prefix(net, tight, l), "prefix"


class TestForwardBasis:
    def test_basis_is_nonsingular(self):
        kinds = set()
        for net, problem, kind in _forward_cases(np.random.default_rng(83), 15):
            basis = forward_basis(problem)
            prep = prepare(problem.lp)
            assert sorted(set(basis.columns)) == sorted(basis.columns)
            # block triangular with unit diagonal blocks
            assert abs(np.linalg.det(prep.A[:, basis.columns])) == \
                pytest.approx(1.0, abs=1e-9)
            kinds.add(kind)
        assert kinds == {"full", "rival", "prefix"}

    def test_basic_solution_is_the_forward_pass_at_the_lower_corner(self):
        for net, problem, _ in _forward_cases(np.random.default_rng(89), 15):
            lp = problem.lp
            corner = lp.lb[list(problem.input_vids)]
            core = _Simplex(prepare(lp), lp.lb, lp.ub, forward_basis(problem))
            expected = _feasible_assignment(net, problem, corner)
            vids = list(problem.input_vids)
            for blk in problem.blocks:
                vids.append(blk.post_var)
                if blk.z_var is not None:
                    vids.append(blk.z_var)
            vids.extend(problem.output_vids)
            got = core.x[:lp.a.shape[1]]
            assert got[vids] == pytest.approx(expected[vids], rel=1e-9, abs=1e-12)
            assert core.iterations == 0

    def test_forward_point_is_the_network_forward_pass(self):
        rng = np.random.default_rng(113)
        for net, problem, _ in _forward_cases(np.random.default_rng(89), 15):
            lp = problem.lp
            inputs = list(problem.input_vids)
            point = rng.uniform(lp.lb[inputs], lp.ub[inputs])
            got = forward_point(problem, point)
            expected = _feasible_assignment(net, problem, point)
            vids = list(inputs)
            for blk in problem.blocks:
                vids.append(blk.post_var)
                if blk.z_var is not None:
                    vids.append(blk.z_var)
            vids.extend(problem.output_vids)
            assert got[vids] == pytest.approx(expected[vids], rel=1e-9, abs=1e-12)
            others = np.ones(got.size, dtype=bool)
            others[vids] = False
            assert (got[others] == 0.0).all()

    def test_only_the_rival_row_is_off(self):
        dual_checked = 0
        for net, problem, kind in _forward_cases(np.random.default_rng(97), 15):
            lp = problem.lp
            core = _Simplex(prepare(lp), lp.lb, lp.ub, forward_basis(problem))
            xb = core.x[core.basis]
            off = (xb < core.lo[core.basis] - 1e-9 * np.maximum(1.0, np.abs(xb))) | \
                (xb > core.hi[core.basis] + 1e-9 * np.maximum(1.0, np.abs(xb)))
            if kind == "rival":
                assert not off[:-1].any()
                continue
            assert not off.any()
            # a prefix (or a plain encoding) is accepted as it stands
            assert core.run_dual(None) is True
            assert core.iterations == 0
            dual_checked += kind == "prefix"
        assert dual_checked >= 15
