import itertools
from dataclasses import replace

import numpy as np
import pytest

from boxplain.box import BoundsMap, ShortcutResult, box_propagate, shortcut_check
from boxplain.encoding import attach_rival_query, encode_network, fix_attributes
from boxplain.engine import Explainer, InstanceError
from boxplain.model import (IDENTITY, RELU, InputDomain, Layer, Network,
                            forward, load_model_file, predict)
from conftest import MODELS, pinned_box
from netgen import random_instance, random_network
from oracles import oracle_enumerate


def affine_image(weights, bias, lo, hi):
    """Output-0 enclosure of ``bias + weights @ x`` over the box [lo, hi],
    from box_propagate on a one-layer identity network."""
    n = len(lo)
    w = np.vstack([np.asarray(weights, dtype=np.float64), np.zeros(n)])
    net = Network((Layer(w, np.array([bias, 0.0]), IDENTITY),), n)
    domain = InputDomain(np.asarray(lo, dtype=np.float64),
                         np.asarray(hi, dtype=np.float64))
    bounds = box_propagate(net, domain.lows, domain.highs)
    return bounds.out_lo[0], bounds.out_hi[0]


def relu_image(lo, hi):
    """Post-activation enclosure of one relu neuron whose pre-activation
    ranges over [lo, hi], from box_propagate."""
    net = Network((Layer(np.eye(1), np.zeros(1), RELU),
                   Layer(np.zeros((2, 1)), np.zeros(2), IDENTITY)), 1)
    domain = InputDomain(np.array([lo]), np.array([hi]))
    bounds = box_propagate(net, domain.lows, domain.highs)
    return (np.maximum(bounds.pre_lo[0], 0.0)[0],
            np.maximum(bounds.pre_hi[0], 0.0)[0])


class TestIntervalOps:
    """Interval sum, scaling and relu as box propagation applies them."""

    def test_add(self):
        assert affine_image([1.0, 1.0], 0.0, [0.0, 0.2], [0.7, 0.5]) == (0.2, 1.2)
        assert affine_image([1.0, 1.0], 0.0, [0.0, -3.0], [0.0, 4.0]) == (-3.0, 4.0)
        assert affine_image([1.0, 1.0], 0.0, [-1.0, -3.0], [2.0, -1.0]) == (-4.0, 1.0)

    def test_scale(self):
        assert affine_image([-1.0], 0.0, [0.2], [0.5]) == (-0.5, -0.2)
        assert affine_image([0.0], 0.0, [-7.0], [3.0]) == (0.0, 0.0)
        assert affine_image([2.0], 0.0, [-1.0], [3.0]) == (-2.0, 6.0)

    def test_relu(self):
        assert relu_image(-0.5, 0.5) == (0.0, 0.5)
        assert relu_image(0.2, 1.2) == (0.2, 1.2)
        assert relu_image(-3.0, -1.0) == (0.0, 0.0)

    def test_invalid_interval(self):
        # the propagated input intervals come from the domain, which rejects
        # inverted and infinite endpoints
        with pytest.raises(ValueError):
            InputDomain(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            InputDomain(np.array([0.0]), np.array([np.inf]))

    def test_ops_preserve_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = sorted(rng.normal(size=2))
            b = sorted(rng.normal(size=2))
            c = float(rng.normal())
            for lo, hi in (affine_image([1.0, 1.0], 0.0, [a[0], b[0]], [a[1], b[1]]),
                           affine_image([c], 0.0, [a[0]], [a[1]]),
                           relu_image(*a)):
                assert lo <= hi


class TestAffineBounds:
    def test_demo_rows(self):
        lo, hi = [0.0, 0.2], [0.7, 0.5]
        assert affine_image([1.0, 1.0], 0.0, lo, hi) == \
            pytest.approx((0.2, 1.2), abs=1e-12)
        assert affine_image([1.0, -1.0], 0.0, lo, hi) == \
            pytest.approx((-0.5, 0.5), abs=1e-12)

    def test_matches_corner_enumeration(self):
        w, b = np.array([2.0, -3.0]), 1.0
        corners = [b + w @ np.array(pt)
                   for pt in itertools.product([0.0, 1.0], repeat=2)]
        got = affine_image(w, b, [0.0, 0.0], [1.0, 1.0])
        assert got == (min(corners), max(corners))
        assert got == (-2.0, 3.0)

    def test_corner_enumeration_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            w = rng.normal(size=n)
            b = float(rng.normal())
            lo = rng.normal(size=n)
            hi = lo + rng.uniform(0, 2, size=n)
            corners = [b + w @ np.array(pt)
                       for pt in itertools.product(*zip(lo, hi))]
            got_lo, got_hi = affine_image(w, b, lo, hi)
            assert got_lo == pytest.approx(min(corners), abs=1e-9)
            assert got_hi == pytest.approx(max(corners), abs=1e-9)

    def test_length_mismatch(self, demo_net, demo_domain):
        with pytest.raises(ValueError, match="for 2 inputs"):
            box_propagate(demo_net, demo_domain.lows[:1], demo_domain.highs[:1])


class TestBoxPropagate:
    def test_demo_all_free(self, demo_net, demo_domain):
        b = box_propagate(demo_net, demo_domain.lows, demo_domain.highs)
        assert b.pre_lo[0] == pytest.approx([0.2, -0.5], abs=1e-12)
        assert b.pre_hi[0] == pytest.approx([1.2, 0.5], abs=1e-12)
        assert np.maximum(b.pre_lo[0], 0.0) == pytest.approx([0.2, 0.0], abs=1e-12)
        assert np.maximum(b.pre_hi[0], 0.0) == pytest.approx([1.2, 0.5], abs=1e-12)
        assert b.out_lo == pytest.approx([0.2, -0.3], abs=1e-12)
        assert b.out_hi == pytest.approx([1.7, 1.2], abs=1e-12)

    def test_demo_first_attribute_fixed(self, demo_net, demo_domain):
        b = box_propagate(demo_net, *pinned_box(demo_domain, {0: 0.7}))
        assert b.out_lo == pytest.approx([1.1, 0.4], abs=1e-12)
        assert b.out_hi == pytest.approx([1.7, 1.0], abs=1e-12)

    def test_demo_second_attribute_fixed(self, demo_net, demo_domain):
        # interval endpoints with x1 = 0.2: h0 in [0.2, 0.9], h1 in [0, 0.5].
        # o0's endpoints are attained, 0.2 at (0, 0.2) and 1.4 at (0.7, 0.2);
        # o1's endpoints -0.3 and 0.9 come from the interval image of
        # h0 - h1 alone, as o1 only reaches [0.2, 0.4]
        b = box_propagate(demo_net, *pinned_box(demo_domain, {1: 0.2}))
        assert b.pre_lo[0] == pytest.approx([0.2, -0.2], abs=1e-12)
        assert b.pre_hi[0] == pytest.approx([0.9, 0.5], abs=1e-12)
        assert b.out_lo == pytest.approx([0.2, -0.3], abs=1e-12)
        assert b.out_hi == pytest.approx([1.4, 0.9], abs=1e-12)

    def test_fixed_value_outside_domain(self, demo_net, demo_domain):
        # a box knows no domain: explain checks the instance, and
        # fix_attributes checks a box against the encoding's input bounds
        with pytest.raises(InstanceError, match="outside the input domain"):
            Explainer(demo_net, demo_domain).explain([0.9, 0.2])
        problem = encode_network(demo_net, bounds_over_domain(demo_net, demo_domain))
        with pytest.raises(ValueError, match="attribute 0"):
            fix_attributes(problem, *pinned_box(demo_domain, {0: 0.9}))

    def test_inverted_box(self, demo_net):
        with pytest.raises(ValueError, match="attribute 1: lower end 0.5 above"):
            box_propagate(demo_net, np.array([0.1, 0.5]), np.array([0.2, 0.3]))
        with pytest.raises(ValueError, match="attribute 0: lower end nan"):
            box_propagate(demo_net, np.array([np.nan, 0.2]), np.array([0.2, 0.3]))

    def test_caller_arrays_stay_writable(self, demo_net, demo_domain):
        lo, hi = pinned_box(demo_domain, {0: 0.7})
        bounds = box_propagate(demo_net, lo, hi)
        lo[1] = hi[1] = 0.3
        assert bounds.input_lo.tolist() == [0.7, 0.2]
        assert bounds.input_hi.tolist() == [0.7, 0.5]
        assert not bounds.input_lo.flags.writeable

    def test_sampled_soundness(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            net, domain = random_network(rng)
            n = net.input_dim
            fixed = {int(i): float(rng.uniform(domain.lows[i], domain.highs[i]))
                     for i in rng.choice(n, size=rng.integers(0, n + 1),
                                         replace=False)}
            lo, hi = pinned_box(domain, fixed)
            bounds = box_propagate(net, lo, hi)
            points = rng.uniform(lo, hi, size=(1000, n))
            for row in points[rng.choice(1000, size=60, replace=False)]:
                acts = forward(net, row)
                for l in range(len(net.hidden_layers)):
                    assert (acts.pre[l] >= bounds.pre_lo[l] - 1e-9).all()
                    assert (acts.pre[l] <= bounds.pre_hi[l] + 1e-9).all()
                    post_lo = np.maximum(bounds.pre_lo[l], 0.0)
                    post_hi = np.maximum(bounds.pre_hi[l], 0.0)
                    assert (acts.post[l] >= post_lo - 1e-9).all()
                    assert (acts.post[l] <= post_hi + 1e-9).all()
                assert (acts.outputs >= bounds.out_lo - 1e-9).all()
                assert (acts.outputs <= bounds.out_hi + 1e-9).all()

    def test_inclusion_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net, domain = random_network(rng)
            n = net.input_dim
            point = rng.uniform(domain.lows, domain.highs)
            small = set(rng.choice(n, size=rng.integers(0, n), replace=False))
            extra = set(rng.choice(n, size=rng.integers(0, n), replace=False))
            big = small | extra
            inner = box_propagate(
                net, *pinned_box(domain, {j: point[j] for j in big}))
            outer = box_propagate(
                net, *pinned_box(domain, {j: point[j] for j in small}))
            for l in range(len(net.hidden_layers)):
                assert (inner.pre_lo[l] >= outer.pre_lo[l] - 1e-12).all()
                assert (inner.pre_hi[l] <= outer.pre_hi[l] + 1e-12).all()
            assert (inner.out_lo >= outer.out_lo - 1e-12).all()
            assert (inner.out_hi <= outer.out_hi + 1e-12).all()


class TestBoundsMap:
    """The per-layer view of a map, and the checks that read it, on a
    network with two hidden layers."""

    @pytest.fixture(scope="class")
    def two_hidden(self):
        net, domain = load_model_file(MODELS / "random_3in_2l.json")
        return net, domain, box_propagate(net, domain.lows, domain.highs)

    def test_layers_in_network_order(self, two_hidden):
        net, _, bounds = two_hidden
        assert [(lo.shape, hi.shape) for lo, hi in bounds.layers] == \
            [((4,), (4,)), ((2,), (2,)), ((2,), (2,))]
        assert bounds.layers[-1] == (bounds.out_lo, bounds.out_hi)
        again = BoundsMap.of_layers(bounds.input_lo, bounds.input_hi,
                                    bounds.layers)
        assert again.allclose(bounds) and again.shapes_match(net)

    def test_one_end_one_entry_short_does_not_match(self, two_hidden):
        # such a map once passed the check, and the encoding silently
        # dropped the hidden neuron its short end lacks
        net, domain, bounds = two_hidden
        short = replace(bounds, pre_hi=(bounds.pre_hi[0][:-1], bounds.pre_hi[1]))
        assert not short.shapes_match(net)
        with pytest.raises(ValueError, match="does not match network shape"):
            Explainer(net, domain, tight=short)

    def test_every_end_is_checked(self, two_hidden):
        net, _, bounds = two_hidden
        for name in ("input_lo", "input_hi", "out_lo", "out_hi"):
            short = replace(bounds, **{name: getattr(bounds, name)[:-1]})
            assert not short.shapes_match(net), name
        for name in ("pre_lo", "pre_hi"):
            ends = getattr(bounds, name)
            for l in range(len(ends)):
                cut = (*ends[:l], ends[l][:-1], *ends[l + 1:])
                assert not replace(bounds, **{name: cut}).shapes_match(net), (name, l)

    def test_maps_of_different_depth_differ(self, two_hidden):
        _, _, bounds = two_hidden
        cut = replace(bounds, pre_lo=bounds.pre_lo[:1], pre_hi=bounds.pre_hi[:1])
        assert bounds.allclose(bounds)
        assert not bounds.allclose(cut) and not cut.allclose(bounds)

    def test_hidden_ends_of_unequal_depth_rejected(self, two_hidden):
        _, _, bounds = two_hidden
        with pytest.raises(ValueError, match="shorter"):
            replace(bounds, pre_hi=bounds.pre_hi[:1])


def _outputs_only(pairs) -> BoundsMap:
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    return BoundsMap(np.zeros(0), np.zeros(0), (), (), lo, hi)


class TestShortcut:
    def test_dominating_target_is_removable(self):
        bounds = _outputs_only([(1.1, 1.7), (0.4, 1.0)])
        assert shortcut_check(bounds, 0) is ShortcutResult.REMOVABLE

    def test_overlap_is_inconclusive(self):
        bounds = _outputs_only([(0.2, 1.0), (-0.3, 0.5)])
        assert shortcut_check(bounds, 0) is ShortcutResult.INCONCLUSIVE

    def test_boundary_tie_is_inconclusive(self):
        bounds = _outputs_only([(1.0, 2.0), (2.0, 3.0)])
        assert shortcut_check(bounds, 0) is ShortcutResult.INCONCLUSIVE

    def test_gap_within_solver_tolerance_is_inconclusive(self):
        # the solver would accept a rival witness this close
        bounds = _outputs_only([(1.0 + 5e-7, 2.0), (0.0, 1.0)])
        assert shortcut_check(bounds, 0) is ShortcutResult.INCONCLUSIVE
        bounds = _outputs_only([(1.0 + 2e-6, 2.0), (0.0, 1.0)])
        assert shortcut_check(bounds, 0) is ShortcutResult.REMOVABLE

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            shortcut_check(_outputs_only([(0, 1), (0, 1)]), 2)

    def test_removable_confirmed_by_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        confirmed = 0
        for _ in range(40):
            net, domain = random_network(rng, max_hidden_total=8)
            instance = random_instance(rng, net, domain)
            target = predict(net, instance)
            free = int(rng.integers(net.input_dim))
            fixed = [j for j in range(net.input_dim) if j != free]
            box = pinned_box(domain, {j: instance[j] for j in fixed})
            bounds = box_propagate(net, *box)
            if shortcut_check(bounds, target) is not ShortcutResult.REMOVABLE:
                continue
            problem = fix_attributes(encode_network(net, bounds_over_domain(net, domain)),
                                     *box)
            for rival in range(net.class_count):
                if rival == target:
                    continue
                truth = oracle_enumerate(attach_rival_query(problem, target, rival))
                assert truth.status == "infeasible"
            confirmed += 1
        assert confirmed >= 5


def bounds_over_domain(net, domain):
    return box_propagate(net, domain.lows, domain.highs)
