"""Property tests: improved mode's shortcuts never change an explanation.

Networks are drawn with duplicated and dead hidden neurons, which make the
encoding degenerate, and instances are pushed to a near tie between the top
two classes, where a forward-pass counterexample and the solver are most
likely to part ways.  The margin bound is checked against forward passes and
the enumeration oracle, and every counterexample the sampled and
gradient-stepped searches return against an exact forward pass.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boxplain.box import box_propagate, margin_lower_bounds  # noqa: E402
from boxplain.encoding import fix_attributes, merge_bounds  # noqa: E402
from boxplain.engine import (ASCENT_STARTS, Decision, Explainer,  # noqa: E402
                             _ascended, _query_box, _sampled, is_entailed)
from boxplain.model import (Layer, Network, batch_outputs, forward,  # noqa: E402
                            predict)
from conftest import pinned_box  # noqa: E402
from netgen import random_instance, random_network  # noqa: E402
from oracles import ORACLE_BINARY_CAP, oracle_enumerate  # noqa: E402


def _reshaped(net: Network, rng, duplicate: bool, dead: bool) -> Network:
    """``net`` with its first hidden layer's first neuron duplicated and/or a
    dead neuron (zero weights, negative bias) appended to that layer."""
    first, second, *rest = net.layers
    weights, biases = first.weights, first.biases
    if duplicate:
        weights = np.vstack([weights, weights[:1]])
        biases = np.append(biases, biases[0])
    if dead:
        weights = np.vstack([weights, np.zeros((1, weights.shape[1]))])
        biases = np.append(biases, -abs(rng.normal()) - 0.1)
    # the next layer reads the copies with weights of its own
    extra = weights.shape[0] - first.width
    columns = rng.normal(0.0, 1.0, size=(second.width, extra))
    layers = (Layer(weights, biases, first.activation),
              Layer(np.hstack([second.weights, columns]), second.biases,
                    second.activation), *rest)
    return Network(layers, net.input_dim)


def _near_tie(net: Network, instance, gap: float) -> Network:
    """``net`` with the runner-up's output bias raised to ``gap`` below the
    winner's output at ``instance``."""
    outputs = forward(net, instance).outputs
    winner, runner_up = np.argsort(outputs)[::-1][:2]
    out = net.layers[-1]
    biases = out.biases.copy()
    biases[runner_up] += outputs[winner] - outputs[runner_up] - gap
    return Network((*net.layers[:-1], Layer(out.weights, biases, out.activation)),
                   net.input_dim)


def _case(seed, gap, duplicate, dead):
    rng = np.random.default_rng(seed)
    net, domain = random_network(rng, n_inputs=int(rng.integers(2, 6)),
                                 max_hidden_total=6)
    net = _reshaped(net, rng, duplicate, dead)
    instance = random_instance(rng, net, domain)
    net = _near_tie(net, instance, gap)
    outputs = np.sort(forward(net, instance).outputs)
    return net, domain, instance, bool(outputs[-1] > outputs[-2])


# gaps above the solver's 1e-6 row tolerance; below it see the test after
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       gap=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]),
       duplicate=st.booleans(), dead=st.booleans())
def test_shortcuts_keep_what_the_solver_keeps(seed, gap, duplicate, dead):
    net, domain, instance, untied = _case(seed, gap, duplicate, dead)
    hypothesis.assume(untied)

    ex = Explainer(net, domain)
    base, _ = ex.explain(instance, "baseline")
    ours, _ = ex.explain(instance, "improved")
    assert base.kept == ours.kept
    kept = dict(ours.kept)
    for i, decision in ours.decisions.items():
        if decision is Decision.KEPT_BY_COUNTEREXAMPLE:
            fixed = [j for j in kept if j != i]
            problem = fix_attributes(
                ex.base_problem, *pinned_box(domain, {j: instance[j] for j in fixed}))
            entailed, _ = is_entailed(problem, ours.target)
            assert entailed is False


# below the solver's 1e-6 row tolerance, and just above it
@pytest.mark.parametrize("gap", [1e-9, 1e-7, 5e-7, 2e-6])
def test_sub_tolerance_near_tie_modes_agree(gap):
    # the solver accepts a witness that misses the rival row by up to its
    # tolerance, so a shortcut must not remove on a closer call
    for seed in range(8):
        for duplicate in (False, True):
            net, domain, instance, untied = _case(seed, gap, duplicate, False)
            assert untied
            ex = Explainer(net, domain)
            base, _ = ex.explain(instance, "baseline")
            ours, _ = ex.explain(instance, "improved")
            assert base.kept == ours.kept


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_margin_bound_is_sound(seed):
    rng = np.random.default_rng(seed)
    net, domain = random_network(rng, n_classes=int(rng.integers(2, 5)),
                                 max_hidden_total=8)
    instance = random_instance(rng, net, domain)
    target = predict(net, instance)
    fixed = np.flatnonzero(rng.random(net.input_dim) < 0.5)
    box = pinned_box(domain, {j: instance[j] for j in fixed})
    ex = Explainer(net, domain)
    merged = merge_bounds(ex.tight, box_propagate(net, *box))
    bound = margin_lower_bounds(net, merged, target)
    assert bound[target] == 0.0

    lo, hi = merged.input_lo, merged.input_hi
    outs = batch_outputs(net, lo + rng.random((256, lo.size)) * (hi - lo))
    assert (bound <= (outs[:, [target]] - outs).min(axis=0) + 1e-9).all()

    problem = fix_attributes(ex.base_problem, *box)
    assert len(problem.binary_vids) <= ORACLE_BINARY_CAP
    o = problem.output_vids
    for rival in range(net.class_count):
        if rival != target:
            exact = oracle_enumerate(problem, {o[target]: 1.0, o[rival]: -1.0})
            assert bound[rival] <= exact.value + 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_counterexamples_are_exact_and_in_the_box(seed):
    rng = np.random.default_rng(seed)
    net, domain = random_network(rng, n_classes=int(rng.integers(2, 5)),
                                 max_hidden_total=8)
    instance = random_instance(rng, net, domain)
    target = predict(net, instance)
    pinned = rng.random(net.input_dim) < 0.5
    lo, hi = _query_box(domain, instance, ~pinned)
    rivals = tuple(r for r in range(net.class_count) if r != target)
    sampled, starts = _sampled(net, lo, hi, int(rng.integers(net.input_dim)),
                               target)
    assert starts.shape == (ASCENT_STARTS, net.input_dim)
    # from the instance, where the target wins, only a step can find a point
    ascended = [_ascended(net, lo, hi, points, target, rivals)
                for points in (starts, instance[None])]
    for point in (sampled, *ascended):
        if point is None:
            continue
        assert ((lo <= point) & (point <= hi)).all()
        assert (point[pinned] == instance[pinned]).all()
        outputs = forward(net, point).outputs
        assert np.delete(outputs, target).max() >= outputs[target]

    ex = Explainer(net, domain)
    first, _ = ex.explain(instance, "improved")
    second, _ = ex.explain(instance, "improved")
    assert first.decisions == second.decisions
