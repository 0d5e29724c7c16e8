import copy
import json
import re

import numpy as np
import pytest

from boxplain.model import (IDENTITY, RELU, InputDomain, Layer,
                            ModelFormatError, Network, batch_outputs,
                            batch_pre_activations, forward, load_domain,
                            load_network, predict, to_document)
from conftest import DEMO_DOC
from netgen import random_network

HIDDEN, OUTPUT = DEMO_DOC["layers"]


def _demo(**changes):
    """The demo document with top-level keys replaced, or dropped for None."""
    doc = {**DEMO_DOC, **changes}
    return {k: v for k, v in doc.items() if v is not None}


MALFORMED = [
    pytest.param(_demo(layers=[{**HIDDEN, "weights": [1.0, 1.0]}, OUTPUT]),
                 "layer 0: weights must be a 2-d matrix", id="weights-not-2d"),
    pytest.param(_demo(layers=[{**HIDDEN, "biases": [[0.0], [0.0]]}, OUTPUT]),
                 "layer 0: biases must be a 1-d vector", id="biases-not-1d"),
    pytest.param(_demo(layers=[{**HIDDEN, "biases": [float("inf"), 0.0]}, OUTPUT]),
                 "layer 0: non-finite bias value", id="non-finite-bias"),
    pytest.param(_demo(layers=[{**HIDDEN, "activation": "tanh"}, OUTPUT]),
                 "layer 0: unknown activation 'tanh'", id="unknown-activation"),
    pytest.param(_demo(input_domain=[[0.0, 0.7, 1.0], [0.2, 0.5, 1.0]]),
                 "input_domain must be a list of [lb, ub] pairs",
                 id="domain-not-pairs"),
    pytest.param(_demo(input_domain=[[0.0, 0.7], [0.2, 0.5], [0.0, 1.0]]),
                 "input_domain has 3 entries, input_dim is 2",
                 id="domain-size"),
    pytest.param(_demo(input_domain=None),
                 "missing required key 'input_domain'", id="no-domain"),
    pytest.param(_demo(layers=[]), "'layers' must be a non-empty list",
                 id="no-layers"),
    pytest.param(_demo(layers={"0": HIDDEN}), "'layers' must be a non-empty list",
                 id="layers-not-a-list"),
    pytest.param(_demo(layers=[{"weights": HIDDEN["weights"],
                                "activation": "relu"}, OUTPUT]),
                 "layer 0: missing key 'biases'", id="layer-key-missing"),
    pytest.param(_demo(layers=[HIDDEN, {**OUTPUT, "weights": [[1.0, 1.0]],
                                        "biases": [0.0]}]),
                 "output layer must have at least 2 classes", id="one-class"),
    pytest.param([DEMO_DOC], "model document must be a JSON object",
                 id="not-an-object"),
]


class TestLoad:
    def test_demo_document(self, demo_net):
        assert len(demo_net.layers) == 2
        assert demo_net.input_dim == 2
        assert demo_net.hidden_widths == (2,)
        assert demo_net.class_count == 2

    def test_bias_length_mismatch_names_layer(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["layers"][0]["biases"] = [0.0, 0.0, 0.0]
        with pytest.raises(ModelFormatError, match="layer 0"):
            load_network(doc)

    def test_weight_column_mismatch(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["layers"][1]["weights"] = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]
        with pytest.raises(ModelFormatError, match="layer 1"):
            load_network(doc)

    def test_no_hidden_layers_is_valid(self):
        doc = {
            "input_dim": 2,
            "input_domain": [[0.0, 1.0], [0.0, 1.0]],
            "layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]],
                        "biases": [0.0, 0.0], "activation": "identity"}],
        }
        net = load_network(doc)
        assert net.hidden_widths == ()
        assert net.class_count == 2

    def test_non_finite_rejected(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["layers"][0]["weights"][0][0] = float("nan")
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_network(doc)

    def test_missing_key(self):
        with pytest.raises(ModelFormatError, match="layers"):
            load_network({"input_dim": 2})

    def test_hidden_layer_must_be_relu(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["layers"][0]["activation"] = "identity"
        with pytest.raises(ModelFormatError, match="relu"):
            load_network(doc)

    def test_last_layer_must_be_identity(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["layers"][1]["activation"] = "relu"
        with pytest.raises(ModelFormatError, match="identity"):
            load_network(doc)

    @pytest.mark.parametrize("doc, message", MALFORMED)
    def test_malformed_document(self, doc, message):
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_network(doc)
            load_domain(doc)

    def test_domain_arrays_of_unequal_shape(self):
        with pytest.raises(ModelFormatError, match="1-d and equally sized"):
            InputDomain(np.zeros(2), np.ones(3))

    def test_domain_bounds_ordered(self):
        doc = copy.deepcopy(DEMO_DOC)
        doc["input_domain"] = [[0.7, 0.0], [0.2, 0.5]]
        with pytest.raises(ModelFormatError, match="attribute 0"):
            load_domain(doc)


class TestForward:
    def test_demo_instance(self, demo_net):
        acts = forward(demo_net, [0.7, 0.2])
        assert acts.pre[0] == pytest.approx([0.9, 0.5], abs=1e-12)
        assert acts.post[0] == pytest.approx([0.9, 0.5], abs=1e-12)
        assert acts.outputs == pytest.approx([1.4, 0.4], abs=1e-12)

    def test_negative_branch_clipped(self, demo_net):
        acts = forward(demo_net, [0.0, 0.5])
        assert acts.pre[0] == pytest.approx([0.5, -0.5], abs=0)
        assert acts.post[0] == pytest.approx([0.5, 0.0], abs=0)
        assert acts.outputs == pytest.approx([0.5, 0.5], abs=0)

    def test_zero_weights_give_biases(self):
        net = Network((
            Layer(np.zeros((3, 2)), np.array([0.5, -1.0, 2.0]), RELU),
            Layer(np.zeros((2, 3)), np.array([1.5, -0.5]), IDENTITY),
        ), 2)
        acts = forward(net, [0.3, 0.9])
        assert acts.outputs == pytest.approx([1.5, -0.5], abs=0)

    def test_length_mismatch(self, demo_net):
        with pytest.raises(ValueError):
            forward(demo_net, [0.7, 0.2, 0.1])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net, domain = random_network(rng)
        points = rng.uniform(domain.lows, domain.highs, size=(40, net.input_dim))
        batched = batch_outputs(net, points)
        layers = batch_pre_activations(net, points)
        assert len(layers) == len(net.layers)
        assert np.array_equal(layers[-1], batched)
        for n, (row, out) in enumerate(zip(points, batched)):
            acts = forward(net, row)
            assert acts.outputs == pytest.approx(out, abs=1e-12)
            for pre, batch in zip(acts.pre, layers):
                assert pre == pytest.approx(batch[n], abs=1e-12)


class TestPredict:
    def test_demo(self, demo_net):
        assert predict(demo_net, [0.7, 0.2]) == 0

    def test_tie_breaks_low(self, demo_net):
        # outputs are (0.5, 0.5) at this point
        assert predict(demo_net, [0.0, 0.5]) == 0

    def test_argmax(self):
        net = Network((Layer(np.eye(3), np.zeros(3), IDENTITY),), 3)
        assert predict(net, [0.1, 0.9, 0.3]) == 1

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net, domain = random_network(rng)
            shift = float(rng.normal())
            out = net.layers[-1]
            shifted = Network(net.layers[:-1] + (
                Layer(out.weights, out.biases + shift, IDENTITY),), net.input_dim)
            for _ in range(5):
                p = rng.uniform(domain.lows, domain.highs)
                assert predict(net, p) == predict(shifted, p)


def test_hidden_post_activations_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net, domain = random_network(rng)
        for _ in range(20):
            p = rng.uniform(domain.lows, domain.highs)
            acts = forward(net, p)
            for post in acts.post[:-1]:
                assert (post >= 0.0).all()


def test_serialization_round_trip_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(5):
        net, domain = random_network(rng)
        doc = json.loads(json.dumps(to_document(net, domain)))
        net2 = load_network(doc)
        dom2 = load_domain(doc)
        assert (dom2.lows == domain.lows).all()
        assert (dom2.highs == domain.highs).all()
        for _ in range(10):
            p = rng.uniform(domain.lows, domain.highs)
            a, b = forward(net, p).outputs, forward(net2, p).outputs
            assert (a == b).all()
