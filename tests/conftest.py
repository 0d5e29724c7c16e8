import json
from pathlib import Path

import numpy as np
import pytest

from boxplain.model import load_domain, load_network

MODELS = Path(__file__).resolve().parent.parent / "models"

DEMO_DOC = {
    "input_dim": 2,
    "input_domain": [[0.0, 0.7], [0.2, 0.5]],
    "layers": [
        {"weights": [[1.0, 1.0], [1.0, -1.0]], "biases": [0.0, 0.0],
         "activation": "relu"},
        {"weights": [[1.0, 1.0], [1.0, -1.0]], "biases": [0.0, 0.0],
         "activation": "identity"},
    ],
}

DEMO_INSTANCE = np.array([0.7, 0.2])

# no hidden layer: three affine outputs of three inputs
AFFINE_DOC = {
    "input_dim": 3,
    "input_domain": [[0.0, 1.0]] * 3,
    "layers": [
        {"weights": [[1.0, -0.5, 0.25], [-0.3, 0.8, 0.1], [0.2, 0.1, -0.9]],
         "biases": [0.1, 0.0, 0.2], "activation": "identity"},
    ],
}


def pinned_box(domain, fixed):
    """The input box that pins each attribute in ``fixed`` (index -> value)
    and spans ``domain`` for the rest, as ``(lo, hi)``."""
    lo, hi = np.array(domain.lows), np.array(domain.highs)
    for i, v in fixed.items():
        lo[i] = hi[i] = v
    return lo, hi


def block(problem, layer, index):
    """The ``NeuronBlock`` of hidden neuron ``index`` in ``layer``."""
    return next(b for b in problem.blocks if (b.layer, b.index) == (layer, index))


@pytest.fixture(scope="session")
def demo_net():
    return load_network(DEMO_DOC)


@pytest.fixture(scope="session")
def demo_domain():
    return load_domain(DEMO_DOC)


@pytest.fixture(scope="session")
def demo_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "demo.json"
    path.write_text(json.dumps(DEMO_DOC))
    return path
