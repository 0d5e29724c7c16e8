"""Feedforward ReLU network model: loading, validation and exact evaluation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

RELU = "relu"
IDENTITY = "identity"


class ModelFormatError(ValueError):
    """A model document failed schema, shape or finiteness validation."""


def _as_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ModelFormatError("weights must be a 2-d matrix")
    if not np.isfinite(arr).all():
        raise ModelFormatError("non-finite weight value")
    arr.setflags(write=False)
    return arr


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ModelFormatError("biases must be a 1-d vector")
    if not np.isfinite(arr).all():
        raise ModelFormatError("non-finite bias value")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Layer:
    """One dense layer: ``out = act(weights @ prev + biases)``."""

    weights: np.ndarray  # (width, prev_width)
    biases: np.ndarray  # (width,)
    activation: str

    def __post_init__(self):
        if self.activation not in (RELU, IDENTITY):
            raise ModelFormatError(f"unknown activation {self.activation!r}")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ModelFormatError(
                f"bias length {self.biases.shape[0]} does not match "
                f"layer width {self.weights.shape[0]}"
            )

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class InputDomain:
    """Closed per-attribute interval box the inputs are allowed to range over."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ModelFormatError("domain lows/highs must be 1-d and equally sized")
        if not (np.isfinite(self.lows).all() and np.isfinite(self.highs).all()):
            raise ModelFormatError("domain bounds must be finite")
        if (self.lows > self.highs).any():
            bad = int(np.argmax(self.lows > self.highs))
            raise ModelFormatError(f"attribute {bad}: lower bound exceeds upper bound")
        self.lows.setflags(write=False)
        self.highs.setflags(write=False)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "InputDomain":
        arr = np.asarray(pairs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ModelFormatError("input_domain must be a list of [lb, ub] pairs")
        return cls(arr[:, 0].copy(), arr[:, 1].copy())

    @property
    def size(self) -> int:
        return self.lows.shape[0]

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies in the box; a point of another shape than
        ``(size,)`` does not."""
        p = np.asarray(point, dtype=np.float64)
        return p.shape == self.lows.shape and \
            bool((p >= self.lows).all() and (p <= self.highs).all())

    def pairs(self) -> list[list[float]]:
        return [[float(a), float(b)] for a, b in zip(self.lows, self.highs)]


@dataclass(frozen=True)
class Network:
    """Immutable layered ReLU classifier (hidden relu layers, identity output)."""

    layers: tuple[Layer, ...]
    input_dim: int

    def __post_init__(self):
        if not self.layers:
            raise ModelFormatError("network needs at least one layer")
        prev = self.input_dim
        for idx, layer in enumerate(self.layers):
            if layer.fan_in != prev:
                raise ModelFormatError(
                    f"layer {idx}: expects {layer.fan_in} inputs, previous width is {prev}"
                )
            prev = layer.width
        for idx, layer in enumerate(self.layers[:-1]):
            if layer.activation != RELU:
                raise ModelFormatError(f"layer {idx}: hidden layers must use relu")
        if self.layers[-1].activation != IDENTITY:
            raise ModelFormatError("last layer must use identity activation")
        if self.class_count < 2:
            raise ModelFormatError("output layer must have at least 2 classes")

    @property
    def class_count(self) -> int:
        return self.layers[-1].width

    @property
    def hidden_layers(self) -> tuple[Layer, ...]:
        return self.layers[:-1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.layers[:-1])

    @property
    def num_hidden_neurons(self) -> int:
        return sum(self.hidden_widths)


@dataclass(frozen=True)
class Activations:
    """Per-layer pre/post activation vectors from one forward pass."""

    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]

    @property
    def outputs(self) -> np.ndarray:
        return self.post[-1]


def load_network(document: dict) -> Network:
    """Build a validated :class:`Network` from a model document (see README schema)."""
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        input_dim = int(document["input_dim"])
        raw_layers = document["layers"]
    except KeyError as exc:
        raise ModelFormatError(f"missing required key {exc.args[0]!r}") from None
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ModelFormatError("'layers' must be a non-empty list")
    layers = []
    for idx, raw in enumerate(raw_layers):
        try:
            layers.append(Layer(_as_matrix(raw["weights"]),
                                _as_vector(raw["biases"]), raw["activation"]))
        except KeyError as exc:
            raise ModelFormatError(f"layer {idx}: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:  # ModelFormatError included
            raise ModelFormatError(f"layer {idx}: {exc}") from None
    return Network(tuple(layers), input_dim)


def load_domain(document: dict) -> InputDomain:
    try:
        pairs = document["input_domain"]
    except KeyError:
        raise ModelFormatError("missing required key 'input_domain'") from None
    domain = InputDomain.from_pairs(pairs)
    if domain.size != int(document.get("input_dim", domain.size)):
        raise ModelFormatError(
            f"input_domain has {domain.size} entries, input_dim is {document['input_dim']}"
        )
    return domain


def load_model_file(path) -> tuple[Network, InputDomain]:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    return load_network(document), load_domain(document)


def to_document(net: Network, domain: InputDomain) -> dict:
    """Serialize back to the JSON schema; floats round-trip exactly."""
    return {
        "input_dim": net.input_dim,
        "input_domain": domain.pairs(),
        "layers": [
            {
                "weights": [[float(w) for w in row] for row in layer.weights],
                "biases": [float(b) for b in layer.biases],
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
    }


def forward(net: Network, point) -> Activations:
    """Exact float64 forward pass; returns every pre/post activation vector."""
    x = np.asarray(point, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({net.input_dim},)")
    pre, post = [], []
    cur = x
    for layer in net.layers:
        z = layer.weights @ cur + layer.biases
        a = np.maximum(z, 0.0) if layer.activation == RELU else z
        pre.append(z)
        post.append(a)
        cur = a
    return Activations(tuple(pre), tuple(post))


def batch_pre_activations(net: Network,
                          points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every layer's pre-activations for a (m, input_dim) batch, one (m,
    width) array per layer, the outputs last.

    Agrees with forward() per row up to BLAS accumulation-order noise
    (~1e-16 relative), not bit-for-bit.
    """
    cur = np.asarray(points, dtype=np.float64).T
    if cur.ndim != 2 or cur.shape[0] != net.input_dim:
        raise ValueError(
            f"batch has shape {np.asarray(points).shape}, expected (m, {net.input_dim})")
    pre = []
    for layer in net.layers:
        cur = layer.weights @ cur + layer.biases[:, None]
        pre.append(cur.T)
        if layer.activation == RELU:
            cur = np.maximum(cur, 0.0)
    return tuple(pre)


def batch_outputs(net: Network, points: np.ndarray) -> np.ndarray:
    """Output vectors for a (m, input_dim) batch, the last of
    ``batch_pre_activations``."""
    return batch_pre_activations(net, points)[-1]


def predict(net: Network, point) -> int:
    """Argmax class; ties resolve to the lowest class index."""
    return int(np.argmax(forward(net, point).outputs))
