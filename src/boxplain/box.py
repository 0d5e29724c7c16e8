"""Box (interval) propagation of neuron bounds, and a relational margin bound.

The propagation treats every neuron input as an independent interval, so the
result is a sound enclosure of the reachable values (up to float rounding)
but generally wider than the true range.  ``margin_lower_bounds`` keeps the
correlation between two outputs that the intervals lose: it bounds their
difference by back-substitution through the layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .model import InputDomain, Network
from .simplex import FEAS_TOL


@dataclass(frozen=True)
class AttributeAssignment:
    """Per input attribute: a pinned value or None for a free attribute."""

    values: tuple

    @classmethod
    def all_free(cls, n: int) -> "AttributeAssignment":
        return cls((None,) * n)

    @classmethod
    def fixing(cls, n: int, fixed: Mapping[int, float]) -> "AttributeAssignment":
        vals = [None] * n
        for i, v in fixed.items():
            vals[i] = float(v)
        return cls(tuple(vals))

    @classmethod
    def from_instance(cls, instance, fixed: Iterable[int]) -> "AttributeAssignment":
        instance = np.asarray(instance, dtype=np.float64)
        vals = [None] * instance.shape[0]
        for i in fixed:
            vals[i] = float(instance[i])
        return cls(tuple(vals))

    @property
    def size(self) -> int:
        return len(self.values)

    def validate(self, domain: InputDomain) -> None:
        if self.size != domain.size:
            raise ValueError(f"assignment covers {self.size} attributes, domain has {domain.size}")
        for i, v in enumerate(self.values):
            if v is not None and not (domain.lows[i] <= v <= domain.highs[i]):
                raise ValueError(
                    f"attribute {i}: fixed value {v} outside domain "
                    f"[{domain.lows[i]}, {domain.highs[i]}]"
                )

    def input_intervals(self, domain: InputDomain) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array(domain.lows, dtype=np.float64)
        hi = np.array(domain.highs, dtype=np.float64)
        for i, v in enumerate(self.values):
            if v is not None:
                lo[i] = hi[i] = v
        return lo, hi


@dataclass(frozen=True)
class BoundsMap:
    """Per-neuron interval bounds: inputs, hidden pre-activations, outputs.

    Hidden-layer arrays are indexed 0..L-2 in network order; each entry is a
    vector over that layer's neurons.  A hidden neuron's post-activation
    bounds are the relu of its pre-activation bounds.
    """

    input_lo: np.ndarray
    input_hi: np.ndarray
    pre_lo: tuple[np.ndarray, ...]
    pre_hi: tuple[np.ndarray, ...]
    out_lo: np.ndarray
    out_hi: np.ndarray

    def __post_init__(self):
        for arr in (self.input_lo, self.input_hi, self.out_lo, self.out_hi,
                    *self.pre_lo, *self.pre_hi):
            arr.setflags(write=False)

    @property
    def num_hidden_layers(self) -> int:
        return len(self.pre_lo)

    def shapes_match(self, net: Network) -> bool:
        if self.input_lo.shape != (net.input_dim,):
            return False
        widths = net.hidden_widths
        if len(self.pre_lo) != len(widths):
            return False
        if any(self.pre_lo[i].shape != (w,) for i, w in enumerate(widths)):
            return False
        return self.out_lo.shape == (net.class_count,)

    def allclose(self, other: "BoundsMap", tol: float = 0.0) -> bool:
        pairs = [(self.input_lo, other.input_lo), (self.input_hi, other.input_hi),
                 (self.out_lo, other.out_lo), (self.out_hi, other.out_hi)]
        pairs += list(zip(self.pre_lo, other.pre_lo)) + list(zip(self.pre_hi, other.pre_hi))
        return all(a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol
                   for a, b in pairs)


class ShortcutResult(enum.Enum):
    REMOVABLE = "removable"
    INCONCLUSIVE = "inconclusive"


def _affine_box(weights: np.ndarray, biases: np.ndarray,
                lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w_pos = np.maximum(weights, 0.0)
    w_neg = np.minimum(weights, 0.0)
    new_lo = w_pos @ lo + w_neg @ hi + biases
    new_hi = w_pos @ hi + w_neg @ lo + biases
    return new_lo, new_hi


def box_propagate(net: Network, assign: AttributeAssignment,
                  domain: InputDomain) -> BoundsMap:
    """Push input intervals through the network layer by layer.

    Fixed attributes become point intervals, free ones take their domain
    range.  Hidden layers apply the affine map then clip at zero; the output
    layer stays affine.
    """
    assign.validate(domain)
    input_lo, input_hi = assign.input_intervals(domain)
    lo, hi = input_lo, input_hi
    pre_lo, pre_hi = [], []
    for layer in net.hidden_layers:
        zl, zh = _affine_box(layer.weights, layer.biases, lo, hi)
        pre_lo.append(zl)
        pre_hi.append(zh)
        lo, hi = np.maximum(zl, 0.0), np.maximum(zh, 0.0)
    out = net.layers[-1]
    out_lo, out_hi = _affine_box(out.weights, out.biases, lo, hi)
    return BoundsMap(input_lo, input_hi, tuple(pre_lo), tuple(pre_hi),
                     out_lo, out_hi)


def shortcut_check(bounds: BoundsMap, target: int) -> ShortcutResult:
    """Removable iff the target output's lower bound beats every rival
    output's upper bound by more than ``FEAS_TOL``, the solver's tolerance on
    a rival row: a closer call falls through to the solver, which may accept
    a witness within that tolerance."""
    k = bounds.out_lo.shape[0]
    if not 0 <= target < k:
        raise ValueError(f"target class {target} out of range for {k} outputs")
    target_lb = bounds.out_lo[target]
    for j in range(k):
        if j != target and not (target_lb - bounds.out_hi[j] > FEAS_TOL):
            return ShortcutResult.INCONCLUSIVE
    return ShortcutResult.REMOVABLE


def margin_lower_bounds(net: Network, bounds: BoundsMap,
                        target: int) -> np.ndarray:
    """Per class r, a lower bound of ``o_target - o_r`` over the input box of
    ``bounds`` (0 for the target itself).

    The rows ``e_target - e_r`` are back-substituted through the output layer
    and every hidden layer down to the inputs (CROWN, Zhang et al. 2018).  A
    ReLU whose pre-activation bounds straddle zero is relaxed to the line of
    slope 0 or 1 below it (1 when ``hi >= -lo``) and the chord
    ``hi/(hi-lo)·(z-lo)`` above it; a row takes the line below where its
    coefficient is positive and the chord where it is negative.  Stable
    neurons are exact.  The bound is sound whenever the pre-activation bounds
    of ``bounds`` are.
    """
    k = net.class_count
    out = net.layers[-1]
    rows = np.eye(k)[target] - np.eye(k)
    coef, const = rows @ out.weights, rows @ out.biases
    for layer, lo, hi in reversed(tuple(zip(net.hidden_layers, bounds.pre_lo,
                                            bounds.pre_hi))):
        unstable = (lo < 0.0) & (hi > 0.0)
        active = lo >= 0.0
        upper = np.where(unstable, hi / np.where(unstable, hi - lo, 1.0), active)
        below = np.where(unstable, hi >= -lo, active)
        neg = np.minimum(coef, 0.0)
        const = const - neg @ np.where(unstable, upper * lo, 0.0)
        coef = np.maximum(coef, 0.0) * below + neg * upper
        const = const + coef @ layer.biases
        coef = coef @ layer.weights
    return (const + np.maximum(coef, 0.0) @ bounds.input_lo
            + np.minimum(coef, 0.0) @ bounds.input_hi)
