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

import numpy as np

from .model import Network
from .simplex import FEAS_TOL


@dataclass(frozen=True)
class BoundsMap:
    """Per-neuron interval bounds: the input box and the pre-activations of
    every layer, hidden and output.

    ``layers`` views the map as one ``(lo, hi)`` pair of vectors per layer
    in network order, the outputs last; ``pre_lo``/``pre_hi`` hold the
    hidden layers', of equal length (ValueError otherwise), and
    ``out_lo``/``out_hi`` the outputs'.  A hidden neuron's post-activation
    bounds are the relu of its pre-activation bounds.
    """

    input_lo: np.ndarray
    input_hi: np.ndarray
    pre_lo: tuple[np.ndarray, ...]
    pre_hi: tuple[np.ndarray, ...]
    out_lo: np.ndarray
    out_hi: np.ndarray

    def __post_init__(self):
        for pair in self._intervals:
            for arr in pair:
                arr.setflags(write=False)

    @classmethod
    def of_layers(cls, input_lo, input_hi, layers) -> "BoundsMap":
        """The map of the input box ``[input_lo, input_hi]`` and the
        ``(lo, hi)`` pair of each layer in ``layers``, the outputs last."""
        *hidden, (out_lo, out_hi) = layers
        pre_lo, pre_hi = tuple(zip(*hidden)) or ((), ())
        return cls(input_lo, input_hi, pre_lo, pre_hi, out_lo, out_hi)

    @property
    def layers(self) -> tuple:
        """The ``(lo, hi)`` pre-activation pair of each layer, the outputs
        last."""
        return (*zip(self.pre_lo, self.pre_hi, strict=True),
                (self.out_lo, self.out_hi))

    @property
    def _intervals(self) -> tuple:
        return ((self.input_lo, self.input_hi), *self.layers)

    def shapes_match(self, net: Network) -> bool:
        """Whether both ends of the input box and of every layer have
        ``net``'s widths."""
        widths = (net.input_dim, *(layer.width for layer in net.layers))
        intervals = self._intervals
        return len(intervals) == len(widths) and all(
            lo.shape == hi.shape == (w,) for (lo, hi), w in zip(intervals, widths))

    def allclose(self, other: "BoundsMap", tol: float = 0.0) -> bool:
        """Whether ``other`` has the same depth and shapes and every bound
        within ``tol`` of this map's."""
        mine, theirs = self._intervals, other._intervals
        return len(mine) == len(theirs) and all(
            a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol
            for pair, other_pair in zip(mine, theirs)
            for a, b in zip(pair, other_pair))


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


def box_propagate(net: Network, lo, hi) -> BoundsMap:
    """Push the input box ``[lo, hi]`` through the network layer by layer.

    A query's box pins its fixed attributes and spans the domain for its free
    ones.  Hidden layers apply the affine map then clip at zero; the output
    layer stays affine.  The map holds copies of ``lo`` and ``hi``.
    """
    input_lo, input_hi = np.array(lo, np.float64), np.array(hi, np.float64)
    if input_lo.shape != (net.input_dim,) or input_hi.shape != input_lo.shape:
        raise ValueError(f"box of shapes {input_lo.shape}, {input_hi.shape} "
                         f"for {net.input_dim} inputs")
    if not (input_lo <= input_hi).all():
        i = int(np.argmin(input_lo <= input_hi))
        raise ValueError(f"attribute {i}: lower end {input_lo[i]} above upper "
                         f"end {input_hi[i]}")
    lo, hi = input_lo, input_hi
    layers = []
    for layer in net.layers:
        zl, zh = _affine_box(layer.weights, layer.biases, lo, hi)
        layers.append((zl, zh))
        lo, hi = np.maximum(zl, 0.0), np.maximum(zh, 0.0)
    return BoundsMap.of_layers(input_lo, input_hi, layers)


def shortcut_check(bounds: BoundsMap, target: int) -> ShortcutResult:
    """Removable iff the target output's lower bound beats every rival
    output's upper bound by more than ``FEAS_TOL``, the cutoff of a rival
    query's margin: a closer call falls through to the solver, which may
    accept a witness within that tolerance."""
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
