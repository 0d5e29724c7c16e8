"""Linear-constraint encoding of ReLU networks with indicator binaries.

Every hidden neuron with pre-activation bounds [lb, ub] straddling zero gets
one binary z and three rows:

    post - w.prev - lb*z <= b - lb      (upper side, active branch)
    post - w.prev       >= b            (lower side)
    post - ub*z         <= 0            (upper side, indicator)

together with the variable bound post >= 0.  A neuron whose bounds prove it
always active (lb > 0) collapses to the plain affine equality and drops the
binary; always-inactive (ub <= 0) collapses to post = 0, carried as the
variable bounds [0, 0].  Output neurons are affine equalities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .box import BoundsMap
from .model import Network
from .simplex import EQ, GE, LE, Basis, LpProblem, _replace_unchecked, crash_basis

logger = logging.getLogger(__name__)

MODE_SPLIT = "split"
MODE_ACTIVE = "active"
MODE_INACTIVE = "inactive"


@dataclass(frozen=True)
class NeuronBlock:
    """Bookkeeping for one hidden neuron's variables, rows and bounds."""

    layer: int  # 0-based hidden layer
    index: int
    post_var: int
    z_var: Optional[int]
    mode: str  # split | active | inactive
    pre_lb: float
    pre_ub: float
    constraint_ids: tuple

    @property
    def pre_row(self) -> int:
        """The row that reads the pre-activation, post - w.prev REL b: the
        equality of an active neuron, the lower side of a split one."""
        return self.constraint_ids[1 if self.mode == MODE_SPLIT else 0]

    @property
    def upper_rows(self) -> tuple:
        """The two upper-side rows of a split neuron, post <= pre - l (1 - z)
        and post <= u z; none for a stable one."""
        return self.constraint_ids[::2] if self.mode == MODE_SPLIT else ()


class BlockArrays(NamedTuple):
    """An encoding's input vids and, per split neuron in block order, its
    binary's vid ``z``, its two upper-side rows ``upper`` and ``gap``, the
    widest gap its triangle relaxation leaves above the ReLU, ``-l u / (u -
    l)`` for its big-M constants ``l < 0 < u``: what branch and bound reads
    of the blocks.  Blocks are layer-major and number their binaries in that
    order, so the z vids ascend."""

    inputs: np.ndarray
    z: np.ndarray
    upper: np.ndarray
    gap: np.ndarray


def _block_arrays(blocks: tuple, input_vids: tuple) -> BlockArrays:
    split = [block for block in blocks if block.mode == MODE_SPLIT]
    lo = np.array([block.pre_lb for block in split])
    hi = np.array([block.pre_ub for block in split])
    return BlockArrays(np.array(input_vids, dtype=int),
                       np.array([block.z_var for block in split], dtype=int),
                       np.array([block.upper_rows for block in split], dtype=int),
                       -lo * hi / (hi - lo))


@dataclass(frozen=True)
class SimplificationStats:
    """Counters behind the bounds-tightened / binaries-removed percentages."""

    bounds_tightened_count: int
    binary_removed_count: int


@dataclass(frozen=True)
class MilpProblem:
    """Encoded problem: its LP relaxation as arrays, with the binary columns
    tagged in ``lp.binaries``, plus per-neuron bookkeeping.

    Transformations return new values.  The arrays are read-only because one
    base problem is shared by every instance (and thread) an ``Explainer``
    serves; unchanged arrays are shared between a problem and its edits.

    ``searched`` holds what is built once per encoding, on first use, for
    every later use to share: the blocks as arrays (``arrays``, under
    ``"arrays"``) and the rows the LP core prepared for the first search
    (under ``"rows"``; ``prepare`` checks them against each search's own
    before use).  The edits that keep the rows and blocks
    (``fix_attributes``, ``attach_rival_query``) carry it through
    ``replace``.  An entry, once stored, never changes.
    """

    lp: LpProblem  # zero c, or a rival query's margin; column j is vid j
    blocks: tuple  # NeuronBlock per encoded hidden neuron, layer-major
    input_vids: tuple
    output_vids: tuple
    # the output rows, one per output in order, start here
    output_row: int
    searched: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for arr in (self.lp.a, self.lp.rhs, self.lp.lb, self.lp.ub, self.lp.c):
            arr.setflags(write=False)

    @property
    def arrays(self) -> BlockArrays:
        arrays = self.searched.get("arrays")
        if arrays is None:
            # one call, so of threads racing here the first to store wins
            arrays = self.searched.setdefault(
                "arrays", _block_arrays(self.blocks, self.input_vids))
        return arrays

    @property
    def binary_vids(self) -> tuple:
        return self.lp.binaries


_ROW_COUNT = {MODE_INACTIVE: 0, MODE_ACTIVE: 1, MODE_SPLIT: 3}


def _mode(lb: float, ub: float) -> str:
    if ub <= 0.0:
        return MODE_INACTIVE
    return MODE_ACTIVE if lb > 0.0 else MODE_SPLIT


def _encode(layers: tuple, input_dim: int, bounds: BoundsMap) -> MilpProblem:
    """The encoding of the network ``layers`` over ``input_dim`` inputs:
    every layer but the last is ReLU, and the last is the affine output
    layer, one equality row per output.

    Layer ``l``'s pre-activations are bounded by ``bounds.layers[l]``:
    big-M constants for a hidden layer, column bounds for the outputs.  Vids
    number the inputs, each hidden layer's posts and the outputs in order,
    then the binaries.
    """
    lo, hi = zip(*bounds.layers)
    *hidden, out_layer = layers
    # edges[l]:edges[l + 1] are the columns feeding layer l, and the last two
    # edges span the outputs
    edges = np.cumsum([0, input_dim, *(layer.width for layer in layers)]).tolist()
    n_struct = edges[-1]
    modes = [[_mode(float(a), float(b)) for a, b in zip(lo[l], hi[l])]
             for l in range(len(hidden))]
    n_binaries = sum(m.count(MODE_SPLIT) for m in modes)
    n_rows = sum(_ROW_COUNT[m] for layer_modes in modes for m in layer_modes)
    n_rows += out_layer.width

    n_cols = n_struct + n_binaries
    a = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    rel: list[str] = []
    lb = np.zeros(n_cols)
    ub = np.zeros(n_cols)
    ub[n_struct:] = 1.0
    lb[:input_dim], ub[:input_dim] = bounds.input_lo, bounds.input_hi
    out = slice(edges[-2], n_struct)
    lb[out], ub[out] = lo[len(hidden)], hi[len(hidden)]

    # "0.0 - w" keeps a zero weight's coefficient at +0.0, the value of an
    # absent term
    blocks: list[NeuronBlock] = []
    row = 0
    next_z = n_struct
    for l, layer in enumerate(hidden):
        prev = slice(edges[l], edges[l + 1])
        for j, mode in enumerate(modes[l]):
            vid = edges[l + 1] + j
            pre_lb = float(lo[l][j])
            pre_ub = float(hi[l][j])
            b = float(layer.biases[j])
            z_var = None
            if mode == MODE_INACTIVE:
                ub[vid] = 0.0
            elif mode == MODE_ACTIVE:
                lb[vid], ub[vid] = pre_lb, pre_ub
                a[row, prev] = 0.0 - layer.weights[j]
                a[row, vid] = 1.0
                rel.append(EQ)
                rhs[row] = b
            else:
                z_var = next_z
                next_z += 1
                ub[vid] = pre_ub
                a[row:row + 2, prev] = 0.0 - layer.weights[j]
                a[row:row + 3, vid] = 1.0
                a[row, z_var] = -pre_lb
                a[row + 2, z_var] = -pre_ub
                rel.extend((LE, GE, LE))
                rhs[row:row + 2] = b - pre_lb, b
            count = _ROW_COUNT[mode]
            blocks.append(NeuronBlock(l, j, vid, z_var, mode, pre_lb, pre_ub,
                                      tuple(range(row, row + count))))
            row += count

    a[row:, edges[-3]:edges[-2]] = 0.0 - out_layer.weights
    a[row:, out] = np.eye(out_layer.width)
    rel.extend((EQ,) * out_layer.width)
    rhs[row:] = out_layer.biases

    lp = LpProblem(a, tuple(rel), rhs, lb, ub, np.zeros(n_cols),
                   tuple(range(n_struct, n_cols)))
    return MilpProblem(lp, tuple(blocks), tuple(range(input_dim)),
                       tuple(range(edges[-2], n_struct)), row)


def encode_network(net: Network, bounds: BoundsMap) -> MilpProblem:
    """Encode the whole network using ``bounds`` for big-M constants.

    Neurons already stable under these bounds are emitted simplified, without
    a binary.
    """
    return encode_prefix(net, bounds, len(net.hidden_layers))


def encode_prefix(net: Network, bounds: BoundsMap, layer: int) -> MilpProblem:
    """Encode the network's first ``layer + 1`` layers, with layer ``layer``
    read as the affine output layer: the search space for optimizing that
    layer's pre-activations, which are the prefix's outputs.

    The outputs are bounded by layer ``layer``'s entries in ``bounds``;
    entries past that layer are never read, so a partially proven map is
    fine.
    """
    if not bounds.shapes_match(net):
        raise ValueError("bounds map does not match network shape")
    return _encode(net.layers[:layer + 1], net.input_dim, bounds)


def forward_point(problem: MilpProblem, inputs: np.ndarray) -> np.ndarray:
    """The point a forward pass through ``problem``'s rows gives from the
    input values ``inputs``.

    Block by block, layer-major, each pre-activation is read from the
    block's ``pre_row`` with its post and z still at 0.  An active neuron's
    post is its pre-activation; a split neuron's is max(pre, 0), with z = 1
    iff pre > 0.  The outputs are read from their rows; every other column
    (an inactive post, a split neuron's z when pre <= 0) stays 0.  The point
    satisfies the blocks' and outputs' rows up to rounding when ``inputs``
    lie within the bounds the encoding was built from; rows and bounds are
    not checked.
    """
    lp = problem.lp
    x = np.zeros(lp.a.shape[1])
    x[problem.arrays.inputs] = inputs
    for block in problem.blocks:  # layer-major: each block's inputs are set
        if block.mode == MODE_INACTIVE:
            continue
        r = block.pre_row
        pre = float(lp.rhs[r] - lp.a[r] @ x)
        if block.mode == MODE_ACTIVE:
            x[block.post_var] = pre
        elif pre > 0.0:
            x[block.post_var] = pre
            x[block.z_var] = 1.0
    first = problem.output_row
    rows = slice(first, first + len(problem.output_vids))
    x[list(problem.output_vids)] = lp.rhs[rows] - lp.a[rows] @ x
    return x


def forward_basis(problem: MilpProblem) -> Basis:
    """A starting basis that a forward pass through ``problem``'s rows gives.

    The pass (``forward_point``) starts from the inputs at their lower
    bounds, so a pinned attribute at its value.  A split neuron with pre > 0
    has z at 1 and its post basic in the lower-side row, the two upper-side
    rows keeping their slacks; with pre <= 0 it has z at 0 and its post
    basic in the indicator row, the other two rows keeping their slacks.
    An active neuron's post is basic in its equality, each output in its own
    row, and every other row keeps its slack.  Layer by layer the basis
    matrix is triangular with unit diagonal blocks, so it is nonsingular,
    and its basic solution is the forward pass: primal feasible for an
    encoding, up to rounding.
    """
    lp = problem.lp
    inputs = problem.arrays.inputs
    lo = lp.lb[inputs]
    x = forward_point(problem, np.where(np.isfinite(lo), lo, lp.ub[inputs]))
    basic = np.full(lp.a.shape[0], -1)
    upper = []
    for block in problem.blocks:
        if block.mode == MODE_INACTIVE:
            continue
        if block.mode == MODE_SPLIT and x[block.z_var] == 0.0:
            basic[block.constraint_ids[2]] = block.post_var
        else:
            basic[block.pre_row] = block.post_var
            if block.z_var is not None:
                upper.append(block.z_var)
    first = problem.output_row
    basic[first:first + len(problem.output_vids)] = problem.output_vids
    return crash_basis(lp, basic, upper)


def attach_rival_query(problem: MilpProblem, target: int, rival: int) -> MilpProblem:
    """Set the cost to the margin ``o_target - o_rival``, keeping every row
    array: a point of cost at most ``FEAS_TOL`` (``solve_feasibility``) is
    an input where the rival scores at least the target, up to that
    tolerance (ties count)."""
    k = len(problem.output_vids)
    if not (0 <= target < k and 0 <= rival < k):
        raise ValueError(f"class index out of range for {k} outputs")
    if target == rival:
        raise ValueError("target and rival must differ")
    c = np.zeros(problem.lp.a.shape[1])
    c[problem.output_vids[target]] = 1.0
    c[problem.output_vids[rival]] = -1.0
    return replace(problem, lp=_replace_unchecked(problem.lp, c=c))


def fix_attributes(problem: MilpProblem, lo, hi) -> MilpProblem:
    """Set the input columns' bounds to the box ``[lo, hi]``, which must lie
    within them: a fixed attribute is pinned at ``lo == hi``."""
    vids = list(problem.input_vids)
    lo, hi = np.asarray(lo, np.float64), np.asarray(hi, np.float64)
    if lo.shape != (len(vids),) or hi.shape != lo.shape:
        raise ValueError(f"box of shapes {lo.shape}, {hi.shape} for "
                         f"{len(vids)} inputs")
    lb, ub = problem.lp.lb.copy(), problem.lp.ub.copy()
    inside = (lb[vids] <= lo) & (lo <= hi) & (hi <= ub[vids])
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"attribute {i}: box [{lo[i]}, {hi[i]}] outside "
                         f"bounds [{lb[vids[i]]}, {ub[vids[i]]}]")
    lb[vids], ub[vids] = lo, hi
    return replace(problem, lp=_replace_unchecked(problem.lp, lb=lb, ub=ub))


def merge_bounds(tight: BoundsMap, boxed: BoundsMap) -> BoundsMap:
    """Intersect tight (domain-wide) with boxed (query-specific) bounds.

    Per neuron the merge keeps the larger lower and the smaller upper bound.
    An inverted result (possible only through float noise, or disjoint inputs)
    reverts to the tight bound for that neuron.  The input box is boxed's.
    """
    layers = []
    for (t_lo, t_hi), (b_lo, b_hi) in zip(tight.layers, boxed.layers, strict=True):
        m_lo = np.maximum(t_lo, b_lo)
        m_hi = np.minimum(t_hi, b_hi)
        bad = m_lo > m_hi
        if bad.any():
            if (m_lo - m_hi > 1e-9).any():
                logger.warning(
                    "merged bounds disjoint beyond noise for %d neuron(s); "
                    "reverting to tight bounds", int((m_lo - m_hi > 1e-9).sum()))
            m_lo = np.where(bad, t_lo, m_lo)
            m_hi = np.where(bad, t_hi, m_hi)
        layers.append((m_lo, m_hi))
    return BoundsMap.of_layers(boxed.input_lo, boxed.input_hi, layers)


def tighten_and_simplify(net: Network, tight: BoundsMap, merged: BoundsMap
                         ) -> tuple[MilpProblem, SimplificationStats]:
    """Encode ``net`` afresh from ``merged``, what ``merge_bounds(tight,
    boxed)`` returns.

    Big-M constants take the merged values; a hidden neuron with merged
    lb > 0 becomes the affine equality, merged ub <= 0 becomes post = 0, and
    either way its binary disappears.  The inputs carry boxed's bounds, so
    the attributes its query box fixes are pinned.  Stats count the neurons
    whose merged interval is strictly narrower than the tight one, and the
    binaries absent from the result.
    """
    problem = encode_network(net, merged)
    tightened = sum(
        int(np.count_nonzero((m_lo > t_lo) | (m_hi < t_hi)))
        for (t_lo, t_hi), (m_lo, m_hi) in zip(tight.layers, merged.layers))
    stats = SimplificationStats(
        bounds_tightened_count=tightened,
        binary_removed_count=net.num_hidden_neurons - len(problem.binary_vids),
    )
    return problem, stats
