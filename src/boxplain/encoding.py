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
from dataclasses import dataclass, replace
from typing import Optional

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
    """

    lp: LpProblem  # objective-free (sense "feas"); column j is vid j
    blocks: tuple  # NeuronBlock per encoded hidden neuron, layer-major
    input_vids: tuple
    output_vids: tuple
    # a full encoding's output rows, one per output in order, start here;
    # a prefix (or a problem built by hand) has none
    output_row: Optional[int] = None

    def __post_init__(self):
        for arr in (self.lp.a, self.lp.rhs, self.lp.lb, self.lp.ub, self.lp.c):
            arr.setflags(write=False)

    @property
    def binary_vids(self) -> tuple:
        return self.lp.binaries


def _structural_layout(net: Network) -> tuple[tuple, tuple, tuple]:
    """Fixed vids for inputs, hidden posts (one range per layer) and outputs,
    independent of which neurons carry a binary.  Binaries always number
    after the structural vars."""
    post_vids = []
    vid = net.input_dim
    for width in net.hidden_widths:
        post_vids.append(range(vid, vid + width))
        vid += width
    input_vids = tuple(range(net.input_dim))
    output_vids = tuple(range(vid, vid + net.class_count))
    return tuple(post_vids), input_vids, output_vids


_ROW_COUNT = {MODE_INACTIVE: 0, MODE_ACTIVE: 1, MODE_SPLIT: 3}


def _mode(lb: float, ub: float) -> str:
    if ub <= 0.0:
        return MODE_INACTIVE
    return MODE_ACTIVE if lb > 0.0 else MODE_SPLIT


def _encode(net: Network, bounds: BoundsMap,
            hidden_scope: Optional[int] = None) -> MilpProblem:
    """Shared encoder.  A ``hidden_scope`` makes a prefix problem for bound
    optimization: only that many hidden layers get rows (later posts and the
    outputs stay as inert variables pinned at 0) and the output rows are
    dropped entirely."""
    if not bounds.shapes_match(net):
        raise ValueError("bounds map does not match network shape")
    full = hidden_scope is None
    if full:
        hidden_scope = len(net.hidden_layers)
    post_vids, input_vids, output_vids = _structural_layout(net)
    n_struct = net.input_dim + net.num_hidden_neurons + net.class_count
    layers = net.hidden_layers[:hidden_scope]
    modes = [[_mode(float(lo), float(hi))
              for lo, hi in zip(bounds.pre_lo[l], bounds.pre_hi[l])]
             for l in range(hidden_scope)]
    n_binaries = sum(m.count(MODE_SPLIT) for m in modes)
    n_rows = sum(_ROW_COUNT[m] for layer_modes in modes for m in layer_modes)
    if full:
        n_rows += net.class_count

    n_cols = n_struct + n_binaries
    a = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    rel: list[str] = []
    lb = np.zeros(n_cols)
    ub = np.zeros(n_cols)  # columns past the hidden scope stay [0, 0]
    ub[n_struct:] = 1.0
    lb[:net.input_dim], ub[:net.input_dim] = bounds.input_lo, bounds.input_hi
    out = slice(n_struct - net.class_count, n_struct)
    if full:
        lb[out], ub[out] = bounds.out_lo, bounds.out_hi

    # columns feeding each layer: the inputs, then each hidden layer's posts
    feeds = [slice(0, net.input_dim)] + [slice(r.start, r.stop) for r in post_vids]
    # "0.0 - w" keeps a zero weight's coefficient at +0.0, the value of an
    # absent term
    blocks: list[NeuronBlock] = []
    row = 0
    next_z = n_struct
    for l, layer in enumerate(layers):
        prev = feeds[l]
        for j, mode in enumerate(modes[l]):
            vid = post_vids[l][j]
            pre_lb = float(bounds.pre_lo[l][j])
            pre_ub = float(bounds.pre_hi[l][j])
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

    output_row = row if full else None
    if full:
        out_layer = net.layers[-1]
        for j in range(out_layer.width):
            a[row, feeds[-1]] = 0.0 - out_layer.weights[j]
            a[row, output_vids[j]] = 1.0
            rel.append(EQ)
            rhs[row] = float(out_layer.biases[j])
            row += 1

    lp = LpProblem(a, tuple(rel), rhs, lb, ub, np.zeros(n_cols), "feas",
                   tuple(range(n_struct, n_cols)))
    return MilpProblem(lp, tuple(blocks), input_vids, output_vids, output_row)


def encode_network(net: Network, bounds: BoundsMap) -> MilpProblem:
    """Encode the whole network using ``bounds`` for big-M constants.

    Neurons already stable under these bounds are emitted simplified, without
    a binary.
    """
    return _encode(net, bounds)


def encode_prefix(net: Network, bounds: BoundsMap, upto_layer: int) -> MilpProblem:
    """Encode only hidden layers 0..upto_layer-1, with no output rows.

    Bounds entries for layers at or past ``upto_layer`` are never read, so a
    partially filled map is fine: the posts of those layers and the outputs
    are pinned at 0, and no row mentions them.  The result is the search
    space for optimizing layer ``upto_layer``'s pre-activations (an affine
    objective over the previous layer's post variables, or the inputs when
    ``upto_layer`` is 0).
    """
    return _encode(net, bounds, hidden_scope=upto_layer)


def forward_point(problem: MilpProblem, inputs: np.ndarray) -> np.ndarray:
    """The point a forward pass through ``problem``'s rows gives from the
    input values ``inputs``.

    Block by block, layer-major, each pre-activation is read from the
    block's ``pre_row`` with its post and z still at 0.  An active neuron's
    post is its pre-activation; a split neuron's is max(pre, 0), with z = 1
    iff pre > 0.  A full encoding's outputs are read from their rows; every
    other column (an inactive post, anything past a prefix's scope, any
    column of a problem without blocks) stays 0.  The point satisfies the
    blocks' and outputs' rows up to rounding when ``inputs`` lie within the
    bounds the encoding was built from; rows and bounds are not checked.
    """
    lp = problem.lp
    x = np.zeros(lp.a.shape[1])
    x[list(problem.input_vids)] = inputs
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
    if first is not None:
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
    row, and every other row (a rival query's, or any row of a problem
    without blocks) keeps its slack.  Layer by layer the basis matrix is
    triangular with unit diagonal blocks, so it is nonsingular, and its
    basic solution is the forward pass: primal feasible for a prefix or a
    plain encoding, up to rounding, and off only in its rival row for a
    rival query.
    """
    lp = problem.lp
    inputs = list(problem.input_vids)
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
    if first is not None:
        basic[first:first + len(problem.output_vids)] = problem.output_vids
    return crash_basis(lp, basic, upper)


def attach_rival_query(problem: MilpProblem, target: int, rival: int) -> MilpProblem:
    """Append ``o_rival - o_target >= 0``: feasibility then witnesses an input
    where the rival scores at least the target (ties count)."""
    k = len(problem.output_vids)
    if not (0 <= target < k and 0 <= rival < k):
        raise ValueError(f"class index out of range for {k} outputs")
    if target == rival:
        raise ValueError("target and rival must differ")
    lp = problem.lp
    row = np.zeros(lp.a.shape[1])
    row[problem.output_vids[rival]] = 1.0
    row[problem.output_vids[target]] = -1.0
    return replace(problem, lp=_replace_unchecked(lp, a=np.vstack([lp.a, row]),
                                                  rel=lp.rel + (GE,),
                                                  rhs=np.append(lp.rhs, 0.0)))


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


def merge_bounds(tight: BoundsMap, boxed: BoundsMap) -> tuple[BoundsMap, int]:
    """Intersect tight (domain-wide) with boxed (query-specific) bounds.

    Per neuron the merge keeps the larger lower and the smaller upper bound.
    An inverted result (possible only through float noise, or disjoint inputs)
    reverts to the tight bound for that neuron.  Returns the merged map and
    the number of neurons whose interval got strictly narrower.
    """
    tightened = 0

    def merge_pair(t_lo, t_hi, b_lo, b_hi):
        nonlocal tightened
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
        narrower = (~bad) & ((m_lo > t_lo) | (m_hi < t_hi))
        tightened += int(narrower.sum())
        return m_lo, m_hi

    pre_lo, pre_hi = [], []
    for l in range(tight.num_hidden_layers):
        m_lo, m_hi = merge_pair(tight.pre_lo[l], tight.pre_hi[l],
                                boxed.pre_lo[l], boxed.pre_hi[l])
        pre_lo.append(m_lo)
        pre_hi.append(m_hi)
    out_lo, out_hi = merge_pair(tight.out_lo, tight.out_hi,
                                boxed.out_lo, boxed.out_hi)
    merged = BoundsMap(boxed.input_lo, boxed.input_hi, tuple(pre_lo),
                       tuple(pre_hi), out_lo, out_hi)
    return merged, tightened


def tighten_and_simplify(net: Network, merged: tuple[BoundsMap, int]
                         ) -> tuple[MilpProblem, SimplificationStats]:
    """Encode ``net`` afresh from ``merged``, what ``merge_bounds(tight,
    boxed)`` returns: the merged map and its count of narrowed neurons.

    Big-M constants take the merged values; a hidden neuron with merged
    lb > 0 becomes the affine equality, merged ub <= 0 becomes post = 0, and
    either way its binary disappears.  The inputs carry boxed's bounds, so
    the attributes its query box fixes are pinned.  Stats count strictly
    narrowed neurons and binaries absent from the result.
    """
    bounds, tightened = merged
    problem = _encode(net, bounds)
    stats = SimplificationStats(
        bounds_tightened_count=tightened,
        binary_removed_count=net.num_hidden_neurons - len(problem.binary_vids),
    )
    return problem, stats
