"""Minimal sufficient-attribute explanations for network predictions.

Two modes share one deletion loop over the input attributes.  The baseline
consults the solver for every attribute against the original tight bounds,
querying the rivals in index order.  The improved mode first propagates
the query's input box: when the target output provably dominates, the
attribute drops without a solver call.  Otherwise it tries to falsify the
candidate with a forward pass over ``FALSIFY_SAMPLES`` points of that box: a
point that puts a rival at or above the target is a counterexample the
solver would also find, so the attribute is kept without a solver call.
Next the box bounds are merged with the tight ones, and a back-substituted
bound on each margin ``o_target - o_rival`` over the query's input box
proves the rivals it can: when it proves them all, the attribute drops
without a solver call.  The rivals left open get a second falsification
attempt, sign-gradient steps from the best sampled points, which keeps the
attribute on a counterexample as before.  Only then is the network encoded
afresh from the merged bounds, and the solver queries the open rivals in
descending order of their box upper bound.  Bounds always revert to the
originals between attributes, so every iteration starts from the same
tight bounds.
"""

from __future__ import annotations

import enum
import logging
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
# numpy loads its random module on first use, which would land in the first
# explanation's time
from numpy.random import default_rng

from .box import (BoundsMap, ShortcutResult, box_propagate,
                  margin_lower_bounds, shortcut_check)
from .bnb import (DEFAULT_BACKEND, INFEASIBLE, OPTIMAL, UNKNOWN, MilpOutcome,
                  SolverBackend)
from .encoding import (MilpProblem, attach_rival_query, encode_network,
                       encode_prefix, fix_attributes, forward_point,
                       merge_bounds, tighten_and_simplify)
from .model import (InputDomain, Network, _real_type, batch_outputs,
                    batch_pre_activations, forward)
from .simplex import FEAS_TOL, SolverFailure

logger = logging.getLogger(__name__)

MODE_BASELINE = "baseline"
MODE_IMPROVED = "improved"

TIGHT_MILP = "milp"
TIGHT_BOX = "box"

# uniform points of the query's input box tried before the margin bound
FALSIFY_SAMPLES = 128
# the sampled points with the largest rival margin, from which the
# sign-gradient ascent starts once the margin bound leaves a rival open
ASCENT_STARTS = 4
# at most this many ascent steps, each this fraction of the box's width
ASCENT_STEPS = 10
ASCENT_STEP = 0.1


class InstanceError(ValueError):
    """The instance itself cannot be explained: it has the wrong shape, lies
    outside the input domain, or its prediction is an exact tie."""


class PredictionTieError(InstanceError):
    """The instance's top two outputs are exactly equal; there is no unique
    predicted class to explain."""


class Decision(enum.Enum):
    REMOVED_BY_BOX = "RemovedByBox"
    REMOVED_BY_MARGIN = "RemovedByMargin"
    REMOVED_BY_SOLVER = "RemovedBySolver"
    KEPT_BY_SOLVER = "KeptBySolver"
    KEPT_BY_COUNTEREXAMPLE = "KeptByCounterexample"
    KEPT_BY_TIMEOUT = "KeptByTimeout"


@dataclass(frozen=True)
class Explanation:
    """Attributes that, held at their instance values, force the prediction."""

    kept: tuple  # ((attribute index, value), ...) in iteration order
    decisions: dict  # attribute index -> Decision
    target: int

    @property
    def kept_indices(self) -> tuple:
        return tuple(i for i, _ in self.kept)


@dataclass(frozen=True)
class ExplainStats:
    """Run counters, every one a sum, so that runs pool field by field.

    The ``*_count`` fields accumulate over solver-bound improved iterations
    only (each neuron or binary is counted once per such iteration); the
    ``*_pct`` properties are ratios of those counts, 0 when the solver was
    never needed.  An iteration that a forward-pass counterexample or the
    margin bound decides never encodes, so it is not among them.
    ``counterexample_hits`` counts attributes kept on a forward-pass
    counterexample, sampled or gradient-stepped.  ``margin_hits`` counts
    attributes the margin bound removed, and ``margin_rivals_skipped`` the
    rival queries it made unnecessary, in those iterations and in the ones
    that went on to the solver; an iteration the gradient steps decide makes
    no rival query, so it adds nothing.  ``solver_nodes`` and
    ``lp_iterations`` sum the branch-and-bound nodes and simplex iterations
    of every rival query (``MilpOutcome``).
    """

    total_time: float
    solver_time: float
    solver_calls: int
    box_shortcut_hits: int
    counterexample_hits: int
    margin_hits: int
    margin_rivals_skipped: int
    timeouts: int
    tightened_count: int
    neurons_counted: int
    removed_before_count: int
    removed_ours_count: int
    binaries_counted: int
    solver_nodes: int = 0
    lp_iterations: int = 0

    @classmethod
    def pooled(cls, runs) -> "ExplainStats":
        """The field-wise sums of several runs' stats."""
        return cls(*(sum(getattr(s, f.name) for s in runs) for f in fields(cls)))

    @property
    def bounds_tightened_pct(self) -> float:
        return _pct(self.tightened_count, self.neurons_counted)

    @property
    def bin_vars_removed_before_pct(self) -> float:
        return _pct(self.removed_before_count, self.binaries_counted)

    @property
    def bin_vars_removed_ours_pct(self) -> float:
        return _pct(self.removed_ours_count, self.binaries_counted)


@dataclass(frozen=True)
class EngineConfig:
    """How an ``Explainer`` runs.  ``order`` is the attribute order of the
    deletion loop, a permutation of the attribute indices, or None for
    index order; the ``Explainer`` checks it against its network
    (``attribute_order``).  ``time_budget_ms``, the budget of each solver
    query, is a positive finite real number (not a bool) or None for no
    budget."""

    tight_bounds_mode: str = TIGHT_MILP
    order: Optional[tuple] = None
    time_budget_ms: Optional[float] = None
    backend: SolverBackend = DEFAULT_BACKEND

    def __post_init__(self):
        budget = self.time_budget_ms
        if budget is not None and not (_real_type(type(budget)) and 0.0 < budget < np.inf):
            raise ValueError(f"time budget must be a positive finite number "
                             f"of milliseconds, got {budget!r}")


def compute_tight_bounds(net: Network, domain: InputDomain,
                         mode: str = TIGHT_MILP,
                         backend: SolverBackend = DEFAULT_BACKEND) -> BoundsMap:
    """Per-neuron bounds over the whole input domain.

    ``milp`` optimizes each pre-activation exactly, layer by layer: layer
    ``l``'s bounds are the minimum of each output of its prefix
    (``encode_prefix``) and the negated minimum of its negation; the
    prefix's big-M constants are the bounds already proven for earlier
    layers.  Layer 0 sees only the input box, over which interval
    propagation is already exact (up to rounding), so it takes the box
    bounds without a solve.
    Every solved neuron and end (min or max) logs one DEBUG line on this
    module's logger: layer (the output layer numbers after the hidden ones),
    neuron, B&B nodes, LP iterations, seconds, and whether the optimum is a
    forward-pass incumbent or an LP leaf.  A bound MILP that is not optimal
    raises ``SolverFailure`` naming its end.  ``box`` falls back to plain
    interval propagation.
    """
    bounds = box_propagate(net, domain.lows, domain.highs)
    if mode == TIGHT_BOX:
        return bounds
    if mode != TIGHT_MILP:
        raise ValueError(f"unknown tight-bounds mode {mode!r}")

    layers = list(bounds.layers)
    # each proven layer replaces its box bounds, which bound the outputs of
    # its own prefix and are read by no earlier one; a hidden layer 0 keeps
    # them
    for l in range(min(1, len(layers) - 1), len(layers)):
        prefix = encode_prefix(net, bounds, l)
        width = len(prefix.output_vids)
        lo, hi = np.zeros(width), np.zeros(width)
        for j, vid in enumerate(prefix.output_vids):
            for end, sign, found in (("min", 1.0, lo), ("max", -1.0, hi)):
                start = time.perf_counter()
                out = backend.optimize(prefix, {vid: sign})
                seconds = time.perf_counter() - start
                if out.status != OPTIMAL:
                    raise SolverFailure(
                        f"bound optimization failed: {end} {out.status}")
                found[j] = sign * out.value
                if logger.isEnabledFor(logging.DEBUG):
                    # an incumbent from the forward pass is exactly the
                    # forward point of its own inputs; an LP leaf is not
                    inputs = out.point[list(prefix.input_vids)]
                    forward = np.array_equal(forward_point(prefix, inputs),
                                             out.point)
                    logger.debug(
                        "tight %s layer %d neuron %d: %d nodes, %d LP "
                        "iterations, %.6f s, %s", end, l, j, out.node_count,
                        out.lp_iterations, seconds,
                        "forward-pass incumbent" if forward else "LP leaf")
        layers[l] = (lo, hi)
        bounds = BoundsMap.of_layers(bounds.input_lo, bounds.input_hi, layers)
    return bounds


def attribute_order(order: Optional[tuple], n: int) -> tuple:
    """``order`` as a tuple of attribute indices, index order for None;
    ValueError unless its entries equal a permutation of ``0..n-1``, so an
    entry that is not an integer value is rejected, not truncated, and
    unless none is a bool, which would compare equal to 0 or 1."""
    resolved = tuple(range(n)) if order is None else tuple(order)
    if any(isinstance(i, (bool, np.bool_)) for i in resolved) \
            or sorted(resolved) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    return tuple(int(i) for i in resolved)


def is_entailed(problem: MilpProblem, target: int, *,
                backend: SolverBackend = DEFAULT_BACKEND,
                time_budget_ms: Optional[float] = None,
                outcomes: Optional[list] = None,
                rivals: Optional[tuple] = None,
                roots: Optional[list] = None):
    """Check that the target class wins for every point feasible in ``problem``.

    ``problem`` must already have its attributes fixed.  Runs one rival
    query (``attach_rival_query``, ``backend.feasibility``) per class in
    ``rivals``, the distinct non-target classes still to decide (every class
    but the target, in index order, by default), in that order, stopping at
    the first counterexample, and appends each query's ``MilpOutcome`` to
    ``outcomes`` when given.  An optimal outcome is a counterexample, an
    infeasible one proves its rival cannot win.  ``roots`` is a one-slot
    holder ``[rows, basis]``: a query whose ``lp.a`` is ``rows`` starts its
    root from ``basis``, and every query whose root ends optimal leaves its
    rows and final root basis there.  Returns ``(True, None)`` when no
    rival in ``rivals`` can win, ``(False, witness)`` with the
    counterexample's point restricted to ``problem.input_vids``, or
    ``(None, None)`` when a time budget ran out before a decision; any other
    query status raises ``SolverFailure``.
    """
    k = len(problem.output_vids)
    if not 0 <= target < k:
        raise ValueError(f"target class {target} out of range")
    others = [r for r in range(k) if r != target]
    if rivals is None:
        rivals = others
    elif len(set(rivals)) != len(rivals) or not set(rivals) <= set(others):
        raise ValueError(f"rivals must be distinct classes other than {target}")
    for rival in rivals:
        query = attach_rival_query(problem, target, rival)
        start = roots[1] if roots is not None and roots[0] is query.lp.a else None
        outcome = backend.feasibility(query, time_budget_ms=time_budget_ms,
                                      start=start)
        if roots is not None and outcome.basis is not None:
            roots[:] = query.lp.a, outcome.basis
        if outcomes is not None:
            outcomes.append(outcome)
        if outcome.status == OPTIMAL:
            return False, outcome.point[np.array(problem.input_vids, dtype=int)]
        if outcome.status == UNKNOWN:
            return None, None
        if outcome.status != INFEASIBLE:
            raise SolverFailure(f"unexpected solver status {outcome.status!r}")
    return True, None


class Explainer:
    """Shared per-network state: the attribute order, tight bounds and the
    base encoding.

    ``order`` is ``config.order`` resolved once by ``attribute_order``
    (index order for None); one that is not a permutation of the attribute
    indices raises ValueError before any bound is computed.  Immutable once
    constructed, but for one store: the first search over the base
    encoding keeps what every later one shares in
    ``base_problem.searched``, which nothing changes afterwards.  explain()
    keeps its warm starts in each call, so one Explainer can serve many
    instances (and threads) of the same network.
    """

    def __init__(self, net: Network, domain: InputDomain,
                 config: Optional[EngineConfig] = None,
                 tight: Optional[BoundsMap] = None):
        self.net = net
        self.domain = domain
        self.config = config or EngineConfig()
        self.backend = self.config.backend
        self.order = attribute_order(self.config.order, net.input_dim)
        if tight is None:
            tight = compute_tight_bounds(net, domain,
                                         self.config.tight_bounds_mode,
                                         self.backend)
        self.tight = tight
        self.base_problem = encode_network(net, tight)
        # binaries the tight bounds alone remove, counted at encode time
        self.removed_at_encode = net.num_hidden_neurons - \
            len(self.base_problem.binary_vids)

    def explain(self, instance, mode: str = MODE_IMPROVED):
        """Run the deletion loop and return ``(Explanation, ExplainStats)``.

        When attribute i is tested, exactly the attributes already removed
        plus i are freed; everything else stays at its instance value.  An
        instance outside the domain raises InstanceError, and so does an
        exact-tie prediction, as PredictionTieError, since there is no
        unique class to explain.  An instance of another shape than
        ``(input_dim,)`` raises InstanceError naming both shapes.

        Each rival query's root starts from the final root basis of the
        call's last query over the same rows, where there is one
        (``is_entailed``'s ``roots``): in baseline mode every query shares
        the base encoding's rows, in improved mode the rivals of one
        attribute share its encoding's.
        """
        if mode not in (MODE_BASELINE, MODE_IMPROVED):
            raise ValueError(f"unknown mode {mode!r}")
        net = self.net
        instance = np.asarray(instance, dtype=np.float64)
        if instance.shape != (net.input_dim,):
            raise InstanceError(f"instance has shape {instance.shape}, "
                                f"expected ({net.input_dim},)")
        if not self.domain.contains(instance):
            raise InstanceError("instance lies outside the input domain")
        outputs = forward(net, instance).outputs
        target = int(np.argmax(outputs))
        runners_up = np.delete(outputs, target)
        if runners_up.size and outputs[target] == runners_up.max():
            raise PredictionTieError(
                "instance prediction is an exact tie; no unique class to explain")

        start = time.perf_counter()
        outcomes: list[MilpOutcome] = []
        roots: list = [None, None]  # is_entailed's warm start, per call
        attributes = np.arange(net.input_dim)
        removed = np.zeros(net.input_dim, dtype=bool)
        decisions: dict[int, Decision] = {}
        # per solver-bound improved iteration accumulators, and the rival
        # queries the margin bound made unnecessary
        simplified = tightened = removed_ours = rivals_skipped = 0

        for i in self.order:
            lo, hi = _query_box(self.domain, instance, removed | (attributes == i))
            if mode == MODE_IMPROVED:
                boxed = box_propagate(net, lo, hi)
                if shortcut_check(boxed, target) is ShortcutResult.REMOVABLE:
                    removed[i] = True
                    decisions[i] = Decision.REMOVED_BY_BOX
                    continue
                hit, starts = _sampled(net, lo, hi, i, target)
                if hit is not None:
                    decisions[i] = Decision.KEPT_BY_COUNTEREXAMPLE
                    continue
                merged = merge_bounds(self.tight, boxed)
                margins = margin_lower_bounds(net, merged, target)
                # the rivals the margin bound leaves open, the one most
                # likely to win first
                rivals = tuple(sorted((r for r in range(net.class_count)
                                       if r != target and not margins[r] > FEAS_TOL),
                                      key=lambda r: (-boxed.out_hi[r], r)))
                if rivals and _ascended(net, lo, hi, starts, target,
                                        rivals) is not None:
                    decisions[i] = Decision.KEPT_BY_COUNTEREXAMPLE
                    continue
                rivals_skipped += net.class_count - 1 - len(rivals)
                if not rivals:
                    removed[i] = True
                    decisions[i] = Decision.REMOVED_BY_MARGIN
                    continue
                # the simplified problem already pins the fixed attributes
                problem, simp = tighten_and_simplify(net, self.tight, merged)
                simplified += 1
                tightened += simp.bounds_tightened_count
                removed_ours += simp.binary_removed_count
            else:
                problem = fix_attributes(self.base_problem, lo, hi)
                rivals = None
            entailed, _ = is_entailed(problem, target, backend=self.backend,
                                      time_budget_ms=self.config.time_budget_ms,
                                      outcomes=outcomes, rivals=rivals,
                                      roots=roots)
            if entailed is None:
                decisions[i] = Decision.KEPT_BY_TIMEOUT
            elif entailed:
                removed[i] = True
                decisions[i] = Decision.REMOVED_BY_SOLVER
            else:
                decisions[i] = Decision.KEPT_BY_SOLVER

        kept = tuple((i, float(instance[i])) for i in self.order if not removed[i])
        total_time = time.perf_counter() - start
        tally = Counter(decisions.values())
        hidden = net.num_hidden_neurons
        stats = ExplainStats(
            total_time=total_time,
            solver_time=min(sum((o.wall_time for o in outcomes), 0.0), total_time),
            solver_calls=len(outcomes),
            box_shortcut_hits=tally[Decision.REMOVED_BY_BOX],
            counterexample_hits=tally[Decision.KEPT_BY_COUNTEREXAMPLE],
            margin_hits=tally[Decision.REMOVED_BY_MARGIN],
            margin_rivals_skipped=rivals_skipped,
            timeouts=tally[Decision.KEPT_BY_TIMEOUT],
            tightened_count=tightened,
            neurons_counted=simplified * (hidden + net.class_count),
            removed_before_count=simplified * self.removed_at_encode,
            removed_ours_count=removed_ours,
            binaries_counted=simplified * hidden,
            solver_nodes=sum(o.node_count for o in outcomes),
            lp_iterations=sum(o.lp_iterations for o in outcomes),
        )
        return Explanation(kept, decisions, target), stats


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def _query_box(domain: InputDomain, instance: np.ndarray,
               free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The input box of a query: the attributes in the boolean mask
    ``free`` span the domain, the others are pinned at the instance."""
    return (np.where(free, domain.lows, instance),
            np.where(free, domain.highs, instance))


def _beaten(net: Network, point: np.ndarray, target: int) -> bool:
    """Whether an exact forward pass at ``point`` puts a rival at or above
    the target (ties count, as in ``attach_rival_query``).  Such a point
    satisfies the rows of the rival query, whose hidden values follow from
    the inputs, with a margin within its cutoff, so the solver would find a
    counterexample to that query as well."""
    exact = forward(net, point).outputs
    return bool(np.delete(exact, target).max() >= exact[target])


def _sampled(net: Network, lo: np.ndarray, hi: np.ndarray, attribute: int,
             target: int) -> tuple[Optional[np.ndarray], np.ndarray]:
    """A counterexample among ``FALSIFY_SAMPLES`` uniform points of the
    query's input box ``lo``/``hi``, or None, and the ``ASCENT_STARTS``
    points with the largest rival margin, best first.

    The points are drawn from a generator seeded by ``attribute``, so a call
    depends on its arguments alone; the box's pinned attributes are point
    intervals and keep their values.  The batch evaluation only nominates
    the best point, which counts once ``_beaten`` confirms it.
    """
    unit = default_rng(attribute).random((FALSIFY_SAMPLES, lo.size))
    # rounding could carry lo + u * width one ulp past hi
    points = np.minimum(lo + unit * (hi - lo), hi)
    outs = batch_outputs(net, points)
    margins = np.delete(outs, target, axis=1).max(axis=1) - outs[:, target]
    best = np.argsort(-margins, kind="stable")[:ASCENT_STARTS]
    hit = margins[best[0]] >= 0.0 and _beaten(net, points[best[0]], target)
    return (points[best[0]] if hit else None), points[best]


def _ascended(net: Network, lo: np.ndarray, hi: np.ndarray,
              starts: np.ndarray, target: int,
              rivals: tuple) -> Optional[np.ndarray]:
    """A counterexample found by sign-gradient ascent from ``starts``, or
    None (projected gradient steps, Madry et al. 2018).

    Each step moves every point by ``ASCENT_STEP`` of the box's width along
    the sign of the gradient of ``o_rival - o_target`` for its best rival in
    ``rivals``, taken through its ReLU pattern, then clips it to
    ``lo``/``hi``; a pinned attribute has width 0 and never moves.  The
    ascent stops after ``ASCENT_STEPS`` steps, when no point moves or when
    the best margin stops improving.  As in ``_sampled`` the batch only
    nominates a point, which counts once ``_beaten`` confirms it.
    """
    rivals = np.asarray(rivals)
    rows = np.arange(len(starts))
    stride = ASCENT_STEP * (hi - lo)
    points, best = starts, -np.inf
    for step in range(ASCENT_STEPS + 1):
        pre = batch_pre_activations(net, points)
        margins = pre[-1][:, rivals] - pre[-1][:, [target]]
        rival = margins.argmax(axis=1)
        top = margins[rows, rival]
        peak = top.max()
        if peak >= 0.0:
            point = points[top.argmax()]
            return point if _beaten(net, point, target) else None
        if step == ASCENT_STEPS or not peak > best:
            break
        best = peak
        grad = np.zeros_like(pre[-1])
        grad[rows, rivals[rival]] = 1.0
        grad[:, target] = -1.0
        for layer, z in zip(net.layers[:0:-1], pre[-2::-1]):
            grad = (grad @ layer.weights) * (z > 0.0)
        stepped = np.clip(points + stride * np.sign(grad @ net.layers[0].weights),
                          lo, hi)
        if np.array_equal(stepped, points):
            break
        points = stepped
    return None


@dataclass(frozen=True)
class VerificationReport:
    target: int
    samples: int
    sufficiency_violations: tuple  # ((point...), predicted) per violation
    minimality: dict  # attribute index -> confirmed | violated | unverified

    @property
    def sufficiency_ok(self) -> bool:
        return not self.sufficiency_violations

    @property
    def minimality_ok(self) -> bool:
        return all(v != "violated" for v in self.minimality.values())

    @property
    def unverified(self) -> tuple:
        return tuple(i for i, v in sorted(self.minimality.items())
                     if v == "unverified")

    @property
    def ok(self) -> bool:
        return self.sufficiency_ok and self.minimality_ok


def verify_explanation(net: Network, instance, explanation: Explanation,
                       domain: InputDomain, samples: int = 1000, *,
                       rng=None, backend: SolverBackend = DEFAULT_BACKEND,
                       base_problem: Optional[MilpProblem] = None) -> VerificationReport:
    """Independent checks of an explanation.

    Sufficiency: random completions of the free attributes, with the kept
    ones at the instance's values, must all predict the target class.
    Minimality: re-freeing each attribute kept by the
    solver or by a forward-pass counterexample must admit a solver
    counterexample whose forward evaluation puts some rival at or above the
    target (within 1e-6).  Timeout-kept attributes are reported
    unverified.  When no base problem is supplied the check encodes the
    network with box bounds, which is exact for feasibility and needs no
    bound precomputation.
    """
    rng = default_rng(rng)
    instance = np.asarray(instance, dtype=np.float64)
    n = net.input_dim
    attributes = np.arange(n)
    kept = np.isin(attributes, explanation.kept_indices)

    points = rng.uniform(*_query_box(domain, instance, ~kept), size=(samples, n))
    predictions = np.argmax(batch_outputs(net, points), axis=1)
    bad = np.nonzero(predictions != explanation.target)[0]
    violations = tuple((tuple(points[r]), int(predictions[r])) for r in bad[:20])

    if base_problem is None:
        base_problem = encode_network(
            net, box_propagate(net, domain.lows, domain.highs))

    minimality: dict[int, str] = {}
    for i, decision in explanation.decisions.items():
        if decision is Decision.KEPT_BY_TIMEOUT:
            minimality[i] = "unverified"
            continue
        if decision not in (Decision.KEPT_BY_SOLVER,
                            Decision.KEPT_BY_COUNTEREXAMPLE):
            continue
        problem = fix_attributes(
            base_problem, *_query_box(domain, instance, ~kept | (attributes == i)))
        entailed, witness = is_entailed(problem, explanation.target,
                                        backend=backend)
        if entailed is False and witness is not None:
            outs = forward(net, witness).outputs
            rivals = np.delete(outs, explanation.target)
            gap = rivals.max() - outs[explanation.target]
            minimality[i] = "confirmed" if gap >= -1e-6 else "violated"
        else:
            minimality[i] = "violated"
    return VerificationReport(explanation.target, samples, violations, minimality)
