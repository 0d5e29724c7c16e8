"""Branch-and-bound over ReLU indicator binaries.

Every call minimizes, as the LP core does, and ends ``optimal``,
``infeasible``, or ``unknown`` when a time budget runs out; an optimal
outcome carries its point.  A zero cost asks for any point with integral
binaries (an entailment query's counterexample): the search stops at the
first and branches on the most fractional binary.  A bound MILP minimizes a
neuron, or its negation for the upper bound, over an encoding: every node's
forward pass from its inputs is a candidate incumbent, the search branches
on the ReLU whose triangle relaxation the LP duals weigh most, and each
child carries a floor, a lower bound on its LP value from one bounded dual
simplex step off its parent's optimal basis, so that a child whose floor
is no better than the incumbent is never solved.  Both search depth
first.  The ``SolverBackend`` seam lets an external MILP engine stand in as
long as it honors the same contract: the statuses above, a point
satisfying every constraint within the feasibility tolerance, and binaries
integral within the integrality tolerance.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .encoding import MODE_SPLIT, MilpProblem, forward_basis, forward_point
from .simplex import (_SIGN, INFEASIBLE, OPTIMAL, PIVOT_TOL, Basis, LpOutcome,
                      LpProblem, SolverFailure, _certify, _replace_unchecked,
                      prepare, solve_prepared)

UNKNOWN = "unknown"

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class MilpOutcome:
    """Result of a MILP solve: ``optimal``, ``infeasible`` or ``unknown``.

    An optimal outcome's ``point`` holds a value for every problem variable
    (vid-indexed) and ``value`` is the minimized cost at it, 0 for a call
    without one; ``lp_iterations`` sums the simplex iterations of every
    node.
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    node_count: int = 0
    wall_time: float = 0.0
    lp_iterations: int = 0


def milp_to_lp(problem: MilpProblem,
               objective: Optional[Mapping[int, float]] = None) -> LpProblem:
    """The problem's LP relaxation minimizing ``objective``, a feasibility
    problem (zero ``c``) without one; binaries relax to their [0, 1] box."""
    c = np.zeros(problem.lp.a.shape[1])
    if objective:
        c[list(objective)] = list(objective.values())
    return _replace_unchecked(problem.lp, c=c)


def _fractional_binaries(point: np.ndarray, binaries, tol: float) -> Optional[int]:
    """Vid of the most fractional of the vids ``binaries`` (the first on a
    tie), or None when all are integral."""
    if not len(binaries):
        return None
    binaries = np.asarray(binaries, dtype=np.intp)
    values = point[binaries]
    frac = np.abs(values - np.round(values))
    k = int(frac.argmax())
    return int(binaries[k]) if frac[k] > tol else None


def _dual_step_gain(violation: float, slope: np.ndarray, reduced: np.ndarray,
                    span: np.ndarray) -> float:
    """The rise of the bounded dual objective along one tableau row of an
    optimal basis whose basic variable must move by ``violation`` (the long
    step of the dual ratio test).

    A column may enter when its ``slope``, how far a unit move off its bound
    takes the basic variable toward its target, exceeds ``PIVOT_TOL``.  It
    enters at the breakpoint ``max(reduced, 0) / slope``, where ``reduced``
    is its reduced cost in the direction it moves, so a reduced cost that
    rounding signs the wrong way enters at once and never adds to the rise.
    The dual rises at the rate ``violation`` at first, and each breakpoint
    passed lowers the rate by ``slope * span``, ``span`` being how far the
    column can move.  The step stops at the first breakpoint past which
    the rate is not positive, or at the last one; zero when no column may
    enter.
    """
    eligible = slope > PIVOT_TOL
    slope = slope[eligible]
    theta = np.maximum(reduced[eligible], 0.0) / slope
    drop = slope * span[eligible]
    order = theta.argsort()
    # the dual objective is concave along the row, and few breakpoints lie
    # before its peak, so a loop over them stops early
    rate, gain, last = violation, 0.0, 0.0
    for point, cost in zip(theta[order].tolist(), drop[order].tolist()):
        gain += rate * (point - last)
        rate, last = rate - cost, point
        if rate <= 0.0:
            break
    return gain


class _ReluGraph:
    """An encoding's split neurons, for reading a node's LP solution against
    the network (calls with a cost only).

    ``incumbent`` runs the network forward from the point's inputs,
    clipped to the root's bounds; the result has integral binaries and is
    kept only if it passes the LP core's acceptance rule (``_certify``) on
    the root's bounds, so it is a feasible point of the MILP.
    ``duals`` are the node's LP duals ``y``, solving ``y B = c_B`` for its
    final basis.  ``branching`` picks the fractional binary of the split
    neuron whose triangle relaxation those duals weigh most (BaBSR's score,
    Bunel et al., JMLR 2020): the dual weight ``|y|`` on the neuron's two
    upper-side rows, times the widest gap the triangle leaves above the
    ReLU, ``-l u / (u - l)`` for its big-M constants ``l < 0 < u``; the
    lowest vid on a tie.  None when no fractional binary scores above 0.
    ``floors`` bounds the LP values of the two children that pin a binary
    to 0 and to 1 from below, before either is solved: the parent's value
    plus the rise of one bounded dual simplex step from the parent's
    optimal basis along the binary's tableau row ``B^-1[r] @ A``, priced
    with the same duals' reduced costs ``c - y A`` (the penalties of
    Driebeek 1966 and Tomlin 1971, ``_dual_step_gain``).  A child that no
    column can reach keeps the parent's value, not an infinite floor: its
    own LP decides, by the LP core's tolerances, whether it is infeasible.
    """

    def __init__(self, problem: MilpProblem, prep):
        self.problem, self.prep = problem, prep
        self.lb, self.ub = problem.lp.lb, problem.lp.ub
        self.inputs = np.array(problem.input_vids, dtype=int)
        # blocks are layer-major and number their binaries in that order, so
        # the z vids ascend and argmax's first maximum is the lowest vid
        split = [block for block in problem.blocks if block.mode == MODE_SPLIT]
        self.z = np.array([block.z_var for block in split], dtype=int)
        # rows 0 and 2 of a split block: post <= pre - l (1 - z), post <= u z
        self.upper = np.array([block.constraint_ids[::2] for block in split], dtype=int)
        lo = np.array([block.pre_lb for block in split])
        hi = np.array([block.pre_ub for block in split])
        self.gap = -lo * hi / (hi - lo)
        self.cost = prep.cost[:prep.ncols]
        # the slack bounds follow a node's structural ones
        self.slack_lo = prep.lo_tail[:prep.m]
        self.slack_hi = prep.hi_tail[:prep.m]

    def incumbent(self, point: np.ndarray) -> Optional[np.ndarray]:
        inputs = np.clip(point[self.inputs], self.lb[self.inputs], self.ub[self.inputs])
        x = forward_point(self.problem, inputs)
        try:
            _certify(self.prep, self.lb, self.ub, x)
        except SolverFailure:
            return None
        return x

    def duals(self, basis: Basis) -> np.ndarray:
        return self.prep.cost[basis.columns] @ basis.inverse

    def branching(self, point: np.ndarray, duals: np.ndarray) -> Optional[int]:
        z = point[self.z]
        fractional = np.abs(z - np.round(z)) > INTEGRALITY_TOL
        if not np.count_nonzero(fractional):
            return None
        score = np.where(fractional,
                         np.abs(duals[self.upper]).sum(axis=1) * self.gap, 0.0)
        k = int(score.argmax())
        return int(self.z[k]) if score[k] > 0.0 else None

    def floors(self, outcome: LpOutcome, bounds: np.ndarray, vid: int,
               duals: np.ndarray) -> tuple:
        """Lower bounds on the LP values of the node's children with ``vid``
        pinned to 0 and to 1, from the node's optimal ``outcome`` under
        ``bounds``; ``vid`` is basic, being fractional (a nonbasic column
        sits at a bound, and a binary's bounds are integers)."""
        basis, prep = outcome.basis, self.prep
        r = int((basis.columns == vid).argmax())
        alpha = basis.inverse[r] @ prep.priced
        lo = np.concatenate((bounds[0], self.slack_lo))
        hi = np.concatenate((bounds[1], self.slack_hi))
        sign = np.where(hi > lo, _SIGN[basis.status[:prep.ncols]], 0.0)
        reduced = sign * (self.cost - duals @ prep.priced)
        span = hi - lo
        # pinning to 0 lowers the basic binary by its value f, to 1 raises it
        # by 1 - f; a column moving by t moves it by -alpha t
        f = float(outcome.point[vid])
        return (outcome.value + _dual_step_gain(f, sign * alpha, reduced, span),
                outcome.value + _dual_step_gain(1.0 - f, -sign * alpha, reduced, span))


def _branch_and_bound(problem: MilpProblem, objective: Optional[Mapping[int, float]],
                      time_budget_ms: Optional[float]) -> MilpOutcome:
    """Depth-first search over the binaries, minimizing ``objective``; a
    zero cost (None included, so that ``_Prepared.cost`` is None) stops at
    the first node whose binaries are all integral, and the simplex skips
    phase 2 on its LPs.

    A node is one LP solve under its own bounds, warm-started: the root
    from ``forward_basis``, each child from its parent's final basis.  Nodes
    whose relaxation is no better than the incumbent are dropped.  The
    search explores the branch matching the LP-relaxation value first.
    Each node carries a floor at or below its LP value, -inf unless
    ``floors`` gave it one; a child whose floor is dropped is not pushed,
    and one whose floor is dropped by the time it is popped, the incumbent
    having improved meanwhile, is not solved.  Solved, either would have
    been dropped or found infeasible, so the nodes solved are a subsequence
    of those solved without floors, and the outcome is the same.

    Without a cost the search branches on the most fractional binary.  With
    one, on an encoding with blocks, it also offers, at every node it does
    not drop, the forward pass from the node's inputs as an incumbent
    (``_ReluGraph.incumbent``), and drops the node at once if that matches
    its relaxation; it branches on the split neuron whose triangle
    relaxation the node's duals weigh most (``_ReluGraph.branching``), or
    on the most fractional binary when no fractional block binary carries
    dual weight, and floors both children (``_ReluGraph.floors``); a
    search without that graph solves every child.  Every node LP ends
    optimal or infeasible; a ``SolverFailure``, an unbounded relaxation
    included, ends the search.
    """
    start = time.perf_counter()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    lp = milp_to_lp(problem, objective)
    prep = prepare(lp)
    graph = _ReluGraph(problem, prep) \
        if prep.cost is not None and problem.blocks else None
    binaries = np.array(lp.binaries, dtype=np.intp)
    # a node is its bounds, rows lb and ub of one array, its start basis and
    # a lower bound on its LP value
    stack: list[tuple] = [(np.array((lp.lb, lp.ub)), forward_basis(problem), -np.inf)]
    nodes = iterations = 0
    best_value = np.inf
    best_point = None

    def result(status, value=None, point=None):
        return MilpOutcome(status, value, point, nodes,
                           time.perf_counter() - start, iterations)

    def dropped(value: float) -> bool:
        return best_point is not None and \
            value >= best_value - 1e-9 * max(1.0, abs(best_value))

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            # search incomplete: no answer, and no incumbent proven optimal
            return result(UNKNOWN)
        bounds, basis, floor = stack.pop()
        if dropped(floor):
            continue
        outcome = solve_prepared(prep, bounds[0], bounds[1], basis)
        nodes += 1
        iterations += outcome.iterations
        if outcome.status != OPTIMAL or dropped(outcome.value):
            continue
        vid = None
        if graph is not None:
            forward = graph.incumbent(outcome.point)
            if forward is not None and (value := float(prep.c @ forward)) < best_value:
                best_value, best_point = value, forward
                if dropped(outcome.value):
                    continue
            duals = graph.duals(outcome.basis)
            vid = graph.branching(outcome.point, duals)
        if vid is None:
            vid = _fractional_binaries(outcome.point, binaries, INTEGRALITY_TOL)
        if vid is None:
            if prep.cost is None:
                return result(OPTIMAL, outcome.value, outcome.point)
            best_value = outcome.value
            best_point = outcome.point
            continue
        floors = (-np.inf, -np.inf) if graph is None \
            else graph.floors(outcome, bounds, vid, duals)
        first = int(round(outcome.point[vid]))
        for value in (1 - first, first):
            if dropped(floors[value]):
                continue
            child = bounds.copy()
            child[0, vid] = child[1, vid] = value
            stack.append((child, outcome.basis, floors[value]))
    if best_point is None:
        return result(INFEASIBLE)
    return result(OPTIMAL, best_value, best_point)


def solve_feasibility(problem: MilpProblem, *,
                      time_budget_ms: Optional[float] = None) -> MilpOutcome:
    """Search for any assignment with integral binaries.

    On an exhausted time budget the outcome is ``unknown``: callers must
    treat it as "could be feasible".
    """
    return _branch_and_bound(problem, None, time_budget_ms)


def optimize(problem: MilpProblem, objective: Mapping[int, float]) -> MilpOutcome:
    """Exact MILP minimum of ``objective``; negate it for a maximum."""
    return _branch_and_bound(problem, objective, None)


class SolverBackend(abc.ABC):
    """Seam for swapping the MILP engine under the explanation loop.

    Both calls minimize and end ``optimal``, ``infeasible`` or ``unknown``
    (a time budget ran out); an optimal outcome carries its point, a value
    for every problem variable."""

    @abc.abstractmethod
    def feasibility(self, problem: MilpProblem, *,
                    time_budget_ms: Optional[float] = None) -> MilpOutcome:
        """Any point with integral binaries; optimal with value 0 if found."""

    @abc.abstractmethod
    def optimize(self, problem: MilpProblem,
                 objective: Mapping[int, float]) -> MilpOutcome:
        """Exact minimum within 1e-6 relative tolerance."""


class BranchAndBoundBackend(SolverBackend):
    """Default backend: the built-in simplex + branch-and-bound."""

    def feasibility(self, problem, *, time_budget_ms=None):
        return solve_feasibility(problem, time_budget_ms=time_budget_ms)

    def optimize(self, problem, objective):
        return optimize(problem, objective)


DEFAULT_BACKEND = BranchAndBoundBackend()
