"""Branch-and-bound over ReLU indicator binaries.

Every call minimizes, as the LP core does, and ends ``optimal``,
``infeasible``, or ``unknown`` when a time budget runs out; an optimal
outcome carries its point.  A zero cost asks for any point with integral
binaries (an entailment query's counterexample): the search stops at the
first and branches on the most fractional binary.  A call with a cost, such
as a bound MILP minimizing a neuron (or its negation for the upper bound)
over an encoding, takes one path whatever the encoding: every node's
forward pass from its inputs is a candidate incumbent, the search branches
on the ReLU whose triangle relaxation the node's LP duals
(``LpOutcome.duals``) weigh most, and each child carries a floor from the
LP core (``branch_floors``), a lower bound on its LP value from one bounded
dual simplex step off its parent's optimal basis, so that a child whose
floor is no better than the incumbent is never solved.  This module reads
nothing else of an LP basis: it only hands a node's final basis to its
children as their warm start.  Both searches are depth first.  The
``SolverBackend`` seam lets an external MILP engine stand in as long as it
honors the same contract: the statuses above, a point satisfying every
constraint within the feasibility tolerance, and binaries integral within
the integrality tolerance.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .encoding import MODE_SPLIT, MilpProblem, forward_basis, forward_point
from .simplex import (INFEASIBLE, OPTIMAL, LpProblem, SolverFailure, _certify,
                      _replace_unchecked, branch_floors, prepare, solve_prepared)

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


class _ReluGraph:
    """An encoding's split neurons, for reading a node's LP solution against
    the network (calls with a cost only).

    ``incumbent`` runs the network forward from the point's inputs,
    clipped to the root's bounds; the result has integral binaries and is
    kept only if it passes the LP core's acceptance rule (``_certify``) on
    the root's bounds, so it is a feasible point of the MILP.
    ``branching`` picks the fractional binary of the split neuron whose
    triangle relaxation the node's LP duals (``LpOutcome.duals``) weigh
    most (BaBSR's score, Bunel et al., JMLR 2020): the dual weight ``|y|``
    on the neuron's two upper-side rows, times the widest gap the triangle
    leaves above the ReLU, ``-l u / (u - l)`` for its big-M constants
    ``l < 0 < u``; the lowest vid on a tie.  None when no fractional binary
    scores above 0, which is always so for an encoding without split
    neurons.
    """

    def __init__(self, problem: MilpProblem, prep):
        self.problem, self.prep = problem, prep
        self.lb, self.ub = problem.lp.lb, problem.lp.ub
        self.inputs = np.array(problem.input_vids, dtype=int)
        # blocks are layer-major and number their binaries in that order, so
        # the z vids ascend and argmax's first maximum is the lowest vid
        split = [block for block in problem.blocks if block.mode == MODE_SPLIT]
        self.z = np.array([block.z_var for block in split], dtype=int)
        self.upper = np.array([block.upper_rows for block in split], dtype=int)
        lo = np.array([block.pre_lb for block in split])
        hi = np.array([block.pre_ub for block in split])
        self.gap = -lo * hi / (hi - lo)

    def incumbent(self, point: np.ndarray) -> Optional[np.ndarray]:
        inputs = np.clip(point[self.inputs], self.lb[self.inputs], self.ub[self.inputs])
        x = forward_point(self.problem, inputs)
        try:
            _certify(self.prep, self.lb, self.ub, x)
        except SolverFailure:
            return None
        return x

    def branching(self, point: np.ndarray, duals: np.ndarray) -> Optional[int]:
        z = point[self.z]
        fractional = np.abs(z - np.round(z)) > INTEGRALITY_TOL
        if not np.count_nonzero(fractional):
            return None
        score = np.where(fractional,
                         np.abs(duals[self.upper]).sum(axis=1) * self.gap, 0.0)
        k = int(score.argmax())
        return int(self.z[k]) if score[k] > 0.0 else None


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

    Without a cost the search branches on the most fractional binary, and
    every child is solved.  With one it also offers, at every node it does
    not drop, the forward pass from the node's inputs as an incumbent
    (``_ReluGraph.incumbent``), and drops the node at once if that matches
    its relaxation; it branches on the split neuron whose triangle
    relaxation the node's duals weigh most (``_ReluGraph.branching``), or
    on the most fractional binary when no fractional block binary carries
    dual weight, and floors both children (``branch_floors``).  A child
    whose floor is dropped is not pushed, and one whose floor is dropped by
    the time it is popped, the incumbent having improved meanwhile, is not
    solved.  Solved, either would have been dropped or found infeasible, so
    the nodes solved are a subsequence of those solved without floors, and
    the outcome is the same.  Every node LP ends optimal or infeasible; a
    ``SolverFailure``, an unbounded relaxation included, ends the search.
    """
    start = time.perf_counter()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    lp = milp_to_lp(problem, objective)
    prep = prepare(lp)
    graph = None if prep.cost is None else _ReluGraph(problem, prep)
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
        if prep.cost is None:
            vid = _fractional_binaries(outcome.point, binaries, INTEGRALITY_TOL)
            if vid is None:
                return result(OPTIMAL, outcome.value, outcome.point)
            floors = (-np.inf, -np.inf)
        else:
            forward = graph.incumbent(outcome.point)
            if forward is not None and (value := float(prep.c @ forward)) < best_value:
                best_value, best_point = value, forward
                if dropped(outcome.value):
                    continue
            vid = graph.branching(outcome.point, outcome.duals)
            if vid is None:
                vid = _fractional_binaries(outcome.point, binaries, INTEGRALITY_TOL)
            if vid is None:
                best_value, best_point = outcome.value, outcome.point
                continue
            floors = branch_floors(prep, outcome, bounds[0], bounds[1], vid)
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
