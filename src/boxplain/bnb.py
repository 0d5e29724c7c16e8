"""Branch-and-bound over ReLU indicator binaries.

Every call minimizes a cost, as the LP core does, and ends ``optimal``,
``infeasible``, or ``unknown`` when a time budget runs out; an optimal
outcome carries its point.  ``optimize`` minimizes an objective over an
encoding, as a bound MILP does for a neuron (or its negation for the upper
bound).  ``solve_feasibility`` minimizes the problem's own cost, such as a
rival query's margin ``o_target - o_rival`` (``attach_rival_query``), under
a cutoff of ``FEAS_TOL``: it stops at the first point at or below the
cutoff and answers ``infeasible`` when none exists.

Both take one path, whatever the encoding or cost, and every search over
one encoding reads its blocks as the arrays the encoding built
(``MilpProblem.arrays``) and solves on the LP core's rows prepared by the
first (``MilpProblem.searched``).  Every node's forward pass from its
inputs is a candidate incumbent, certified only when the search would take
it; the search branches on the ReLU whose triangle relaxation the node's LP
duals (``LpOutcome.duals``) weigh most, or on the most fractional binary
when none carries dual weight (a zero cost has zero duals); and each child
carries a floor from the LP core (``branch_floors``), a lower bound on its
LP value from one bounded dual simplex step off its parent's optimal
basis.  A child whose floor is no better than the incumbent, or above the
cutoff, is never solved.  This module reads nothing else of an LP basis:
it hands a node's final basis to its children as their warm start, and
returns the root's so that a later search over the same rows can start
from it.  The search is depth first.
The ``SolverBackend`` seam lets an external MILP engine stand in as long as
it honors the same contract: the statuses above, a point satisfying every
constraint within the feasibility tolerance, and binaries integral within
the integrality tolerance.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .encoding import MilpProblem, forward_basis, forward_point
from .simplex import (FEAS_TOL, INFEASIBLE, OPTIMAL, Basis, LpProblem,
                      SolverFailure, _certify, _replace_unchecked,
                      branch_floors, prepare, solve_prepared)

UNKNOWN = "unknown"

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class MilpOutcome:
    """Result of a MILP solve: ``optimal``, ``infeasible`` or ``unknown``.

    An optimal outcome's ``point`` holds a value for every problem variable
    (vid-indexed) and ``value`` is the minimized cost at it;
    ``lp_iterations`` sums the simplex iterations of every node.  ``basis``
    is the root LP's final basis when that LP ended optimal, an opaque value
    that a later search over the same rows (the same ``lp.a``) can take as
    its ``start``.
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    node_count: int = 0
    wall_time: float = 0.0
    lp_iterations: int = 0
    basis: Optional[Basis] = None


def milp_to_lp(problem: MilpProblem,
               objective: Optional[Mapping[int, float]] = None) -> LpProblem:
    """The problem's LP relaxation minimizing ``objective``, or the
    problem's own cost ``lp.c`` without one; binaries relax to their [0, 1]
    box."""
    if objective is None:
        return problem.lp
    c = np.zeros(problem.lp.a.shape[1])
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
    """A search's view of its encoding's split neurons (``BlockArrays``),
    for reading a node's LP solution against the network; ``prep`` is the
    search's LP, prepared on the rows of the encoding's first search
    (``MilpProblem.searched``) when they are its own.

    ``incumbent`` runs the network forward from the point's inputs,
    clipped to the root's bounds, which gives a candidate with integral
    binaries; ``certified`` checks a candidate against the LP core's
    acceptance rule (``_certify``) on the root's bounds, which makes it a
    feasible point of the MILP.
    ``branching`` picks the fractional binary of the split neuron whose
    triangle relaxation the node's LP duals (``LpOutcome.duals``) weigh
    most (BaBSR's score, Bunel et al., JMLR 2020): the dual weight ``|y|``
    on the neuron's two upper-side rows, times the widest gap the triangle
    leaves above the ReLU, ``-l u / (u - l)`` for its big-M constants
    ``l < 0 < u``; the lowest vid on a tie.  None when no fractional binary
    scores above 0, which is always so for an encoding without split
    neurons or an LP with a zero cost (zero duals).
    """

    def __init__(self, problem: MilpProblem, lp: LpProblem):
        self.prep = prepare(lp, problem.searched.get("rows"))
        # one call, so of threads racing here the first to store wins
        problem.searched.setdefault("rows", self.prep.rows)
        self.problem = problem
        self.lb, self.ub = lp.lb, lp.ub
        self.inputs, self.z, self.upper, self.gap = problem.arrays

    def incumbent(self, point: np.ndarray) -> np.ndarray:
        inputs = np.clip(point[self.inputs], self.lb[self.inputs], self.ub[self.inputs])
        return forward_point(self.problem, inputs)

    def certified(self, x: np.ndarray) -> bool:
        try:
            _certify(self.prep, self.lb, self.ub, x)
        except SolverFailure:
            return False
        return True

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
                      time_budget_ms: Optional[float], cutoff: Optional[float] = None,
                      start: Optional[Basis] = None) -> MilpOutcome:
    """Depth-first search over the binaries, minimizing ``objective`` (the
    problem's own cost for None, ``milp_to_lp``).

    Every node solves the search's one prepared LP (``_ReluGraph.prep``),
    whose rows it shares with every other search over the same encoding
    (``MilpProblem.searched``).  A node is one LP solve under its own bounds,
    warm-started: the root from ``start``, or ``forward_basis`` without
    one, each child from its parent's final basis.  At every node it does
    not drop, the search offers the forward pass from the node's inputs as
    an incumbent (``_ReluGraph.incumbent``).  It prices that point first
    and certifies it (``_ReluGraph.certified``) only when it would take it,
    that is when its cost is below the best so far and within any cutoff:
    a point it would pass over changes nothing, certified or not.  An
    integral LP point is an incumbent too.  It
    branches on the split neuron whose triangle relaxation the node's duals
    weigh most (``_ReluGraph.branching``), or on the most fractional binary
    when no fractional block binary carries dual weight (always so under a
    zero cost, whose duals are zero), and explores the
    branch matching the LP-relaxation value first.  Both children get a
    floor (``branch_floors``).

    Without a ``cutoff`` the search optimizes: a node or child is dropped
    when its LP value or floor is no better than the incumbent, and a child
    whose floor the incumbent overtakes by the time it is popped is not
    solved.  Solved, either would have been dropped or found infeasible, so
    the nodes solved are a subsequence of those solved without floors, and
    the outcome is the same.  With a ``cutoff`` it drops a node or child
    whose LP value or floor is above the cutoff, stops at the first
    incumbent at or below it, and ends infeasible without one.  Every node
    LP ends optimal or infeasible; a ``SolverFailure``, an unbounded
    relaxation included, ends the search.
    """
    started = time.perf_counter()
    deadline = None if time_budget_ms is None else started + time_budget_ms / 1000.0
    lp = milp_to_lp(problem, objective)
    graph = _ReluGraph(problem, lp)
    prep = graph.prep
    binaries = np.array(lp.binaries, dtype=np.intp)
    # a node is its bounds, rows lb and ub of one array, its start basis and
    # a lower bound on its LP value
    root = forward_basis(problem) if start is None else start
    stack: list[tuple] = [(np.array((lp.lb, lp.ub)), root, -np.inf)]
    nodes = iterations = 0
    best_value = np.inf
    best_point = root_basis = None

    def result(status, value=None, point=None):
        return MilpOutcome(status, value, point, nodes,
                           time.perf_counter() - started, iterations, root_basis)

    def dropped(value: float) -> bool:
        if cutoff is not None:
            return value > cutoff
        return best_point is not None and \
            value >= best_value - 1e-9 * max(1.0, abs(best_value))

    def improves(value: float) -> bool:
        """Whether the search takes a feasible point of this cost."""
        return value < best_value and (cutoff is None or value <= cutoff)

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            # search incomplete: no answer, and no incumbent proven optimal
            return result(UNKNOWN)
        bounds, basis, floor = stack.pop()
        if dropped(floor):
            continue
        outcome = solve_prepared(prep, bounds[0], bounds[1], basis)
        if not nodes:
            root_basis = outcome.basis
        nodes += 1
        iterations += outcome.iterations
        if outcome.status != OPTIMAL or dropped(outcome.value):
            continue
        # priced first and certified only when it would be taken: a point
        # the search passes over changes nothing
        forward = graph.incumbent(outcome.point)
        value = float(prep.c @ forward)
        if improves(value) and graph.certified(forward):
            best_value, best_point = value, forward
            if cutoff is not None:
                break
        if dropped(outcome.value):
            continue
        vid = graph.branching(outcome.point, outcome.duals)
        if vid is None:
            vid = _fractional_binaries(outcome.point, binaries, INTEGRALITY_TOL)
        if vid is None:
            if improves(outcome.value):
                best_value, best_point = outcome.value, outcome.point
                if cutoff is not None:
                    break
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


def solve_feasibility(problem: MilpProblem, *, time_budget_ms: Optional[float] = None,
                      start: Optional[Basis] = None) -> MilpOutcome:
    """Search for a point with integral binaries at which the problem's own
    cost ``lp.c`` is at most ``FEAS_TOL``: for a rival query, an input where
    the rival comes within that tolerance of the target.  A zero cost asks
    for any point with integral binaries.

    ``start`` is the root's warm start, the ``basis`` of an earlier outcome
    over the same rows; ``forward_basis`` without one.  On an exhausted time
    budget the outcome is ``unknown``: callers must treat it as "could be
    feasible".
    """
    return _branch_and_bound(problem, None, time_budget_ms, FEAS_TOL, start)


def optimize(problem: MilpProblem, objective: Mapping[int, float]) -> MilpOutcome:
    """Exact MILP minimum of ``objective``; negate it for a maximum."""
    return _branch_and_bound(problem, objective, None)


class SolverBackend(abc.ABC):
    """Seam for swapping the MILP engine under the explanation loop.

    Both calls minimize and end ``optimal``, ``infeasible`` or ``unknown``
    (a time budget ran out); an optimal outcome carries its point, a value
    for every problem variable.  An outcome's ``basis`` may be None: an
    engine that keeps no basis ignores ``start``."""

    @abc.abstractmethod
    def feasibility(self, problem: MilpProblem, *,
                    time_budget_ms: Optional[float] = None,
                    start: Optional[Basis] = None) -> MilpOutcome:
        """A point with integral binaries where the cost ``problem.lp.c``
        is at most ``FEAS_TOL``, optimal with its value if one exists;
        ``start`` is the ``basis`` of an earlier outcome over the same
        rows."""

    @abc.abstractmethod
    def optimize(self, problem: MilpProblem,
                 objective: Mapping[int, float]) -> MilpOutcome:
        """Exact minimum within 1e-6 relative tolerance."""


class BranchAndBoundBackend(SolverBackend):
    """Default backend: the built-in simplex + branch-and-bound."""

    def feasibility(self, problem, *, time_budget_ms=None, start=None):
        return solve_feasibility(problem, time_budget_ms=time_budget_ms, start=start)

    def optimize(self, problem, objective):
        return optimize(problem, objective)


DEFAULT_BACKEND = BranchAndBoundBackend()
