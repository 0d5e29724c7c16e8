"""Branch-and-bound over ReLU indicator binaries.

Feasibility calls answer entailment queries (a SAT outcome carries the
counterexample inputs); optimization calls compute tight neuron bounds.
Both search depth first.  A feasibility call branches on the most fractional
binary.  An optimization call over an encoding reads every node's LP point
against the network: the forward pass from its inputs is a candidate
incumbent, and it branches on the ReLU whose triangle relaxation the LP
duals weigh most, which saves the tight-bound precompute more nodes the
larger the net.  The ``SolverBackend`` seam lets an external MILP engine
stand in for the built-in solver as long as it honors the same outcome
contract: statuses as below, a witness satisfying every constraint within
the feasibility tolerance, and binaries integral within the integrality
tolerance.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .encoding import MODE_SPLIT, MilpProblem, forward_basis, forward_point
from .simplex import (INFEASIBLE, OPTIMAL, Basis, LpProblem, SolverFailure,
                      _certify, _replace_unchecked, prepare, solve_prepared)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class MilpOutcome:
    """Result of a MILP solve.

    ``point`` holds a value for every problem variable (vid-indexed);
    ``witness`` is its restriction to the input attributes;
    ``lp_iterations`` sums the simplex iterations of every node.
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    witness: Optional[np.ndarray] = None
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
    the network (optimize calls only).

    ``incumbent`` runs the network forward from the point's inputs,
    clipped to the root's bounds; the result has integral binaries and is
    kept only if it passes the LP core's acceptance rule (``_certify``) on
    the root's bounds, so it is a feasible point of the MILP.
    ``branching`` picks the fractional binary of the split neuron whose
    triangle relaxation the node's LP duals weigh most (BaBSR's score,
    Bunel et al., JMLR 2020): the dual weight ``|y|`` on the neuron's two
    upper-side rows, times the widest gap the triangle leaves above the
    ReLU, ``-l u / (u - l)`` for its big-M constants ``l < 0 < u``; the
    lowest vid on a tie.  None when no fractional binary scores above 0,
    which is always the case for a zero cost (no duals).
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

    def incumbent(self, point: np.ndarray) -> Optional[np.ndarray]:
        inputs = np.clip(point[self.inputs], self.lb[self.inputs], self.ub[self.inputs])
        x = forward_point(self.problem, inputs)
        try:
            _certify(self.prep, self.lb, self.ub, x)
        except SolverFailure:
            return None
        return x

    def branching(self, point: np.ndarray, basis: Basis) -> Optional[int]:
        if self.prep.cost is None:
            return None
        z = point[self.z]
        fractional = np.abs(z - np.round(z)) > INTEGRALITY_TOL
        if not np.count_nonzero(fractional):
            return None
        duals = self.prep.cost[basis.columns] @ basis.inverse
        score = np.where(fractional,
                         np.abs(duals[self.upper]).sum(axis=1) * self.gap, 0.0)
        k = int(score.argmax())
        return int(self.z[k]) if score[k] > 0.0 else None


def _branch_and_bound(problem: MilpProblem, objective: Optional[Mapping[int, float]],
                      time_budget_ms: Optional[float]) -> MilpOutcome:
    """Depth-first search over the binaries, minimizing ``objective``, or,
    when it is None, stopping at the first node whose binaries are all
    integral (its LPs have a zero ``c``, so the simplex skips phase 2).

    A node is one LP solve under its own bounds, warm-started: the root
    from ``forward_basis``, each child from its parent's final basis.  Nodes
    whose relaxation is no better than the incumbent are dropped.  The
    search explores the branch matching the LP-relaxation value first.

    A feasibility call branches on the most fractional binary.  A call with
    an objective on an encoding with blocks also offers, at every node it
    does not drop, the forward pass from the node's inputs as an incumbent
    (``_ReluGraph.incumbent``), and drops the node at once if that matches
    its relaxation; it branches on the split neuron whose triangle
    relaxation the node's duals weigh most (``_ReluGraph.branching``), and
    on the most fractional binary when no fractional block binary carries
    dual weight (a zero objective has no duals).  The value returned is the
    minimized one.  Every node LP ends optimal or infeasible; a
    ``SolverFailure``, an unbounded relaxation included, ends the search.
    """
    start = time.perf_counter()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    feasibility = objective is None
    lp = milp_to_lp(problem, objective)
    prep = prepare(lp)
    graph = _ReluGraph(problem, prep) if not feasibility and problem.blocks else None
    binaries = np.array(lp.binaries, dtype=np.intp)
    # a node is its bounds, rows lb and ub of one array, and its start basis
    stack: list[tuple] = [(np.array((lp.lb, lp.ub)), forward_basis(problem))]
    nodes = iterations = 0
    best_value = np.inf
    best_point = None

    def result(status, value=None, point=None):
        witness = None
        if point is not None:
            witness = point[np.array(problem.input_vids, dtype=int)].copy()
        return MilpOutcome(status, value, point, witness, nodes,
                           time.perf_counter() - start, iterations)

    def dropped(value: float) -> bool:
        return best_point is not None and \
            value >= best_value - 1e-9 * max(1.0, abs(best_value))

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            # search incomplete: no answer, and no incumbent proven optimal
            return result(UNKNOWN)
        bounds, basis = stack.pop()
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
            vid = graph.branching(outcome.point, outcome.basis)
        if vid is None:
            vid = _fractional_binaries(outcome.point, binaries, INTEGRALITY_TOL)
        if vid is None:
            if feasibility:
                return result(SAT, None, outcome.point)
            best_value = outcome.value
            best_point = outcome.point
            continue
        first = int(round(outcome.point[vid]))
        for value in (1 - first, first):
            child = bounds.copy()
            child[0, vid] = child[1, vid] = value
            stack.append((child, outcome.basis))
    if feasibility:
        return result(UNSAT)
    if best_point is None:
        return result(INFEASIBLE)
    return result(OPTIMAL, best_value, best_point)


def solve_feasibility(problem: MilpProblem, *,
                      time_budget_ms: Optional[float] = None) -> MilpOutcome:
    """Search for any assignment with integral binaries.

    On an exhausted time budget the outcome is ``unknown``: callers must
    treat it as "could be satisfiable".
    """
    return _branch_and_bound(problem, None, time_budget_ms)


def optimize(problem: MilpProblem, objective: Mapping[int, float],
             sense: str) -> MilpOutcome:
    """Exact MILP optimum of ``objective`` (``sense`` is min or max)."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, got {sense!r}")
    flip = -1.0 if sense == "max" else 1.0
    internal = {vid: flip * coef for vid, coef in objective.items()}
    out = _branch_and_bound(problem, internal, None)
    if out.status != OPTIMAL:
        return out
    return replace(out, value=flip * out.value)


class SolverBackend(abc.ABC):
    """Seam for swapping the MILP engine under the explanation loop."""

    @abc.abstractmethod
    def feasibility(self, problem: MilpProblem, *,
                    time_budget_ms: Optional[float] = None) -> MilpOutcome:
        """Decide satisfiability; SAT must carry a valid witness."""

    @abc.abstractmethod
    def optimize(self, problem: MilpProblem, objective: Mapping[int, float],
                 sense: str) -> MilpOutcome:
        """Exact optimum within 1e-6 relative tolerance."""


class BranchAndBoundBackend(SolverBackend):
    """Default backend: the built-in simplex + branch-and-bound."""

    def feasibility(self, problem, *, time_budget_ms=None):
        return solve_feasibility(problem, time_budget_ms=time_budget_ms)

    def optimize(self, problem, objective, sense):
        return optimize(problem, objective, sense)


DEFAULT_BACKEND = BranchAndBoundBackend()
