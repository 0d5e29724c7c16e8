"""Independent brute-force oracles the solver tests are checked against."""

from __future__ import annotations

import itertools
import time

import numpy as np

from boxplain.bnb import SAT, UNSAT, MilpOutcome, milp_to_lp
from boxplain.simplex import (EQ, FEAS_TOL, GE, INFEASIBLE, LE, OPTIMAL,
                              LpProblem, prepare, solve_prepared)

ORACLE_BINARY_CAP = 20


def vertex_enumerate(p: LpProblem):
    """Exact LP optimum by enumerating basic points of a bounded region.

    Treats rows and finite bounds as halfspaces, intersects every n-subset
    and keeps feasible intersection points.  Only valid when the feasible
    region is bounded (the generators used in the tests guarantee a bounded
    box).  Returns (feasible, min_value).
    """
    m, n = p.a.shape
    halfspaces = [(p.a[i], p.rhs[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(p.lb[j]):
            halfspaces.append((e, p.lb[j]))
        if np.isfinite(p.ub[j]):
            halfspaces.append((e, p.ub[j]))
    best = None
    feasible = False
    for combo in itertools.combinations(range(len(halfspaces)), n):
        A = np.array([halfspaces[i][0] for i in combo])
        b = np.array([halfspaces[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if (x < p.lb - 1e-8).any() or (x > p.ub + 1e-8).any():
            continue
        lhs = p.a @ x if m else np.zeros(0)
        ok = True
        for i in range(m):
            slack = 1e-8 * max(1.0, abs(p.rhs[i]))
            if p.rel[i] == LE and lhs[i] > p.rhs[i] + slack:
                ok = False
            elif p.rel[i] == GE and lhs[i] < p.rhs[i] - slack:
                ok = False
            elif p.rel[i] == EQ and abs(lhs[i] - p.rhs[i]) > slack:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        feasible = True
        value = float(p.c @ x)
        if best is None or value < best:
            best = value
    return feasible, best


def random_bounded_lp(rng: np.random.Generator, max_vars=5, max_rows=8) -> LpProblem:
    """Random LP over a bounded box, rhs centered so feasibility is varied."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    a = np.round(rng.uniform(-3, 3, size=(m, n)), 1)
    rel = tuple(rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.1]) for _ in range(m))
    lb = np.round(rng.uniform(-2, 0, size=n), 1)
    ub = lb + np.round(rng.uniform(0.1, 3, size=n), 1)
    mid = (lb + ub) / 2
    rhs = a @ mid + np.round(rng.uniform(-1, 1, size=m), 1) if m else np.zeros(0)
    c = np.round(rng.uniform(-2, 2, size=n), 1)
    return LpProblem(a, rel, rhs, lb, ub, c, "min")


def eq2_style_milp():
    """The worked MILP: min y1 over 1<=x1<=3, 3x1-2 <= y1,
    y1 <= 3x1 - 2 - 0.5(1-z1), 0 <= y1 <= 8 z1, z1 binary.

    Returned as a raw LpProblem with the binary tagged; the MILP layer tests
    wrap it into a problem object.  Columns: x1, y1, z1.
    """
    a = np.array([
        [3.0, -1.0, 0.0],   # 3x1 - y1 <= 2
        [-3.0, 1.0, -0.5],  # y1 - 3x1 - 0.5 z1 <= -2.5
        [0.0, 1.0, -8.0],   # y1 - 8 z1 <= 0
    ])
    rel = (LE, LE, LE)
    rhs = np.array([2.0, -2.5, 0.0])
    lb = np.array([1.0, 0.0, 0.0])
    ub = np.array([3.0, np.inf, 1.0])
    c = np.array([0.0, 1.0, 0.0])
    return LpProblem(a, rel, rhs, lb, ub, c, "min", binaries=(2,))


def _forced_violation(lp: LpProblem, lb, ub) -> np.ndarray:
    """Per row, its least violation over every point in the box.

    Each row's activity ranges over ``[act_lo, act_hi]`` when the variables
    roam their bounds; a ``<=`` row is violated by at least
    ``act_lo - rhs``, a ``>=`` row by ``rhs - act_hi``, an equality by
    either.
    """
    a = lp.a
    with np.errstate(invalid="ignore"):
        act_lo = np.where(a > 0, a * lb, np.where(a < 0, a * ub, 0.0)).sum(axis=1)
        act_hi = np.where(a > 0, a * ub, np.where(a < 0, a * lb, 0.0)).sum(axis=1)
    rel = np.array(lp.rel)
    over = np.where(rel != GE, act_lo - lp.rhs, -np.inf)
    under = np.where(rel != LE, lp.rhs - act_hi, -np.inf)
    return np.maximum(over, under)


def oracle_enumerate(problem, objective=None, sense="min") -> MilpOutcome:
    """Ground truth by exhausting every 0/1 assignment of the binaries.

    One LP per assignment; refuses problems with more than
    ``ORACLE_BINARY_CAP`` binaries.  Without an objective this is a
    feasibility check (first satisfiable assignment wins); with one it
    returns the exact optimum.  The loop is its own, not branch and bound's,
    because branch and bound is what it checks.  Every LP starts cold from
    phase 1, with no ``warm`` basis: branch and bound starts each root from
    the encoding's forward-pass basis and re-solves each child warm from its
    parent's basis, and this loop is the independent check of both paths
    (criterion 05 runs it against the default backend).  An assignment
    whose box already forces some row past that row's feasibility tolerance
    is counted but not solved: the LP would report it infeasible.
    """
    start = time.perf_counter()
    binaries = list(problem.binary_vids)
    if len(binaries) > ORACLE_BINARY_CAP:
        raise ValueError(
            f"oracle refuses {len(binaries)} binaries (cap {ORACLE_BINARY_CAP})")
    feasibility = objective is None
    flip = -1.0 if sense == "max" else 1.0
    internal = None if feasibility else {v: flip * c for v, c in objective.items()}
    lp = milp_to_lp(problem, internal, "feas" if feasibility else "min")
    prep = prepare(lp)
    row_tol = FEAS_TOL * np.maximum(1.0, np.abs(lp.rhs))
    nodes = 0
    best_value = np.inf
    best_point = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        lb[binaries] = ub[binaries] = bits
        nodes += 1
        if (_forced_violation(lp, lb, ub) > row_tol).any():
            continue
        outcome = solve_prepared(prep, lb, ub)
        if outcome.status != OPTIMAL:
            continue
        if feasibility:
            best_point = outcome.point
            break
        if outcome.value < best_value:
            best_value = outcome.value
            best_point = outcome.point
    if feasibility:
        status, value = (SAT if best_point is not None else UNSAT), None
    elif best_point is None:
        status, value = INFEASIBLE, None
    else:
        status, value = OPTIMAL, flip * best_value
    witness = None
    if best_point is not None:
        witness = best_point[np.array(problem.input_vids, dtype=int)].copy()
    return MilpOutcome(status, value, best_point, witness, nodes,
                       time.perf_counter() - start)
