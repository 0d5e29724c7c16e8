"""Independent brute-force oracles the solver tests are checked against,
and the reference simplex loops the core's own loops must match bit for
bit."""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np

from boxplain.bnb import MilpOutcome, milp_to_lp
from boxplain.simplex import (_AT_LOWER, _AT_UPPER, EQ, FEAS_TOL, GE, INF,
                              INFEASIBLE, LE, OPTIMAL, PIVOT_TOL,
                              LpProblem, SolverFailure, _Simplex, prepare,
                              solve_prepared)

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
    return LpProblem(a, rel, rhs, lb, ub, c)


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
    return LpProblem(a, rel, rhs, lb, ub, c, binaries=(2,))


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


def rival_row(problem):
    """A problem whose cost ``c`` asks for a point of cost at most
    ``FEAS_TOL``, such as a rival query (cost ``o_target - o_rival``), in
    the form rival queries once had: the row ``-c @ x >= 0``
    (``o_rival - o_target >= 0``, whose tolerance is ``FEAS_TOL``) appended,
    and a zero cost."""
    lp = problem.lp
    row = 0.0 - lp.c
    return replace(problem, lp=replace(lp, a=np.vstack([lp.a, row]),
                                       rel=lp.rel + (GE,),
                                       rhs=np.append(lp.rhs, 0.0),
                                       c=np.zeros_like(lp.c)))


def oracle_enumerate(problem, objective=None) -> MilpOutcome:
    """Ground truth by exhausting every 0/1 assignment of the binaries.

    One LP per assignment; refuses problems with more than
    ``ORACLE_BINARY_CAP`` binaries.  It minimizes ``objective``.  Without
    one it asks for any feasible point, and the first feasible assignment
    wins; a problem with a cost, such as a rival query's margin, is first
    turned back into its row form (``rival_row``).  The loop is its own, not
    branch and bound's, because branch and bound is what it checks.  Every
    LP starts cold from phase 1, with no ``warm`` basis: branch and bound
    starts each root from the encoding's forward-pass basis or from an
    earlier root's, and re-solves each child warm from its parent's basis,
    and this loop is the independent check of those paths (criterion 05
    runs it against the default backend).  An assignment whose box already
    forces some row past that row's feasibility tolerance is counted but
    not solved: the LP would report it infeasible.
    """
    if objective is None and np.count_nonzero(problem.lp.c):
        problem = rival_row(problem)
    start = time.perf_counter()
    binaries = list(problem.binary_vids)
    if len(binaries) > ORACLE_BINARY_CAP:
        raise ValueError(
            f"oracle refuses {len(binaries)} binaries (cap {ORACLE_BINARY_CAP})")
    lp = milp_to_lp(problem, objective)
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
        if outcome.value < best_value:
            best_value = outcome.value
            best_point = outcome.point
            if not np.count_nonzero(prep.c):
                break
    status, value = (INFEASIBLE, None) if best_point is None else (OPTIMAL, best_value)
    return MilpOutcome(status, value, best_point, nodes, time.perf_counter() - start)


# The reference loops, ``reference_run`` and ``reference_run_dual``, price
# every column and gather the basic values, the basic bounds and the status
# masks from the core's full arrays on every iteration (``self`` is the core
# they run on).  The core's own loops price only the structural and slack
# columns and carry that state from pivot to pivot; ``loop_records`` runs
# both kinds from the same start.


class LoopRecord(NamedTuple):
    """What the loops did on one core.  ``pivots``: per pivot the row, the
    entering column, and the bytes of its tableau column and of the basic
    values it moved.  ``ends``: the dual loop's verdict with the state after
    it and, when that loop ends primal feasible, the state after phase 2,
    which ends optimal or raises; a state is the iterations, basis,
    statuses and the bytes of ``x`` and of the inverse.  ``failure``: the
    message of a ``SolverFailure``."""

    pivots: list
    ends: list
    failure: Optional[str]


def loop_records(prep, lb, ub, start, cost, dual_max_iter=None):
    """The ``LoopRecord`` of the core's loops and of the reference loops
    from ``start``, each on a core of its own, the core's first; a
    bit-identical rework makes them equal."""
    records = []
    for dual, primal, carried in ((_Simplex.run_dual, _Simplex.run, True),
                                  (reference_run_dual, reference_run, False)):
        record = LoopRecord([], [], None)
        try:
            core = _Simplex(prep, lb, ub, start)
            core._pivot = _recording_pivot(core, record.pivots, carried)
            if dual_max_iter is not None:
                core.dual_max_iter = dual_max_iter
            verdict = dual(core, cost)
            record.ends.append((verdict, *_core_state(core)))
            if verdict:
                primal(core, cost)
                record.ends.append(_core_state(core))
        except SolverFailure as exc:
            record = record._replace(failure=str(exc))
        records.append(record)
    return records


def _recording_pivot(core, pivots, carried):
    """``core._pivot``, first noting the pivot in ``pivots``.  The basic
    values are read before the basis changes, with row ``r`` holding the
    entering column's new value: the core's loops carry them in ``xb``
    (``carried``), the reference loops in ``x``."""
    pivot = core._pivot

    def recorded(r, q, w):
        if carried:
            values = core.xb.copy()
        else:
            values = core.x[core.basis]
            values[r] = core.x[q]
        pivots.append((r, q, w.tobytes(), values.tobytes()))
        pivot(r, q, w)

    return recorded


def _core_state(core):
    return (core.iterations, core.basis.tolist(), core.stat.tobytes(),
            core.x.tobytes(), core.binv.tobytes())


def reference_run(self, cost: np.ndarray) -> None:
    """Minimize ``cost @ x`` from the current state."""
    A = self.rows.A
    lo, hi, x, stat = self.lo, self.hi, self.x, self.stat
    tol = PIVOT_TOL
    bland = False
    stall = 0
    best = None  # objective at the last improving iteration
    movable = (hi - lo) > 0.0  # bounds stay fixed within one run
    while True:
        if self.iterations >= self.max_iter:
            raise SolverFailure("simplex iteration limit exceeded")
        self.iterations += 1

        y = self.binv.T @ cost[self.basis]
        d = cost - A.T @ y
        eligible = (((stat == _AT_LOWER) & (d < -tol))
                    | ((stat == _AT_UPPER) & (d > tol))) & movable
        if not eligible.any():
            if self._refreshed():
                continue
            return

        idx = eligible.nonzero()[0]
        if bland:
            q = int(idx[0])
        else:
            q = int(idx[np.abs(d[idx]).argmax()])
        sigma = 1.0 if stat[q] == _AT_LOWER else -1.0

        z = float(cost @ x)
        if best is None or z < best - 1e-11 * max(1.0, abs(best)):
            best, stall = z, 0
        else:
            stall += 1
            if stall > self.stall_limit:
                bland = True

        w = self.binv @ A[:, q]
        xb = x[self.basis]
        delta = -sigma * w
        steps = np.full(self.m, INF)
        up_mask = delta > tol
        dn_mask = delta < -tol
        hib = hi[self.basis]
        lob = lo[self.basis]
        steps[up_mask] = (hib[up_mask] - xb[up_mask]) / delta[up_mask]
        steps[dn_mask] = (lob[dn_mask] - xb[dn_mask]) / delta[dn_mask]
        np.maximum(steps, 0.0, out=steps)
        t_basic = float(steps.min()) if self.m else INF
        t_own = float(hi[q] - lo[q])

        if t_basic == INF and t_own == INF:
            raise SolverFailure("unbounded direction")

        if t_own <= t_basic:
            # bound flip: entering variable crosses to its other bound
            x[self.basis] = xb - sigma * t_own * w
            if stat[q] == _AT_LOWER:
                x[q] = hi[q]
                stat[q] = _AT_UPPER
            else:
                x[q] = lo[q]
                stat[q] = _AT_LOWER
            continue

        blocking = (steps <= t_basic + 1e-12).nonzero()[0]
        if bland:
            r = int(blocking[self.basis[blocking].argmin()])
        else:
            r = int(blocking[np.abs(w[blocking]).argmax()])
        leaving = int(self.basis[r])
        x[self.basis] = xb - sigma * t_basic * w
        x[q] = (lo[q] if stat[q] == _AT_LOWER else hi[q]) + sigma * t_basic
        x[leaving] = hi[leaving] if delta[r] > 0 else lo[leaving]
        stat[leaving] = _AT_UPPER if delta[r] > 0 else _AT_LOWER
        self._pivot(r, q, w)



def reference_run_dual(self, cost: np.ndarray) -> Optional[bool]:
    """Bounded dual simplex: pivot basic columns out of their bound
    violations, the largest first, keeping the reduced costs of ``cost``
    sign-feasible.

    True once every basic column is within its bounds (up to
    ``PIVOT_TOL`` scaled by its magnitude).  False when a violated row
    has no entering column and its violation exceeds what the rows'
    feasibility tolerances (``row_tol``) and any near-zero tableau entry
    could make up: the problem is then infeasible by the rule phase 1
    applies.  None to give up: the cap of ``dual_max_iter`` iterations,
    or a violated row that tolerance might still close.
    """
    rows = self.rows
    A, ncols = rows.A, rows.ncols
    lo, hi, x, stat = self.lo, self.hi, self.x, self.stat
    tol = PIVOT_TOL
    span = hi - lo
    movable = span > 0.0
    limit = self.iterations + self.dual_max_iter
    while True:
        xb = x[self.basis]
        below = lo[self.basis] - xb
        above = xb - hi[self.basis]
        viol = np.maximum(below, above)
        bad = viol > tol * np.maximum(1.0, np.abs(xb))
        if not bad.any():
            if self._refreshed():
                continue
            return True
        if self.iterations >= limit:
            return None

        r = int(np.where(bad, viol, -INF).argmax())
        p = int(self.basis[r])
        rise = bool(below[r] > above[r])
        alpha = self.binv[r] @ A
        # how far x_p moves toward its violated bound per unit rise of x_j
        g = -alpha if rise else alpha
        at_lo, at_hi = stat == _AT_LOWER, stat == _AT_UPPER
        eligible = movable & ((at_lo & (g > tol)) | (at_hi & (g < -tol)))
        if not eligible.any():
            if self._refreshed():
                continue
            helps = movable & ((at_lo & (g > 0)) | (at_hi & (g < 0)))
            room = span.copy()
            room[rows.n:ncols] = np.minimum(span[rows.n:ncols],
                                            self._slack_room())
            reach = (np.abs(self.binv[r]) @ rows.row_tol
                     + float((np.abs(g[helps]) * room[helps]).sum()))
            if p >= ncols:  # an artificial's own row may miss by row_tol
                reach += rows.row_tol[p - ncols]
            return False if viol[r] > reach else None
        self.iterations += 1

        idx = eligible.nonzero()[0]
        d = cost - A.T @ (self.binv.T @ cost[self.basis])
        ratio = np.abs(d[idx]) / np.abs(g[idx])
        # among tied ratios the largest pivot, then the lowest column
        tied = ratio <= ratio.min() + tol
        q = int(idx[np.where(tied, np.abs(g[idx]), -1.0).argmax()])
        w = self.binv @ A[:, q]
        target = lo[p] if rise else hi[p]
        t = (x[p] - target) / w[r]
        x[self.basis] -= t * w
        x[q] += t
        x[p] = target
        stat[p] = _AT_LOWER if rise else _AT_UPPER
        self._pivot(r, q, w)
