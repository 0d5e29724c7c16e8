"""Dense two-phase primal simplex for small bounded-variable LPs.

Geared to the LP relaxations coming out of network encodings: tens of rows,
dense data, every solve independent.  Dantzig pricing by default, switching
permanently to Bland's rule after a stall so degenerate problems terminate.
Phase 1 drives one artificial variable per row to zero, which gives uniform
handling of equality rows.

The basis inverse is kept explicitly and updated per pivot, with periodic
refactorization for drift control; before declaring optimality the state is
refactored and re-priced once, so stale arithmetic cannot end a solve early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

INF = float("inf")

LE = "<="
GE = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3

_REFACTOR_EVERY = 40

FEAS_TOL = 1e-6  # per row, scaled by max(1, |rhs|)
PIVOT_TOL = 1e-9


class SolverFailure(RuntimeError):
    """Numerical breakdown or iteration-limit hit inside the LP core."""


@dataclass(frozen=True)
class LpProblem:
    """Rows ``a @ x REL rhs`` over box-bounded continuous variables.

    ``binaries`` tags columns that a MILP layer may pin; the LP itself treats
    them as continuous within their bounds.
    """

    a: np.ndarray
    rel: tuple
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    sense: str = "min"  # min | max | feas
    binaries: tuple = ()

    def __post_init__(self):
        m, n = self.a.shape
        if self.rhs.shape != (m,) or len(self.rel) != m:
            raise ValueError("relation/rhs size does not match row count")
        if self.lb.shape != (n,) or self.ub.shape != (n,) or self.c.shape != (n,):
            raise ValueError("bounds/objective size does not match column count")
        if not np.isfinite(self.a).all() or not np.isfinite(self.rhs).all():
            raise ValueError("non-finite constraint data")
        if not np.isfinite(self.c).all():
            raise ValueError("non-finite objective data")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("NaN variable bound")
        if self.sense not in ("min", "max", "feas"):
            raise ValueError(f"unknown sense {self.sense!r}")
        for col in self.binaries:
            if not 0 <= col < n:
                raise ValueError(f"binary tag {col} out of range")


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    iterations: int = 0


class _Prepared:
    """Constraint data shared by every solve of one problem (bounds vary).

    Columns are laid out structural | slack | artificial, with both the slack
    and artificial blocks as identity matrices; artificial signs live in
    their bounds instead of their columns.
    """

    __slots__ = ("A", "rhs", "rel", "m", "n", "ncols", "total",
                 "slack_lo", "slack_hi")

    def __init__(self, a: np.ndarray, rel, rhs: np.ndarray):
        m, n = a.shape
        self.m, self.n = m, n
        self.ncols = n + m
        self.total = n + 2 * m
        eye = np.eye(m)
        self.A = np.hstack([a, eye, eye])
        self.A.setflags(write=False)
        self.rhs = rhs.astype(np.float64)
        self.rel = tuple(rel)
        slack_lo = np.zeros(m)
        slack_hi = np.zeros(m)
        for i, r in enumerate(rel):
            if r == LE:
                slack_lo[i], slack_hi[i] = 0.0, INF
            elif r == GE:
                slack_lo[i], slack_hi[i] = -INF, 0.0
            elif r == EQ:
                slack_lo[i], slack_hi[i] = 0.0, 0.0
            else:
                raise ValueError(f"unknown relation {r!r}")
        self.slack_lo = slack_lo
        self.slack_hi = slack_hi


class _Simplex:
    """One solve's worth of mutable state; cheap to construct per node."""

    def __init__(self, prep: _Prepared, lb: np.ndarray, ub: np.ndarray):
        self.prep = prep
        m, ncols, total = prep.m, prep.ncols, prep.total
        self.m = m
        self.lo = np.concatenate([lb, prep.slack_lo, np.zeros(m)])
        self.hi = np.concatenate([ub, prep.slack_hi, np.zeros(m)])

        x = np.zeros(total)
        stat = np.full(total, _AT_LOWER, dtype=np.int8)
        finite_lo = np.isfinite(self.lo[:ncols])
        finite_hi = np.isfinite(self.hi[:ncols])
        x[:ncols] = np.where(finite_lo, self.lo[:ncols],
                             np.where(finite_hi, self.hi[:ncols], 0.0))
        stat[:ncols] = np.where(finite_lo, _AT_LOWER,
                                np.where(finite_hi, _AT_UPPER, _FREE))

        resid = prep.rhs - prep.A[:, :ncols] @ x[:ncols]
        self.art_sign = np.where(resid >= 0.0, 1.0, -1.0)
        self.lo[ncols:] = np.where(resid >= 0.0, 0.0, -INF)
        self.hi[ncols:] = np.where(resid >= 0.0, INF, 0.0)
        x[ncols:] = resid
        stat[ncols:] = _BASIC
        self.x = x
        self.stat = stat
        self.basis = np.arange(ncols, total)
        self.binv = np.eye(m)  # initial basis is the artificial identity
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.max_iter = 500 + 60 * total
        self.stall_limit = 40

    def _refactor(self) -> None:
        B = self.prep.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise SolverFailure("singular basis matrix") from None
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.prep.rhs - self.prep.A @ xn)
        self.pivots_since_refactor = 0

    def run(self, cost: np.ndarray, allow_unbounded: bool) -> str:
        """Minimize ``cost @ x`` from the current state.  Returns a status."""
        A = self.prep.A
        lo, hi, x, stat = self.lo, self.hi, self.x, self.stat
        tol = PIVOT_TOL
        bland = False
        stall = 0
        best = INF
        movable = (hi - lo) > 0.0  # bounds stay fixed within one run
        while True:
            if self.iterations >= self.max_iter:
                raise SolverFailure("simplex iteration limit exceeded")
            self.iterations += 1

            y = self.binv.T @ cost[self.basis]
            d = cost - A.T @ y
            eligible = ((((stat == _AT_LOWER) & (d < -tol))
                         | ((stat == _AT_UPPER) & (d > tol))) & movable
                        | ((stat == _FREE) & (np.abs(d) > tol)))
            if not eligible.any():
                if self.pivots_since_refactor == 0:
                    return OPTIMAL
                # rule out stale arithmetic before declaring optimality
                self._refactor()
                continue

            idx = eligible.nonzero()[0]
            if bland:
                q = int(idx[0])
            else:
                q = int(idx[np.abs(d[idx]).argmax()])
            dq = float(d[q])
            if stat[q] == _AT_UPPER:
                sigma = -1.0
            elif stat[q] == _AT_LOWER:
                sigma = 1.0
            else:
                sigma = 1.0 if dq < 0 else -1.0

            z = float(cost @ x)
            if z < best - 1e-11 * max(1.0, abs(best)):
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
            span = hi[q] - lo[q]
            t_own = float(span) if np.isfinite(span) else INF

            if t_basic == INF and t_own == INF:
                if allow_unbounded:
                    return UNBOUNDED
                raise SolverFailure("unexpected unbounded direction")

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
            x[q] = (lo[q] if stat[q] == _AT_LOWER
                    else hi[q] if stat[q] == _AT_UPPER else x[q]) + sigma * t_basic
            x[leaving] = hi[leaving] if delta[r] > 0 else lo[leaving]
            stat[leaving] = _AT_UPPER if delta[r] > 0 else _AT_LOWER
            stat[q] = _BASIC
            self.basis[r] = q
            # eta update of the inverse: column r of the new basis is A[:, q]
            wr = w[r]
            row_r = self.binv[r] / wr
            self.binv -= w[:, None] * row_r
            self.binv[r] = row_r
            self.pivots_since_refactor += 1
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactor()

    def phase_one(self) -> bool:
        """Minimize the artificials' total; feasible iff each row's residual
        is within the tolerance ``_certify`` allows that row."""
        ncols = self.prep.ncols
        cost = np.zeros(self.prep.total)
        cost[ncols:] = self.art_sign
        self.run(cost, allow_unbounded=False)
        self._refactor()
        allowed = FEAS_TOL * np.maximum(1.0, np.abs(self.prep.rhs))
        return bool((np.abs(self.x[ncols:]) <= allowed).all())

    def close_phase_one(self) -> None:
        """Pin artificials at zero so phase 2 cannot reuse them."""
        ncols = self.prep.ncols
        self.lo[ncols:] = 0.0
        self.hi[ncols:] = 0.0
        nb_art = self.stat[ncols:] != _BASIC
        self.x[ncols:][nb_art] = 0.0
        self.stat[ncols:][nb_art] = _AT_LOWER


def _solve_box_only(lb, ub, c, sense: str) -> LpOutcome:
    """No rows: optimize each coordinate against its own bounds."""
    if (lb > ub).any():
        return LpOutcome(INFEASIBLE)
    point = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
    for j in range(c.shape[0]):
        if c[j] > 0:
            if not np.isfinite(lb[j]):
                return LpOutcome(UNBOUNDED)
            point[j] = lb[j]
        elif c[j] < 0:
            if not np.isfinite(ub[j]):
                return LpOutcome(UNBOUNDED)
            point[j] = ub[j]
    value = float(c @ point)
    return LpOutcome(OPTIMAL, -value if sense == "max" else value, point)


def _certify(prep: _Prepared, lb, ub, point: np.ndarray, tol: float) -> None:
    if (point < lb - tol).any() or (point > ub + tol).any():
        raise SolverFailure("solution violates variable bounds")
    if prep.m:
        lhs = prep.A[:, :prep.n] @ point
        for i, r in enumerate(prep.rel):
            slack = tol * max(1.0, abs(prep.rhs[i]))
            if r == LE and lhs[i] > prep.rhs[i] + slack:
                raise SolverFailure(f"row {i} violated: {lhs[i]} <= {prep.rhs[i]}")
            if r == GE and lhs[i] < prep.rhs[i] - slack:
                raise SolverFailure(f"row {i} violated: {lhs[i]} >= {prep.rhs[i]}")
            if r == EQ and abs(lhs[i] - prep.rhs[i]) > slack:
                raise SolverFailure(f"row {i} violated: {lhs[i]} == {prep.rhs[i]}")


def solve_prepared(prep: _Prepared, lb, ub, c, sense: str) -> LpOutcome:
    """Core solve over prepared constraint data; skips input validation.

    Branch-and-bound uses this to re-solve one problem under many bound
    vectors without re-validating or re-assembling the constraint matrix.
    """
    if (lb > ub).any():
        return LpOutcome(INFEASIBLE)
    cmin = np.zeros(prep.n) if sense == "feas" else \
        (-c if sense == "max" else c).astype(np.float64)
    if prep.m == 0:
        return _solve_box_only(lb, ub, cmin, sense)

    core = _Simplex(prep, lb, ub)
    if not core.phase_one():
        return LpOutcome(INFEASIBLE, iterations=core.iterations)
    core.close_phase_one()

    if sense != "feas":
        cost = np.zeros(prep.total)
        cost[:prep.n] = cmin
        status = core.run(cost, allow_unbounded=True)
        if status == UNBOUNDED:
            return LpOutcome(UNBOUNDED, iterations=core.iterations)
        core._refactor()

    point = core.x[:prep.n].copy()
    _certify(prep, lb, ub, point, FEAS_TOL)
    raw = float(cmin @ point)
    value = -raw if sense == "max" else raw
    return LpOutcome(OPTIMAL, value, point, core.iterations)


def prepare(p: LpProblem) -> _Prepared:
    """Factor out the per-problem constraint data for repeated solves."""
    return _Prepared(p.a, p.rel, p.rhs)


def solve_lp(p: LpProblem) -> LpOutcome:
    """Solve the LP.  Optimal outcomes are re-checked against every
    constraint before being returned; two runs on identical input produce
    identical results."""
    return solve_prepared(prepare(p), p.lb, p.ub, p.c, p.sense)
