"""Dense bounded-variable simplex for small LPs, cold or warm-started.

Geared to the LP relaxations coming out of network encodings: tens of rows,
dense data.  ``prepare`` fixes the rows and objective; each solve takes its
own bounds.  A nonbasic column sits at the bound its status names, or at
the other when that one is infinite (no column is free).  A cold solve is
a two-phase primal simplex: Dantzig pricing by default, switching
permanently to Bland's rule once more than ``stall_limit`` iterations in a
row have not lowered the objective, so degenerate problems terminate.
Phase 1 drives one artificial variable per row to zero, which gives uniform
handling of equality rows.  A problem without rows takes the same path, and
its primal loop ends by bound flips alone.

A warm solve starts from a given ``Basis`` of the same rows.  Either it is
an earlier optimal solve's (branch and bound hands each child its
parent's), which stays dual feasible under new variable bounds, since the
costs are unchanged, or zero for sense ``"feas"``; or it is a crash basis
(``crash_basis``; branch and bound seeds each root with the forward pass of
its encoding), which is often primal feasible but need not be dual
feasible.  A bounded dual simplex restores primal feasibility, and for an
objective the primal loop then optimizes from there.  The dual loop proves
infeasibility only when a row stays out of reach even with every row given
its feasibility tolerance, the rule phase 1 judges by; on its iteration cap,
a singular basis or an undecided row it gives up, and the solve starts again
cold.

The basis inverse is kept explicitly and updated per pivot, with periodic
refactorization for drift control; before either loop decides how it ends,
a state that pivoted since its last refactorization is refactored and
re-priced once, so stale arithmetic cannot end a solve early.  A solve
therefore ends on an exact inverse, and only the basic values, moved by
bound flips since, are computed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

INF = float("inf")

LE = "<="
GE = ">="
EQ = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

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
        if (np.isneginf(self.lb) & np.isposinf(self.ub)).any():
            raise ValueError("free column: every column needs a finite bound")
        if self.sense not in ("min", "max", "feas"):
            raise ValueError(f"unknown sense {self.sense!r}")
        for col in self.binaries:
            if not 0 <= col < n:
                raise ValueError(f"binary tag {col} out of range")


def _replace_unchecked(p: LpProblem, **changes) -> LpProblem:
    """``dataclasses.replace`` without re-running ``__post_init__``, for
    edits that keep already-checked data valid."""
    edited = object.__new__(LpProblem)
    edited.__dict__.update(p.__dict__, **changes)
    return edited


class Basis(NamedTuple):
    """A basis to warm-start a solve of the same rows: the basic column of
    each row, every column's status and the basis inverse.  An optimal solve
    returns its final one, inverse included; ``crash_basis`` builds one
    without an inverse, which the solve computes itself.  Solves copy it, so
    one value can seed many."""

    columns: np.ndarray
    status: np.ndarray
    inverse: Optional[np.ndarray]


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    iterations: int = 0
    basis: Optional[Basis] = None  # set on every optimal solve


class _Prepared:
    """Rows and objective shared by every solve of one problem (bounds vary).

    Columns are laid out structural | slack | artificial, with both the slack
    and artificial blocks as identity matrices; artificial signs live in
    their bounds instead of their columns.  ``row_tol`` is each row's
    feasibility tolerance, ``FEAS_TOL`` scaled by ``max(1, |rhs|)``.
    ``cmin`` is the objective to minimize, ``cost`` the same over every
    column, None for sense ``"feas"``.
    """

    __slots__ = ("A", "rhs", "rel", "m", "n", "ncols", "total", "slack_lo",
                 "slack_hi", "row_tol", "is_le", "is_ge", "sense", "cmin", "cost")

    def __init__(self, p: LpProblem):
        m, n = p.a.shape
        self.m, self.n = m, n
        self.ncols = n + m
        self.total = n + 2 * m
        eye = np.eye(m)
        self.A = np.hstack([p.a, eye, eye])
        self.A.setflags(write=False)
        self.rhs = p.rhs.astype(np.float64)
        self.rel = tuple(p.rel)
        for r in self.rel:
            if r not in (LE, GE, EQ):
                raise ValueError(f"unknown relation {r!r}")
        self.is_le = np.array([r == LE for r in self.rel], dtype=bool)
        self.is_ge = np.array([r == GE for r in self.rel], dtype=bool)
        self.slack_lo = np.where(self.is_ge, -INF, 0.0)
        self.slack_hi = np.where(self.is_le, INF, 0.0)
        self.row_tol = FEAS_TOL * np.maximum(1.0, np.abs(self.rhs))
        self.sense = p.sense
        self.cmin = np.zeros(n) if p.sense == "feas" else \
            (-p.c if p.sense == "max" else p.c).astype(np.float64)
        self.cost = None if p.sense == "feas" else \
            np.concatenate([self.cmin, np.zeros(2 * m)])


class _Simplex:
    """One solve's worth of mutable state; cheap to construct per node.

    Starts cold from the all-artificial basis, or warm from ``start``, an
    earlier solve's final basis or a crash basis, with the artificials
    already closed; either way ``_place`` puts the nonbasic columns.
    """

    def __init__(self, prep: _Prepared, lb: np.ndarray, ub: np.ndarray,
                 start: Optional[Basis] = None):
        self.prep = prep
        m, total = prep.m, prep.total
        self.m = m
        self.lo = np.concatenate([lb, prep.slack_lo, np.zeros(m)])
        self.hi = np.concatenate([ub, prep.slack_hi, np.zeros(m)])
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.max_iter = 500 + 60 * total
        self.dual_max_iter = 50 + 4 * m
        self.stall_limit = 40
        if start is None:
            self._start_cold()
        else:
            self._start_warm(start)

    def _place(self, stat: np.ndarray) -> None:
        """Nonbasic columns sit at the bound their status in ``stat`` names,
        or at the other one where that bound is infinite (no column is
        free); the caller sets the basic values."""
        lo, hi = self.lo, self.hi
        upper = np.where(stat == _AT_UPPER, hi < INF, lo == -INF)
        self.stat = np.where(stat == _BASIC, _BASIC,
                             np.where(upper, _AT_UPPER, _AT_LOWER)).astype(np.int8)
        self.x = np.where(upper, hi, lo)

    def _start_cold(self) -> None:
        prep, lo, hi = self.prep, self.lo, self.hi
        ncols = prep.ncols
        self._place(np.full(prep.total, _AT_LOWER))
        resid = prep.rhs - prep.A[:, :ncols] @ self.x[:ncols]
        self.art_sign = np.where(resid >= 0.0, 1.0, -1.0)
        lo[ncols:] = np.where(resid >= 0.0, 0.0, -INF)
        hi[ncols:] = np.where(resid >= 0.0, INF, 0.0)
        self.x[ncols:] = resid
        self.stat[ncols:] = _BASIC
        self.basis = np.arange(ncols, prep.total)
        self.binv = np.eye(prep.m)  # initial basis is the artificial identity

    def _start_warm(self, start: Basis) -> None:
        """The basics follow from the rows; a basis without an inverse is
        inverted here."""
        self._place(start.status)
        self.basis = start.columns.copy()
        if start.inverse is None:
            self._refactor()
        else:
            self.binv = start.inverse.copy()
            self._solve_basics()

    def _solve_basics(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.prep.rhs - self.prep.A @ xn)

    def _refactor(self) -> None:
        B = self.prep.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise SolverFailure("singular basis matrix") from None
        self._solve_basics()
        self.pivots_since_refactor = 0

    def _refreshed(self) -> bool:
        """Refactor if the inverse has pivoted since its last
        refactorization, so stale arithmetic cannot decide how a loop ends.
        True when it did: the caller prices again before deciding."""
        if self.pivots_since_refactor == 0:
            return False
        self._refactor()
        return True

    def _pivot(self, r: int, q: int, w: np.ndarray) -> None:
        """Column ``q`` becomes basic in row ``r``, where ``w`` is
        ``binv @ A[:, q]``; the caller has moved the values and set the
        leaving column's status."""
        self.stat[q] = _BASIC
        self.basis[r] = q
        # eta update of the inverse: column r of the new basis is A[:, q]
        row_r = self.binv[r] / w[r]
        self.binv -= w[:, None] * row_r
        self.binv[r] = row_r
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    def run(self, cost: np.ndarray, allow_unbounded: bool) -> str:
        """Minimize ``cost @ x`` from the current state.  Returns a status."""
        A = self.prep.A
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
                return OPTIMAL

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
            x[q] = (lo[q] if stat[q] == _AT_LOWER else hi[q]) + sigma * t_basic
            x[leaving] = hi[leaving] if delta[r] > 0 else lo[leaving]
            stat[leaving] = _AT_UPPER if delta[r] > 0 else _AT_LOWER
            self._pivot(r, q, w)

    def run_dual(self, cost: Optional[np.ndarray]) -> Optional[bool]:
        """Bounded dual simplex: pivot basic columns out of their bound
        violations, the largest first, keeping the reduced costs of ``cost``
        (all zero when None) sign-feasible.

        True once every basic column is within its bounds (up to
        ``PIVOT_TOL`` scaled by its magnitude).  False when a violated row
        has no entering column and its violation exceeds what the rows'
        feasibility tolerances (``row_tol``) and any near-zero tableau entry
        could make up: the problem is then infeasible by the rule phase 1
        applies.  None to give up: the cap of ``dual_max_iter`` iterations,
        or a violated row that tolerance might still close.
        """
        prep = self.prep
        A, ncols = prep.A, prep.ncols
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
                room[prep.n:ncols] = np.minimum(span[prep.n:ncols],
                                                self._slack_room())
                reach = (np.abs(self.binv[r]) @ prep.row_tol
                         + float((np.abs(g[helps]) * room[helps]).sum()))
                if p >= ncols:  # an artificial's own row may miss by row_tol
                    reach += prep.row_tol[p - ncols]
                return False if viol[r] > reach else None
            self.iterations += 1

            idx = eligible.nonzero()[0]
            if cost is None:
                ratio = np.zeros(idx.size)
            else:
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

    def _slack_room(self) -> np.ndarray:
        """How far each row's slack can move off zero, the bound it sits at
        when nonbasic: its row's activity range over the structural bounds,
        widened by the row's tolerance."""
        prep, n = self.prep, self.prep.n
        a, lb, ub = prep.A[:, :n], self.lo[:n], self.hi[:n]
        with np.errstate(invalid="ignore"):  # 0 * inf, discarded by where
            act_lo = np.where(a > 0, a * lb, np.where(a < 0, a * ub, 0.0)).sum(axis=1)
            act_hi = np.where(a > 0, a * ub, np.where(a < 0, a * lb, 0.0)).sum(axis=1)
        room = np.where(prep.is_le, prep.rhs - act_lo, act_hi - prep.rhs)
        return np.maximum(room, 0.0) + prep.row_tol

    def phase_one(self) -> bool:
        """Minimize the artificials' total; feasible iff each row's residual
        is within the tolerance ``_certify`` allows that row."""
        ncols = self.prep.ncols
        cost = np.zeros(self.prep.total)
        cost[ncols:] = self.art_sign
        self.run(cost, allow_unbounded=False)
        self._solve_basics()
        return bool((np.abs(self.x[ncols:]) <= self.prep.row_tol).all())

    def close_phase_one(self) -> None:
        """Pin artificials at zero so phase 2 cannot reuse them."""
        ncols = self.prep.ncols
        self.lo[ncols:] = 0.0
        self.hi[ncols:] = 0.0
        nb_art = self.stat[ncols:] != _BASIC
        self.x[ncols:][nb_art] = 0.0
        self.stat[ncols:][nb_art] = _AT_LOWER


def _certify(prep: _Prepared, lb, ub, point: np.ndarray) -> None:
    """Raise unless ``point`` is within ``FEAS_TOL`` of its bounds and each
    row within its ``row_tol``; names the first violated row."""
    if (point < lb - FEAS_TOL).any() or (point > ub + FEAS_TOL).any():
        raise SolverFailure("solution violates variable bounds")
    lhs = prep.A[:, :prep.n] @ point
    rhs, slack = prep.rhs, prep.row_tol
    violated = np.where(prep.is_le, lhs > rhs + slack,
                        np.where(prep.is_ge, lhs < rhs - slack,
                                 np.abs(lhs - rhs) > slack))
    if violated.any():
        i = int(violated.argmax())
        raise SolverFailure(f"row {i} violated: {lhs[i]} {prep.rel[i]} {rhs[i]}")


def _finish(core: _Simplex, spent: int = 0) -> LpOutcome:
    """Phase 2 from a primal feasible state, then the certificate check
    against the structural bounds the core was built from.  ``spent`` counts
    iterations of an abandoned warm attempt."""
    prep = core.prep
    if prep.cost is not None:
        status = core.run(prep.cost, allow_unbounded=True)
        if status == UNBOUNDED:
            return LpOutcome(UNBOUNDED, iterations=spent + core.iterations)
        core._solve_basics()

    point = core.x[:prep.n].copy()
    _certify(prep, core.lo[:prep.n], core.hi[:prep.n], point)
    raw = float(prep.cmin @ point)
    value = -raw if prep.sense == "max" else raw
    return LpOutcome(OPTIMAL, value, point, spent + core.iterations,
                     Basis(core.basis, core.stat, core.binv))


def crash_basis(p: LpProblem, basic: np.ndarray, upper) -> Basis:
    """A starting basis for ``p``'s rows, without an inverse.

    ``basic[i]`` is the structural column basic in row ``i``, or -1 for
    that row's slack.  The columns in ``upper`` are marked at their upper
    bound, every other nonbasic column at its lower one, which the solve
    reads as the other bound where that one is infinite.  The caller vouches
    that the basic columns give a nonsingular basis matrix; a singular one
    only costs the solve its warm start.
    """
    m, n = p.a.shape
    basic = np.asarray(basic, dtype=np.int64)
    columns = np.where(basic >= 0, basic, n + np.arange(m))
    status = np.full(n + 2 * m, _AT_LOWER, dtype=np.int8)
    status[list(upper)] = _AT_UPPER
    status[columns] = _BASIC
    return Basis(columns, status, None)


def solve_prepared(prep: _Prepared, lb, ub, warm: Optional[Basis] = None) -> LpOutcome:
    """Core solve of a prepared problem under bounds ``lb``/``ub``; skips
    input validation.

    Branch-and-bound uses this to re-solve one problem under many bound
    vectors without re-validating or re-assembling the constraint matrix,
    warm-starting each from ``warm``.  That is either the basis of an
    earlier optimal solve of ``prep``, which is dual feasible, or a
    ``crash_basis``, which need not be: the dual loop then only repairs
    primal infeasibility (immediately done when the crash basis is primal
    feasible) and the primal loop optimizes from there.  A warm attempt that
    gives up or fails is dropped for a cold solve; its iterations still
    count.
    """
    if (lb > ub).any():
        return LpOutcome(INFEASIBLE)
    spent = 0
    if warm is not None:
        core = None
        try:
            core = _Simplex(prep, lb, ub, warm)
            feasible = core.run_dual(prep.cost)
            if feasible is False:
                return LpOutcome(INFEASIBLE, iterations=core.iterations)
            if feasible:
                # a parent's costs were bounded, so an unbounded answer
                # after its basis is numerical noise; either way the cold
                # solve decides
                outcome = _finish(core)
                if outcome.status != UNBOUNDED:
                    return outcome
        except SolverFailure:
            pass
        spent = 0 if core is None else core.iterations

    core = _Simplex(prep, lb, ub)
    if not core.phase_one():
        return LpOutcome(INFEASIBLE, iterations=spent + core.iterations)
    core.close_phase_one()
    return _finish(core, spent)


def prepare(p: LpProblem) -> _Prepared:
    """Factor out the per-problem rows and objective for repeated solves."""
    return _Prepared(p)


def solve_lp(p: LpProblem) -> LpOutcome:
    """Solve the LP.  Optimal outcomes are re-checked against every
    constraint before being returned; two runs on identical input produce
    identical results."""
    return solve_prepared(prepare(p), p.lb, p.ub)
