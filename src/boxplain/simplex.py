"""Dense bounded-variable simplex for small LPs, cold or warm-started.

Geared to the LP relaxations coming out of network encodings: tens of rows,
dense data.  An ``LpProblem`` minimizes ``c @ x``, an all-zero ``c`` as
any other: every feasible point minimizes it, and its duals are zero.  A
solve ends ``OPTIMAL`` or ``INFEASIBLE``; an LP without a finite optimum
raises ``SolverFailure``, as does any numerical breakdown.  ``prepare``
fixes the objective, once per search, on rows prepared once per row array
(``_Rows``, reused by every search over the same ``a``); each solve takes
its own bounds.  A nonbasic column sits at the bound its status names, or
at the other when that one is infinite (no column is free).

A cold solve is a two-phase primal simplex: Dantzig pricing by default,
switching permanently to Bland's rule once more than ``stall_limit``
iterations in a row have not lowered the objective, so degenerate problems
terminate.  Phase 1 minimizes the residuals of one artificial variable per
row, which gives uniform handling of equality rows, and accepts only a
point that passes ``_certify``, the check every optimal outcome passes.
Phase 2 then bounds each artificial between zero and the residual phase 1
left it, so it may shrink an accepted residual but never grow it.  A
problem without rows takes the same path, and its primal loop ends by bound
flips alone.

A warm solve starts from a given ``Basis`` of the same rows.  Either it is
an earlier optimal solve's of the same costs (branch and bound hands each
child its parent's), which stays dual feasible under new variable bounds;
or it is a crash basis (``crash_basis``; branch and bound seeds a root with
the forward pass of its encoding), or the final basis of a solve with other
costs (the root of an earlier rival query over the same rows), either of
which is often nearly primal feasible but need not be dual feasible.  A
bounded dual simplex restores primal feasibility, and the primal loop then
optimizes from there.  The dual loop proves infeasibility only when a row
stays out of reach even with every row given its feasibility tolerance; on
its iteration cap, a singular basis or an undecided row it gives up, and
the solve starts again cold, as it does when the warm attempt raises.

The basis inverse is kept explicitly and updated per pivot; a warm start
inverts a basis that comes without an inverse or with a non-finite one.
Drift has one control: before either loop decides how it ends, a state
that pivoted since its inverse was last checked or refactored checks it.
An inverse whose residual ``max|A_B @ binv - I|`` is within
``_INVERSE_TOL`` is kept and gives the basic values again, any other (NaN
included) is refactored, and either way the loop prices once more, so stale
arithmetic cannot end a solve early.  A solve therefore ends on a checked
inverse, and only the basic values are computed again, when bound flips
have moved them since.  Children inherit that inverse, so along a chain of
warm starts it is the check, not a pivot count, that bounds the drift.

A warm solve, and phase 2 of a cold one, prices only the structural and
slack columns, through a contiguous copy of them (``_Rows.priced``):
the artificials are bounded there and can never enter.  From one pivot to
the next both loops carry the basic values, the basic bounds and one sign
per priced column (+1 or -1 for the direction a nonbasic column can move, 0
for a basic or fixed one) instead of gathering them again and building
status masks every iteration; the dual loop writes the basic values back
into the full point only when it returns.  These are the same pivots, bit
for bit, as the loops that gathered everything per iteration, which
``tests/oracles.py`` keeps as the reference.

Every computation on a basis stays in this module.  Every optimal solve
returns its duals with its basis (``LpOutcome.duals``), and
``branch_floors`` bounds from below, before either is solved, the LP values
of the two problems that pin one of its fractional columns to 0 and to 1:
one bounded dual simplex step along that column's tableau row.  Branch and
bound reads both and nothing else of the basis, which it only hands back
as a warm start.
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

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_BASIC8 = np.int8(_BASIC)
_SIGN = np.array([1.0, -1.0, 0.0])  # entering direction by status

# largest max|A_B @ binv - I| an eta-updated inverse may show and still
# decide how a loop ends; on the benchmark's pools none exceeds 5e-11
_INVERSE_TOL = 1e-9

FEAS_TOL = 1e-6  # per row, scaled by max(1, |rhs|)
# how far past its tolerance, as a share of it, a row of a solve's final
# point may be: phase 2 can end on the tolerance line of a row that phase 1
# left there, and cross it by rounding (1.4e-10 on the near-tie corpus)
_ROUNDING = 1e-6
PIVOT_TOL = 1e-9


class SolverFailure(RuntimeError):
    """Numerical breakdown or iteration-limit hit inside the LP core."""


@dataclass(frozen=True)
class LpProblem:
    """Minimize ``c @ x`` subject to rows ``a @ x REL rhs`` over
    box-bounded continuous variables; an all-zero ``c`` asks for any
    feasible point.

    ``binaries`` tags columns that a MILP layer may pin; the LP itself treats
    them as continuous within their bounds.
    """

    a: np.ndarray
    rel: tuple
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
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
    """A solve's status, with, when optimal, its value, structural point and
    final basis; ``duals`` are the LP duals ``y`` solving ``y B = c_B`` for
    that basis, zero for a zero cost."""

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    iterations: int = 0
    basis: Optional[Basis] = None  # set on every optimal solve
    duals: Optional[np.ndarray] = None  # set on every optimal solve


class _Rows:
    """The rows of one problem, prepared once per row array and shared by
    every objective and every set of bounds solved over them (``prepare``).

    Columns are laid out structural | slack | artificial, with both the slack
    and artificial blocks as identity matrices (``eye``); artificial signs
    live in their bounds instead of their columns.  ``priced`` is a
    contiguous copy of the structural and slack columns, the only ones a
    loop prices once phase 1 is over.
    ``lo_tail``/``hi_tail`` are the slack and the pinned artificial bounds
    that follow a solve's structural ones.  ``row_tol`` is each row's
    feasibility tolerance, ``FEAS_TOL`` scaled by ``max(1, |rhs|)``, and
    ``row_lo``/``row_hi`` are ``rhs`` minus and plus it.  ``source`` holds
    the arrays they were built from: they serve a problem only when its
    ``a``, ``rel`` and ``rhs`` are those same objects (``fits``).  Read-only
    once built.
    """

    __slots__ = ("A", "eye", "priced", "rhs", "rel", "m", "n", "ncols",
                 "total", "lo_tail", "hi_tail", "row_tol", "row_lo", "row_hi",
                 "is_le", "is_ge", "source")

    def __init__(self, p: LpProblem):
        m, n = p.a.shape
        self.m, self.n = m, n
        self.ncols = n + m
        self.total = n + 2 * m
        self.eye = np.eye(m)
        self.eye.setflags(write=False)
        self.A = np.hstack([p.a, self.eye, self.eye])
        self.A.setflags(write=False)
        self.priced = np.ascontiguousarray(self.A[:, :self.ncols])
        self.priced.setflags(write=False)
        self.rhs = p.rhs.astype(np.float64)
        self.rel = tuple(p.rel)
        for r in self.rel:
            if r not in (LE, GE, EQ):
                raise ValueError(f"unknown relation {r!r}")
        self.is_le = np.array([r == LE for r in self.rel], dtype=bool)
        self.is_ge = np.array([r == GE for r in self.rel], dtype=bool)
        self.lo_tail = np.concatenate([np.where(self.is_ge, -INF, 0.0), np.zeros(m)])
        self.hi_tail = np.concatenate([np.where(self.is_le, INF, 0.0), np.zeros(m)])
        self.row_tol = FEAS_TOL * np.maximum(1.0, np.abs(self.rhs))
        self.row_lo = self.rhs - self.row_tol
        self.row_hi = self.rhs + self.row_tol
        self.source = (p.a, p.rel, p.rhs)

    def fits(self, p: LpProblem) -> bool:
        """Whether these are ``p``'s rows: its arrays are the very objects
        they were built from."""
        a, rel, rhs = self.source
        return p.a is a and p.rel is rel and p.rhs is rhs


class _Prepared:
    """One objective over prepared rows, shared by every solve of one
    search (bounds vary): ``rows`` (``_Rows``), ``c`` the objective to
    minimize, and ``cost`` the same over every column, zero past ``c``."""

    __slots__ = ("rows", "c", "cost")

    def __init__(self, rows: _Rows, c: np.ndarray):
        self.rows = rows
        self.c = c.astype(np.float64)
        self.cost = np.concatenate([self.c, np.zeros(2 * rows.m)])


def _signs(lo: np.ndarray, hi: np.ndarray, stat: np.ndarray) -> np.ndarray:
    """The direction each nonbasic column with bounds ``lo``/``hi`` and
    status ``stat`` can move off its bound: +1 up from its lower bound, -1
    down from its upper one, 0 for a basic or fixed column.  A column prices
    as entering when its sign times its reduced cost (or tableau entry)
    clears the pivot tolerance, so the loops keep this one vector instead of
    status masks and update it at each pivot."""
    return np.where(hi > lo, _SIGN[stat], 0.0)


class _Simplex:
    """One solve's worth of mutable state; cheap to construct per node.

    Starts cold from the all-artificial basis, or warm from ``start``, an
    earlier solve's final basis or a crash basis, with the artificials
    already closed; either way ``_place`` puts the nonbasic columns.

    ``x`` holds every column's value and ``xb`` the basic ones, row by row.
    Between loops the two agree; inside ``run_dual`` only ``xb`` moves, and
    ``x`` takes it back when the loop returns.  ``moved`` is False while the
    basic values are those ``_solve_basics`` last computed from the rows,
    and a pivot or a bound flip sets it.
    """

    def __init__(self, prep: _Prepared, lb: np.ndarray, ub: np.ndarray,
                 start: Optional[Basis] = None):
        rows = prep.rows
        self.prep, self.rows = prep, rows
        m, total = rows.m, rows.total
        self.m = m
        self.lo = np.concatenate((lb, rows.lo_tail))
        self.hi = np.concatenate((ub, rows.hi_tail))
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.moved = True
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
        # _AT_LOWER and _AT_UPPER are 0 and 1, so ``upper`` is the status
        self.stat = np.where(stat == _BASIC, _BASIC8, upper.view(np.int8))
        self.x = np.where(upper, hi, lo)

    def _start_cold(self) -> None:
        rows, lo, hi = self.rows, self.lo, self.hi
        ncols = rows.ncols
        self._place(np.full(rows.total, _AT_LOWER))
        resid = rows.rhs - rows.A[:, :ncols] @ self.x[:ncols]
        self.art_sign = np.where(resid >= 0.0, 1.0, -1.0)
        lo[ncols:] = np.where(resid >= 0.0, 0.0, -INF)
        hi[ncols:] = np.where(resid >= 0.0, INF, 0.0)
        self.x[ncols:] = resid
        self.stat[ncols:] = _BASIC
        self.basis = np.arange(ncols, rows.total)
        self.binv = np.eye(rows.m)  # initial basis is the artificial identity
        self.xb = resid.copy()

    def _start_warm(self, start: Basis) -> None:
        """The basics follow from the rows; a basis without an inverse, or
        with a non-finite one, is inverted here."""
        self._place(start.status)
        self.basis = start.columns.copy()
        if start.inverse is None or not np.isfinite(start.inverse).all():
            self._refactor()
        else:
            self.binv = start.inverse.copy()
            self._solve_basics()

    def _solve_basics(self) -> None:
        x, basis = self.x, self.basis
        x[basis] = 0.0  # the rows give the basics from the nonbasic values
        self.xb = self.binv @ (self.rows.rhs - self.rows.A @ x)
        x[basis] = self.xb
        self.moved = False

    def _refactor(self) -> None:
        B = self.rows.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise SolverFailure("singular basis matrix") from None
        self._solve_basics()
        self.pivots_since_refactor = 0

    def _refreshed(self) -> bool:
        """Check the inverse if it has pivoted since it was last checked or
        refactored, so stale arithmetic cannot decide how a loop ends: one
        that passes (``_INVERSE_TOL``) recomputes the basic values, any
        other, NaN included, is refactored.  True when it did either: the
        caller prices again before deciding."""
        if self.pivots_since_refactor == 0:
            return False
        resid = self.rows.A[:, self.basis] @ self.binv
        resid -= self.rows.eye
        if np.abs(resid, out=resid).max() <= _INVERSE_TOL:
            self._solve_basics()
            self.pivots_since_refactor = 0
        else:
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
        self.moved = True

    def run(self, cost: np.ndarray, artificials: bool = False) -> None:
        """Minimize ``cost @ x`` from the current state, ending optimal;
        an unbounded direction raises ``SolverFailure``.

        Prices the structural and slack columns, and the artificials too
        when ``artificials`` is set (phase 1, before they are bounded).
        """
        rows = self.rows
        A = rows.A
        priced = A if artificials else rows.priced
        k = priced.shape[1]
        lo, hi, x, stat, basis = self.lo, self.hi, self.x, self.stat, self.basis
        tol = PIVOT_TOL
        bland = False
        stall = 0
        best = None  # objective at the last improving iteration
        sign = _signs(lo[:k], hi[:k], stat[:k])  # bounds stay fixed within one run
        c_priced, cb = cost[:k], cost[basis]
        lob, hib = lo[basis], hi[basis]
        unreached = np.full(self.m, INF)  # the step of a row delta leaves alone
        while True:
            if self.iterations >= self.max_iter:
                raise SolverFailure("simplex iteration limit exceeded")
            self.iterations += 1

            # entering: the most negative sign * reduced cost (Dantzig)
            sd = sign * (c_priced - priced.T @ (self.binv.T @ cb))
            q = int(sd.argmin())
            if not sd[q] < -tol:
                if self._refreshed():
                    continue
                return
            if bland:
                q = int((sd < -tol).argmax())
            sigma = float(sign[q])

            z = float(cost @ x)
            if best is None or z < best - 1e-11 * max(1.0, abs(best)):
                best, stall = z, 0
            else:
                stall += 1
                if stall > self.stall_limit:
                    bland = True

            w = self.binv @ A[:, q]
            xb = self.xb
            delta = -sigma * w
            steps = np.divide(np.where(delta > 0.0, hib, lob) - xb, delta,
                              out=unreached.copy(), where=np.abs(delta) > tol)
            np.maximum(steps, 0.0, out=steps)
            t_basic = float(steps.min()) if self.m else INF
            t_own = float(hi[q] - lo[q])

            if t_basic == INF and t_own == INF:
                raise SolverFailure("unbounded direction")

            if t_own <= t_basic:
                # bound flip: entering variable crosses to its other bound
                xb -= sigma * t_own * w
                x[basis] = xb
                if sigma > 0.0:
                    x[q] = hi[q]
                    stat[q] = _AT_UPPER
                else:
                    x[q] = lo[q]
                    stat[q] = _AT_LOWER
                sign[q] = -sigma
                self.moved = True
                continue

            blocking = steps <= t_basic + 1e-12
            if bland:
                r = int(np.where(blocking, basis, rows.total).argmin())
            else:
                r = int(np.where(blocking, np.abs(w), -1.0).argmax())
            leaving = int(basis[r])
            xb -= sigma * t_basic * w
            x[basis] = xb
            xb[r] = x[q] = (lo[q] if sigma > 0.0 else hi[q]) + sigma * t_basic
            upper = delta[r] > 0
            x[leaving] = hib[r] if upper else lob[r]
            stat[leaving] = _AT_UPPER if upper else _AT_LOWER
            if leaving < k:
                sign[leaving] = (-1.0 if upper else 1.0) if hib[r] > lob[r] else 0.0
            sign[q] = 0.0
            lob[r], hib[r], cb[r] = lo[q], hi[q], cost[q]
            self._pivot(r, q, w)

    def run_dual(self, cost: np.ndarray) -> Optional[bool]:
        """Bounded dual simplex: pivot basic columns out of their bound
        violations, the largest first, keeping the reduced costs of ``cost``
        sign-feasible; under a zero cost every ratio ties at 0, so each pivot
        is the largest one.

        True once every basic column is within its bounds (up to
        ``PIVOT_TOL`` scaled by its magnitude).  False when a violated row
        has no entering column and its violation exceeds what the rows'
        feasibility tolerances (``row_tol``) and any near-zero tableau entry
        could make up: the problem is then infeasible by the rule phase 1
        applies.  None to give up: the cap of ``dual_max_iter`` iterations,
        or a violated row that tolerance might still close.

        Only the structural and slack columns are priced: the artificials
        are pinned at zero.  The basic values ``xb``, the basic bounds and
        the entering signs (``_signs``) are carried from pivot to pivot,
        and ``x`` takes the basic values back on return.
        """
        if not self.m:
            return True  # no rows, nothing to violate
        rows = self.rows
        A, priced, ncols = rows.A, rows.priced, rows.ncols
        lo, hi, x, stat, basis = self.lo, self.hi, self.x, self.stat, self.basis
        tol = PIVOT_TOL
        sign = _signs(lo[:ncols], hi[:ncols], stat[:ncols])
        lob, hib = lo[basis], hi[basis]
        c_priced, cb = cost[:ncols], cost[basis]
        unpriced = np.full(ncols, INF)  # the ratio of a column that cannot enter
        limit = self.iterations + self.dual_max_iter
        while True:
            xb = self.xb
            below = lob - xb
            above = xb - hib
            viol = np.maximum(below, above)
            scale = np.abs(xb)
            np.maximum(scale, 1.0, out=scale)
            scale *= tol
            score = np.where(viol > scale, viol, -INF)
            r = int(score.argmax())
            if score[r] == -INF:  # no row violated
                if self._refreshed():
                    continue
                x[basis] = xb
                return True
            if self.iterations >= limit:
                x[basis] = xb
                return None

            p = int(basis[r])
            rise = bool(below[r] > above[r])
            alpha = self.binv[r] @ priced
            # how far x_p moves toward its violated bound per unit rise of x_j
            g = -alpha if rise else alpha
            # |g| where column j may enter, at most PIVOT_TOL elsewhere
            sg = sign * g
            q = int(sg.argmax())
            if not sg[q] > tol:  # no entering column
                if self._refreshed():
                    continue
                x[basis] = xb
                helps = sg > 0
                room = hi[:ncols] - lo[:ncols]
                room[rows.n:] = np.minimum(room[rows.n:], self._slack_room())
                reach = (np.abs(self.binv[r]) @ rows.row_tol
                         + float((np.abs(g[helps]) * room[helps]).sum()))
                if p >= ncols:  # an artificial's own row may miss by row_tol
                    reach += rows.row_tol[p - ncols]
                return False if viol[r] > reach else None
            self.iterations += 1

            d = c_priced - priced.T @ (self.binv.T @ cb)
            ratio = np.divide(np.abs(d), sg, out=unpriced.copy(), where=sg > tol)
            # among tied ratios the largest pivot, then the lowest column
            tied = ratio <= ratio.min() + tol
            q = int(np.where(tied, sg, -1.0).argmax())
            w = self.binv @ A[:, q]
            target = lob[r] if rise else hib[r]
            t = (xb[r] - target) / w[r]
            xb -= t * w
            xb[r] = x[q] + t
            x[p] = target
            stat[p] = _AT_LOWER if rise else _AT_UPPER
            if p < ncols:
                sign[p] = (1.0 if rise else -1.0) if hib[r] > lob[r] else 0.0
            sign[q] = 0.0
            lob[r], hib[r], cb[r] = lo[q], hi[q], cost[q]
            self._pivot(r, q, w)

    def _slack_room(self) -> np.ndarray:
        """How far each row's slack can move off zero, the bound it sits at
        when nonbasic: its row's activity range over the structural bounds,
        widened by the row's tolerance."""
        rows, n = self.rows, self.rows.n
        a, lb, ub = rows.A[:, :n], self.lo[:n], self.hi[:n]
        pos, neg = a > 0, a < 0
        # each entry times the bound that minimizes (maximizes) its term; a
        # zero entry meets 0, never an infinite bound
        act_lo = (a * np.where(pos, lb, np.where(neg, ub, 0.0))).sum(axis=1)
        act_hi = (a * np.where(pos, ub, np.where(neg, lb, 0.0))).sum(axis=1)
        room = np.where(rows.is_le, rows.rhs - act_lo, act_hi - rows.rhs)
        return np.maximum(room, 0.0) + rows.row_tol

    def phase_one(self) -> bool:
        """Minimize the artificials' total; feasible iff the structural
        point it ends on passes ``_certify``, the check an optimal outcome
        must pass."""
        rows, n = self.rows, self.rows.n
        cost = np.zeros(rows.total)
        cost[rows.ncols:] = self.art_sign
        self.run(cost, artificials=True)
        self._solve_basics()
        try:
            _certify(self.prep, self.lo[:n], self.hi[:n], self.x[:n])
        except SolverFailure:
            return False
        return True

    def close_phase_one(self) -> None:
        """Pin the nonbasic artificials at zero and bound each basic one
        between zero and the residual phase 1 left it, so phase 2 cannot
        reuse an artificial and can shrink an accepted residual but never
        grow it."""
        ncols = self.rows.ncols
        nb_art = self.stat[ncols:] != _BASIC
        self.x[ncols:][nb_art] = 0.0
        self.stat[ncols:][nb_art] = _AT_LOWER
        self.lo[ncols:] = np.minimum(self.x[ncols:], 0.0)
        self.hi[ncols:] = np.maximum(self.x[ncols:], 0.0)


def _certify(prep: _Prepared, lb, ub, point: np.ndarray,
             rounding: float = 0.0) -> None:
    """Raise unless ``point`` is finite, within ``FEAS_TOL`` of its bounds
    and each row within its ``row_tol``, widened by ``rounding`` times that;
    names the first violated row."""
    if not np.isfinite(point).all():
        raise SolverFailure("non-finite solution")
    if np.count_nonzero((point < lb - FEAS_TOL) | (point > ub + FEAS_TOL)):
        raise SolverFailure("solution violates variable bounds")
    rows = prep.rows
    lhs = rows.A[:, :rows.n] @ point
    widen = rounding * rows.row_tol
    violated = np.where(rows.is_le, lhs > rows.row_hi + widen,
                        np.where(rows.is_ge, lhs < rows.row_lo - widen,
                                 np.abs(lhs - rows.rhs) > rows.row_tol + widen))
    if np.count_nonzero(violated):
        i = int(violated.argmax())
        raise SolverFailure(f"row {i} violated: {lhs[i]} {rows.rel[i]} {rows.rhs[i]}")


def _finish(core: _Simplex, spent: int = 0) -> LpOutcome:
    """Phase 2 from a primal feasible state, then the certificate check
    against the structural bounds the core was built from, which lets a row
    cross its tolerance by ``_ROUNDING`` of it.  ``spent`` counts iterations
    of an abandoned warm attempt.

    The basic values are computed again from the rows only when phase 2
    moved them since they last were (``_Simplex.moved``); a loop that ends
    on a checked inverse has just computed them, so only a bound flip after
    that check leaves them to refresh."""
    prep, n = core.prep, core.rows.n
    core.run(prep.cost)
    if core.moved:
        core._solve_basics()

    point = core.x[:n].copy()
    _certify(prep, core.lo[:n], core.hi[:n], point, _ROUNDING)
    return LpOutcome(OPTIMAL, float(prep.c @ point), point, spent + core.iterations,
                     Basis(core.basis, core.stat, core.binv),
                     prep.cost[core.basis] @ core.binv)


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
    ``crash_basis`` or an optimal basis of other costs over the same rows,
    which need not be: the dual loop then only repairs primal
    infeasibility (immediately done when the basis is primal feasible) and
    the primal loop optimizes from there.  A warm attempt that
    gives up or raises is dropped for a cold solve; its iterations still
    count.  The outcome is ``OPTIMAL`` or ``INFEASIBLE``; a cold solve that
    raises ``SolverFailure`` passes it on.
    """
    if np.count_nonzero(lb > ub):
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
                return _finish(core)
        except SolverFailure:
            pass
        spent = 0 if core is None else core.iterations

    core = _Simplex(prep, lb, ub)
    if not core.phase_one():
        return LpOutcome(INFEASIBLE, iterations=spent + core.iterations)
    core.close_phase_one()
    return _finish(core, spent)


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


def branch_floors(prep: _Prepared, outcome: LpOutcome, lb: np.ndarray,
                  ub: np.ndarray, col: int) -> tuple:
    """Lower bounds on the LP values of the two problems that pin column
    ``col`` to 0 and to 1, from ``outcome``, an optimal solve of ``prep``
    under bounds ``lb``/``ub`` in which ``col`` is basic (a fractional
    column is: a nonbasic one sits at a bound).

    Each is the parent's value plus the rise of one bounded dual simplex
    step from its basis along ``col``'s tableau row ``B^-1[r] @ A``, priced
    with the reduced costs ``c - y A`` of its duals (the penalties of
    Driebeek 1966 and Tomlin 1971, ``_dual_step_gain``).  A child that no
    column can reach keeps the parent's value, not an infinite floor: its
    own LP decides, by the tolerances of a solve, whether it is infeasible.
    Under a zero cost every reduced cost is zero, and both floors are the
    parent's value.
    """
    rows, basis = prep.rows, outcome.basis
    ncols, m = rows.ncols, rows.m
    r = int((basis.columns == col).argmax())
    alpha = basis.inverse[r] @ rows.priced
    # the slack bounds follow the structural ones
    lo = np.concatenate((lb, rows.lo_tail[:m]))
    hi = np.concatenate((ub, rows.hi_tail[:m]))
    sign = _signs(lo, hi, basis.status[:ncols])
    reduced = sign * (prep.cost[:ncols] - outcome.duals @ rows.priced)
    span = hi - lo
    # pinning to 0 lowers the basic column by its value f, to 1 raises it by
    # 1 - f; a column moving by t moves it by -alpha t
    f = float(outcome.point[col])
    return (outcome.value + _dual_step_gain(f, sign * alpha, reduced, span),
            outcome.value + _dual_step_gain(1.0 - f, -sign * alpha, reduced, span))


def prepare(p: LpProblem, rows: Optional[_Rows] = None) -> _Prepared:
    """Factor out ``p``'s rows and objective for repeated solves.

    The rows are ``rows``, those of an earlier ``prepare``, when they are
    ``p``'s own (``_Rows.fits``: the same ``a``, ``rel`` and ``rhs``
    objects), and are prepared afresh otherwise; only the objective is
    built per call."""
    if rows is None or not rows.fits(p):
        rows = _Rows(p)
    return _Prepared(rows, p.c)


def solve_lp(p: LpProblem) -> LpOutcome:
    """Minimize ``p.c`` over the LP, cold: ``OPTIMAL`` or ``INFEASIBLE``,
    or ``SolverFailure`` when the LP is unbounded or the arithmetic breaks
    down.  Optimal outcomes are re-checked against every constraint before
    being returned; two runs on identical input produce identical
    results."""
    return solve_prepared(prepare(p), p.lb, p.ub)
