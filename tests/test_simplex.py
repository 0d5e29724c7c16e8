from dataclasses import replace

import numpy as np
import pytest

import boxplain.simplex as simplex
from boxplain.simplex import (_INVERSE_TOL, EQ, FEAS_TOL, GE, LE, INFEASIBLE,
                              OPTIMAL, Basis, LpProblem,
                              SolverFailure, _certify, _finish, _Simplex,
                              crash_basis, prepare, solve_lp, solve_prepared)
from oracles import (eq2_style_milp, loop_records, random_bounded_lp,
                     vertex_enumerate)

BEALE = dict(a=np.array([[0.25, -60.0, -0.04, 9.0],
                         [0.5, -90.0, -0.02, 3.0],
                         [0.0, 0.0, 1.0, 0.0]]),
             rel=(LE, LE, LE), rhs=np.array([0.0, 0.0, 1.0]),
             lb=np.zeros(4), ub=np.full(4, np.inf),
             c=np.array([-0.75, 150.0, -0.02, 6.0]))


class TestWorkedMilpRelaxation:
    def test_relaxation_matches_vertex_oracle(self):
        p = eq2_style_milp()
        feasible, best = vertex_enumerate(
            LpProblem(p.a, p.rel, p.rhs, p.lb,
                      np.where(np.isfinite(p.ub), p.ub, 100.0), p.c))
        assert feasible
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(best, abs=1e-9)
        # the relaxation is already tight here: optimum 1.0 at x1=1, z1=1
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert out.point[0] == pytest.approx(1.0, abs=1e-6)


class TestStatuses:
    def test_contradictory_rows_infeasible(self):
        p = LpProblem(np.array([[1.0], [1.0]]), (GE, LE),
                      np.array([2.0, 1.0]), np.array([-10.0]),
                      np.array([10.0]), np.array([1.0]))
        assert solve_lp(p).status == INFEASIBLE

    def test_unbounded_ray(self):
        # an LP minimizes a cost bounded below, or the solve fails
        p = LpProblem(np.zeros((0, 1)), (), np.zeros(0), np.array([0.0]),
                      np.array([np.inf]), np.array([-1.0]))
        with pytest.raises(SolverFailure, match="unbounded direction"):
            solve_lp(p)

    @pytest.mark.parametrize("sense, value, point", [
        # min x1 - 2 x2: x1 at its lower bound -1, x2 at its upper bound 4
        ("min", -9.0, [-1.0, 4.0, 2.0]),
        # max x1 - 2 x2, solved as min -x1 + 2 x2: x1 at its upper bound 3,
        # x2 at its lower bound 0
        ("max", 3.0, [3.0, 0.0, 2.0]),
    ])
    def test_rowless_objective(self, sense, value, point):
        # no rows: each column goes to the bound its cost favours, and the
        # cost-free x3 stays at its lower bound 2
        flip = -1.0 if sense == "max" else 1.0
        p = LpProblem(np.zeros((0, 3)), (), np.zeros(0), np.array([-1.0, 0.0, 2.0]),
                      np.array([3.0, 4.0, 5.0]), flip * np.array([1.0, -2.0, 0.0]))
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert flip * out.value == value
        assert out.point.tolist() == point

    def test_rowless_feasibility(self):
        # a cold start puts each column at its finite bound, the lower one
        # when both are finite
        p = LpProblem(np.zeros((0, 3)), (), np.zeros(0),
                      np.array([1.0, -np.inf, -2.0]), np.array([np.inf, 0.5, 2.0]),
                      np.zeros(3))
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.value == 0.0
        assert out.point.tolist() == [1.0, 0.5, -2.0]

    def test_max_sense(self):
        # max x1 + 2 x2 over x1 + x2 <= 1 is min -x1 - 2 x2
        p = LpProblem(np.array([[1.0, 1.0]]), (LE,), np.array([1.0]),
                      np.zeros(2), np.ones(2), np.array([-1.0, -2.0]))
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(-2.0, abs=1e-9)

    def test_feasibility_only(self):
        p = LpProblem(np.array([[1.0, 1.0]]), (GE,), np.array([1.5]),
                      np.zeros(2), np.ones(2), np.zeros(2))
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.point.sum() >= 1.5 - 1e-6

    def test_residual_judged_per_row(self):
        # x >= 2.5e-6 with x pinned to 0 misses by more than its row allows
        # (1e-6), though the total residual is within 1e-6 * max|rhs| = 5e-6
        p = LpProblem(np.eye(2), (GE, EQ), np.array([2.5e-6, 5.0]),
                      np.zeros(2), np.array([0.0, 10.0]), np.zeros(2))
        assert solve_lp(p).status == INFEASIBLE

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(np.array([[np.inf]]), (LE,), np.array([1.0]),
                      np.zeros(1), np.ones(1), np.zeros(1))

    def test_free_column_rejected(self):
        with pytest.raises(ValueError, match="free column"):
            LpProblem(np.array([[1.0, 1.0]]), (LE,), np.array([1.0]),
                      np.array([0.0, -np.inf]), np.array([1.0, np.inf]),
                      np.zeros(2))

    def test_unknown_relation_rejected(self):
        p = LpProblem(np.array([[1.0]]), ("<",), np.array([1.0]),
                      np.zeros(1), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError, match="unknown relation '<'"):
            solve_lp(p)

    def test_slack_bounds_follow_relations(self):
        prep = prepare(LpProblem(np.eye(3), (LE, GE, EQ), np.ones(3), np.zeros(3),
                                 np.ones(3), np.zeros(3)))
        # the slacks' bounds, then the artificials pinned at zero
        assert prep.rows.lo_tail.tolist() == [0.0, -np.inf, 0.0, 0.0, 0.0, 0.0]
        assert prep.rows.hi_tail.tolist() == [np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_oracle_agreement_random_lps():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(150):
        p = random_bounded_lp(rng)
        feasible, best = vertex_enumerate(p)
        out = solve_lp(p)
        if feasible:
            assert out.status == OPTIMAL, f"oracle feasible ({best}), got {out.status}"
            assert out.value == pytest.approx(best, rel=1e-6, abs=1e-6)
        else:
            assert out.status == INFEASIBLE
        checked += 1
    assert checked == 150


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(103)
    for _ in range(25):
        p = random_bounded_lp(rng)
        a, b = solve_lp(p), solve_lp(p)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.value == b.value
            assert (a.point == b.point).all()
            assert a.iterations == b.iterations


def test_beale_degenerate_cycle_terminates():
    # classic cycling instance for textbook pivoting rules
    p = LpProblem(**BEALE)
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-9)
    assert out.iterations < 200

    # same optimum as the enumeration oracle over a bounding box
    boxed = LpProblem(**{**BEALE, "ub": np.full(4, 50.0)})
    feasible, best = vertex_enumerate(boxed)
    assert feasible and best == pytest.approx(-0.05, abs=1e-9)


def test_stall_counts_only_iterations_that_do_not_improve():
    # Phase 1 on two >= rows: every pivot strictly lowers the artificials'
    # total.  Dantzig pricing enters x4 (|d| = 3), then x2 (|d| = 2), where
    # Bland's rule would enter x1; with no stall allowed, phase 1 must still
    # pivot exactly as pure Dantzig pricing does.
    p = LpProblem(np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]]),
                  (GE, GE), np.array([4.0, 6.0]), np.zeros(4), np.full(4, 10.0),
                  np.zeros(4))
    prep = prepare(p)
    cores = []
    for stall_limit in (0, 10**9):
        core = _Simplex(prep, p.lb, p.ub)
        core.stall_limit = stall_limit
        assert core.phase_one()
        cores.append(core)
    strict, dantzig = cores
    assert dantzig.basis.tolist() == [1, 3]
    assert (strict.basis == dantzig.basis).all()
    assert (strict.x == dantzig.x).all()
    assert strict.iterations == dantzig.iterations


def test_stall_switches_to_blands_rule(monkeypatch):
    # Every row has rhs 0, so the start at x = 0 is a degenerate vertex and
    # the first pivots do not lower the objective.  With no stall allowed,
    # Bland's rule takes over and picks other entering and leaving columns
    # than Dantzig pricing; both paths end at the same optimum.
    p = LpProblem(np.array([[0.0, 3.0, 2.0, 3.0], [-1.0, 1.0, 3.0, 1.0]]),
                  (GE, GE), np.zeros(2), np.zeros(4), np.full(4, 3.0),
                  np.array([1.0, -1.0, 3.0, -3.0]))
    feasible, best = vertex_enumerate(p)
    assert feasible and best == -12.0
    pivot = _Simplex._pivot
    paths = []
    for stall_limit in (0, 10**9):
        pivots = []

        def recorded(core, r, q, w, pivots=pivots):
            pivots.append((r, q))
            pivot(core, r, q, w)

        monkeypatch.setattr(_Simplex, "_pivot", recorded)
        core = _Simplex(prepare(p), p.lb, p.ub)
        core.stall_limit = stall_limit
        assert core.phase_one()
        core.close_phase_one()
        out = _finish(core)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(best, abs=1e-9)
        paths.append(pivots)
    bland, dantzig = paths
    assert bland != dantzig


def _certify_by_rows(p: LpProblem, point):
    """Reference for ``_certify``'s row check: one row at a time."""
    lhs = p.a @ point
    for i, r in enumerate(p.rel):
        slack = FEAS_TOL * max(1.0, abs(p.rhs[i]))
        if r == LE and lhs[i] > p.rhs[i] + slack:
            return f"row {i} violated: {lhs[i]} <= {p.rhs[i]}"
        if r == GE and lhs[i] < p.rhs[i] - slack:
            return f"row {i} violated: {lhs[i]} >= {p.rhs[i]}"
        if r == EQ and abs(lhs[i] - p.rhs[i]) > slack:
            return f"row {i} violated: {lhs[i]} == {p.rhs[i]}"
    return None


def test_certify_names_the_first_violated_row():
    rng = np.random.default_rng(227)
    raised = 0
    for k in range(300):
        p = random_bounded_lp(rng)
        point = p.lb + rng.uniform(size=p.lb.size) * (p.ub - p.lb)
        if k % 2:
            # put every row's rhs within a few tolerances of the point's lhs
            lhs = p.a @ point
            steps = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=lhs.size)
            p = replace(p, rhs=lhs + steps * FEAS_TOL * np.maximum(1.0, np.abs(lhs)))
        prep = prepare(p)
        expected = _certify_by_rows(p, point)
        try:
            _certify(prep, p.lb, p.ub, point)
            message = None
        except SolverFailure as exc:
            message = str(exc)
        assert message == expected
        raised += message is not None
    assert 0 < raised < 300


def test_certify_rejects_a_nan_point():
    # NaN compares false against every bound and row
    p = LpProblem(np.array([[1.0, 1.0]]), (LE,), np.array([1.0]),
                  np.zeros(2), np.ones(2), np.zeros(2))
    with pytest.raises(SolverFailure, match="non-finite"):
        _certify(prepare(p), p.lb, p.ub, np.array([0.5, np.nan]))


def _near_ties():
    """Random LPs with rows whose rhs sits within a few row tolerances of a
    point of the box: ``rhs = a @ x + k * FEAS_TOL * max(1, |a @ x|)`` with
    ``k`` drawn per row, a minimizing LP with its own ``c`` and a zero-cost
    one taking turns."""
    steps = [-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0]
    for seed, count, shape in ((11, 4000, {}),
                               (12, 1500, dict(max_vars=12, max_rows=20))):
        rng = np.random.default_rng(seed)
        for k in range(count):
            p = random_bounded_lp(rng, **shape)
            if not p.rel:
                continue
            x = p.lb + rng.uniform(size=p.lb.size) * (p.ub - p.lb)
            lhs = p.a @ x
            rhs = lhs + rng.choice(steps, size=lhs.size) * FEAS_TOL \
                * np.maximum(1.0, np.abs(lhs))
            yield replace(p, rhs=rhs, c=p.c if k % 2 else np.zeros_like(p.c))


def test_near_tie_cold_solves_end_optimal_or_infeasible():
    # phase 1 accepts only a point _certify passes, and phase 2 may shrink
    # but never grow the residual phase 1 left a row, so the final check
    # cannot fail where phase 1 passed
    statuses = []
    for p in _near_ties():
        try:
            statuses.append(solve_lp(p).status)
        except SolverFailure as exc:
            pytest.fail(f"cold solve raised: {exc}")
    assert len(statuses) > 4900
    assert 0.2 < statuses.count(INFEASIBLE) / len(statuses) < 0.5


def _tightened(rng, p):
    """Bounds of a child LP: one variable fixed at either bound, or its
    range cut at a random point."""
    lb, ub = p.lb.copy(), p.ub.copy()
    j = int(rng.integers(lb.size))
    kind = int(rng.integers(4))
    if kind == 0:
        ub[j] = lb[j]
    elif kind == 1:
        lb[j] = ub[j]
    else:
        cut = lb[j] + rng.uniform() * (ub[j] - lb[j])
        if kind == 2:
            ub[j] = cut
        else:
            lb[j] = cut
    return lb, ub


def _children(rng, parents):
    """(prep, sense, parent outcome, child bounds) for two children of each
    random parent LP with an optimal basis, alternating the sense: "min"
    keeps the LP's own cost, "feas" zeroes it."""
    for k in range(parents):
        p = random_bounded_lp(rng)
        sense = ("min", "feas")[k % 2]
        prep = prepare(p if sense == "min" else replace(p, c=np.zeros_like(p.c)))
        parent = solve_prepared(prep, p.lb, p.ub)
        if parent.basis is None:
            continue
        for _ in range(2):
            yield p, prep, sense, parent, _tightened(rng, p)


def _same_answer(warm, cold):
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert abs(warm.value - cold.value) <= 1e-6 * max(1.0, abs(cold.value))


class TestWarmStart:
    def test_warm_children_match_cold_solves(self):
        pairs = warm_iterations = cold_iterations = 0
        statuses = set()
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(211), 1200):
            warm = solve_prepared(prep, lb, ub, parent.basis)
            cold = solve_prepared(prep, lb, ub)
            _same_answer(warm, cold)
            statuses.add((sense, cold.status))
            pairs += 1
            warm_iterations += warm.iterations
            cold_iterations += cold.iterations
        assert pairs >= 1000
        assert statuses == {(s, t) for s in ("min", "feas")
                            for t in (OPTIMAL, INFEASIBLE)}
        assert warm_iterations < cold_iterations

    def test_abandoned_warm_attempt_gives_the_cold_answer(self, monkeypatch):
        # cap the dual loop at one iteration, so most attempts give up
        tried = []
        run_dual = _Simplex.run_dual

        def capped(core, cost):
            core.dual_max_iter = 1
            verdict = run_dual(core, cost)
            tried.append((verdict, core.iterations))
            return verdict

        monkeypatch.setattr(_Simplex, "run_dual", capped)
        abandoned = 0
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(223), 300):
            tried.clear()
            warm = solve_prepared(prep, lb, ub, parent.basis)
            cold = solve_prepared(prep, lb, ub)
            _same_answer(warm, cold)
            (verdict, spent), = tried
            if verdict is None:
                abandoned += 1
                assert warm.iterations == spent + cold.iterations
                if cold.status == OPTIMAL:
                    assert (warm.point == cold.point).all()
        assert abandoned >= 10

    def test_singular_basis_gives_the_cold_answer(self, monkeypatch):
        p = eq2_style_milp()
        prep = prepare(p)
        parent = solve_prepared(prep, p.lb, p.ub)
        lb = p.lb.copy()
        # y1 >= 4 moves the optimum to y1 = 4; the warm attempt pivots the
        # basic y1 (1 at the parent) out, and the parent's inverse, scaled
        # past _INVERSE_TOL, fails the check that would confirm feasibility,
        # so its first inversion is the refactor there
        lb[1] = 4.0
        cold = solve_prepared(prep, lb, p.ub)
        spoiled = parent.basis._replace(
            inverse=parent.basis.inverse * (1.0 + 1e3 * _INVERSE_TOL))
        inverse, start_cold = np.linalg.inv, _Simplex._start_cold
        calls, colds = [], []

        def singular_once(matrix):
            calls.append(matrix)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return inverse(matrix)

        def counted_cold(core):
            colds.append(core)
            start_cold(core)

        monkeypatch.setattr(np.linalg, "inv", singular_once)
        monkeypatch.setattr(_Simplex, "_start_cold", counted_cold)
        warm = solve_prepared(prep, lb, p.ub, spoiled)
        assert calls and colds  # the cold solve ran after the failure
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == cold.value == pytest.approx(4.0, abs=1e-9)
        assert (warm.point == cold.point).all()
        assert warm.iterations > cold.iterations

    def test_crash_basis_statuses(self):
        p = LpProblem(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), (GE, LE),
                      np.array([1.0, 2.0]), np.array([-np.inf, 0.0, 0.0]),
                      np.array([3.0, 1.0, 1.0]), np.zeros(3))
        basis = crash_basis(p, [-1, 1], [2])
        assert basis.columns.tolist() == [3, 1]  # row 0's slack, then x2
        assert basis.inverse is None
        # x3 as asked; every other nonbasic column is marked at its lower
        # bound, and the solve places it
        assert basis.status.tolist() == [0, 2, 1, 2, 0, 0, 0]
        core = _Simplex(prepare(p), p.lb, p.ub, basis)
        # x1 at its finite upper bound, the <= slack and both artificials at
        # 0 from below
        assert core.stat.tolist() == [1, 2, 1, 2, 0, 0, 0]
        assert core.x[:5].tolist() == [3.0, 1.0, 1.0, -3.0, 0.0]

    def test_infinite_named_bound_places_at_the_other(self):
        # x1 has no lower bound, the >= row's slack none either: both are
        # marked at their lower bound, and both sit at their upper one
        p = LpProblem(np.array([[1.0, 1.0], [0.0, 1.0]]), (GE, LE),
                      np.array([1.0, 2.0]), np.array([-np.inf, 0.0]),
                      np.array([3.0, 1.0]), np.zeros(2))
        basis = Basis(np.array([1, 3]), np.array([0, 2, 0, 2, 0, 0], dtype=np.int8),
                      None)
        core = _Simplex(prepare(p), p.lb, p.ub, basis)
        assert core.stat.tolist() == [1, 2, 1, 2, 0, 0]
        assert core.x[:4].tolist() == [3.0, -2.0, 0.0, 4.0]

    def test_slack_marked_at_infinite_bound_gives_the_cold_answer(self):
        # row 0's >= slack nonbasic and marked at its lower bound, -inf
        p = LpProblem(np.array([[1.0, 1.0], [1.0, -1.0]]), (GE, LE),
                      np.array([1.0, 0.5]), np.zeros(2), np.full(2, 2.0),
                      np.array([1.0, 0.5]))
        prep = prepare(p)
        basis = Basis(np.array([1, 0]), np.array([2, 2, 0, 0, 0, 0], dtype=np.int8),
                      None)
        warm = solve_prepared(prep, p.lb, p.ub, basis)
        cold = solve_prepared(prep, p.lb, p.ub)
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, abs=1e-12)
        assert cold.value == pytest.approx(0.5, abs=1e-12)

    def test_singular_crash_basis_gives_the_cold_answer(self):
        # x1 basic in both rows: a singular basis matrix, caught while
        # inverting it before any iteration
        for p in (LpProblem(**BEALE), eq2_style_milp()):
            prep = prepare(p)
            basis = crash_basis(p, [0] * len(p.rel), [])
            warm = solve_prepared(prep, p.lb, p.ub, basis)
            cold = solve_prepared(prep, p.lb, p.ub)
            assert warm.status == cold.status == OPTIMAL
            assert warm.value == cold.value
            assert (warm.point == cold.point).all()
            assert warm.iterations == cold.iterations

    def test_warm_child_keeps_a_checked_inverse(self, monkeypatch):
        # an optimal run ends on an inverse that passed the check, and a warm
        # "min" child's eta-updated one passes it too: no np.linalg.inv
        inverse, refreshed = np.linalg.inv, _Simplex._refreshed
        inversions, pivots = [], []  # pivots: since the last check, per check

        def counted(matrix):
            inversions.append(matrix)
            return inverse(matrix)

        def tracked(core):
            pivots.append(core.pivots_since_refactor)
            return refreshed(core)

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(_Simplex, "_refreshed", tracked)
        children = checked = 0
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(229), 300):
            if sense != "min":
                continue
            inversions.clear()
            pivots.clear()
            solve_prepared(prep, lb, ub, parent.basis)
            assert inversions == []
            children += 1
            checked += any(pivots)
        assert children >= 150
        assert 0 < checked < children

    @pytest.mark.parametrize("spoil", ["scaled", "nan"])
    def test_spoiled_parent_inverse_is_refactored(self, monkeypatch, spoil):
        # a parent inverse scaled past _INVERSE_TOL is kept at the warm
        # start and fails the warm attempt's first check after a pivot,
        # unless those pivots replaced every scaled row; a check refactors
        # exactly when it fails, and a child that reached one gives the cold
        # answer.  One with a NaN entry is refactored at the warm start, so
        # every child, with a cost or without, gives the cold answer.
        inverse, refreshed = np.linalg.inv, _Simplex._refreshed
        start_warm, start_cold = _Simplex._start_warm, _Simplex._start_cold
        inversions = []
        starts = []  # inversions made by each warm start
        # per check after a pivot (max|A_B @ binv - I|, inversions made),
        # and None at a cold start
        checks = []

        def counted(matrix):
            inversions.append(matrix)
            return inverse(matrix)

        def counted_warm(core, start):
            before = len(inversions)
            start_warm(core, start)
            starts.append(len(inversions) - before)

        def tracked(core):
            if not core.pivots_since_refactor:
                return refreshed(core)
            resid = np.abs(core.rows.A[:, core.basis] @ core.binv
                           - np.eye(core.m)).max()
            before = len(inversions)
            verdict = refreshed(core)
            checks.append((resid, len(inversions) - before))
            return verdict

        def marked_cold(core):
            checks.append(None)
            start_cold(core)

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(_Simplex, "_start_warm", counted_warm)
        monkeypatch.setattr(_Simplex, "_refreshed", tracked)
        monkeypatch.setattr(_Simplex, "_start_cold", marked_cold)
        firsts = []  # inversions at the warm attempt's first check
        children = set()  # the senses of the children solved
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(229), 600):
            if not prep.rows.m:
                continue
            bad = parent.basis.inverse * (1.0 + 1e3 * _INVERSE_TOL)
            if spoil == "nan":
                bad[0, 0] = np.nan
            checks.clear()
            starts.clear()
            warm = solve_prepared(prep, lb, ub,
                                  parent.basis._replace(inverse=bad))
            assert starts == [1 if spoil == "nan" else 0]
            for check in checks:
                if check is not None:
                    resid, made = check
                    assert made == (0 if resid <= _INVERSE_TOL else 1)
            reached = bool(checks) and checks[0] is not None
            if reached:
                firsts.append(checks[0][1])
            if reached or spoil == "nan":
                _same_answer(warm, solve_prepared(prep, lb, ub))
            children.add(sense)
        assert children == {"min", "feas"}
        if spoil == "scaled":
            assert sum(firsts) >= 80

    def test_checked_inverse_agrees_with_refactoring_always(self, monkeypatch):
        # _INVERSE_TOL below 0 fails every check: the policy of refactoring
        # before every decision that follows a pivot
        children = 0
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(211), 600):
            checked = solve_prepared(prep, lb, ub, parent.basis)
            with monkeypatch.context() as m:
                m.setattr(simplex, "_INVERSE_TOL", -1.0)
                refactored = solve_prepared(prep, lb, ub, parent.basis)
            assert checked.status == refactored.status
            if checked.status == OPTIMAL:
                assert abs(checked.value - refactored.value) <= \
                    1e-9 * max(1.0, abs(refactored.value))
            children += 1
        assert children >= 700

    def test_beale_child_terminates(self):
        p = LpProblem(**BEALE)
        prep = prepare(p)
        parent = solve_prepared(prep, p.lb, p.ub)
        ub = p.ub.copy()
        ub[2] = 0.5  # the optimum has x3 = 1
        warm = solve_prepared(prep, p.lb, ub, parent.basis)
        cold = solve_prepared(prep, p.lb, ub)
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.iterations < 200

    def test_children_match_the_reference_loops(self):
        # every warm child, with the dual loop's usual cap and with a cap of
        # one iteration, pivot by pivot against the reference loops
        verdicts, pivoted, phase_two = set(), 0, 0
        for p, prep, sense, parent, (lb, ub) in _children(
                np.random.default_rng(211), 600):
            for cap in (None, 1):
                core, reference = loop_records(prep, lb, ub, parent.basis,
                                               prep.cost, cap)
                assert core == reference
                verdicts.add(core.ends[0][0] if core.ends else core.failure)
                pivoted += bool(core.pivots)
                phase_two += len(core.ends) > 1
        assert {True, False, None} <= verdicts
        assert pivoted >= 300
        assert phase_two >= 200


def test_optimal_solves_carry_the_duals_of_their_basis():
    # y = c_B B^-1 for the final basis, so y B = c_B, and its reduced costs
    # c - y A over the structural and slack columns let no nonbasic column
    # improve; a zero c carries zero duals
    rng = np.random.default_rng(41)
    priced = zeros = 0
    for _ in range(300):
        lp = random_bounded_lp(rng)
        if rng.uniform() < 0.2:
            lp = replace(lp, c=np.zeros_like(lp.c))
        prep = prepare(lp)
        out = solve_prepared(prep, lp.lb, lp.ub)
        if out.status != OPTIMAL:
            continue
        if not np.count_nonzero(lp.c):
            assert not np.count_nonzero(out.duals)
            zeros += 1
        basis = out.basis
        assert out.duals.tobytes() == (prep.cost[basis.columns] @ basis.inverse).tobytes()
        rows = prep.rows
        assert np.allclose(out.duals @ rows.A[:, basis.columns], prep.cost[basis.columns])
        lo = np.concatenate((lp.lb, rows.lo_tail[:rows.m]))
        hi = np.concatenate((lp.ub, rows.hi_tail[:rows.m]))
        sign = simplex._signs(lo, hi, basis.status[:rows.ncols])
        reduced = prep.cost[:rows.ncols] - out.duals @ rows.priced
        assert (sign * reduced >= -simplex.PIVOT_TOL).all()
        priced += 1
    assert priced >= 100 and zeros >= 20


def test_dual_step_gain_by_hand():
    inf = np.inf
    # no column may enter (a slope at PIVOT_TOL does not count): no rise,
    # and the child's LP decides whether it is infeasible
    assert simplex._dual_step_gain(0.5, np.array([0.0, -1.0, simplex.PIVOT_TOL]),
                                   np.ones(3), np.full(3, inf)) == 0.0
    # one unboxed column: the first breakpoint, violation * d / slope
    assert simplex._dual_step_gain(0.5, np.array([2.0]), np.array([3.0]),
                                   np.array([inf])) == 0.75
    # a reduced cost signed the wrong way by rounding enters at once
    assert simplex._dual_step_gain(0.5, np.array([1e-6]), np.array([-1e-10]),
                                   np.array([inf])) == 0.0
    # the long step: breakpoints 1, 2 and 4, rates 1 -> 0.5 -> 0.25 -> -inf
    slope, reduced = np.array([0.5, 0.25, 1.0]), np.array([0.5, 0.5, 4.0])
    span = np.array([1.0, 1.0, inf])
    assert simplex._dual_step_gain(1.0, slope, reduced, span) == 1.0 + 0.5 + 0.5
    # every breakpoint passed with the rate still positive: the last one,
    # never an infinite rise
    assert simplex._dual_step_gain(10.0, slope, reduced, span[[0, 1, 0]]) == \
        10.0 + 9.5 + 2 * 9.25


def _dual_step_gain_by_peak(violation, slope, reduced, span):
    """Reference for ``_dual_step_gain``: the dual objective's rise at each
    breakpoint, ``violation * t`` less ``slope * span * (t - t_j)`` for each
    breakpoint ``t_j`` below ``t``, and the highest of them (0 without
    one); concave along the row, it peaks where the long step stops."""
    points = [(max(d, 0.0) / s, s * w)
              for s, d, w in zip(slope, reduced, span) if s > simplex.PIVOT_TOL]
    rises = [violation * t - sum(cost * (t - t_j) for t_j, cost in points if t_j < t)
             for t, _ in points]
    return max([0.0] + rises)


def test_dual_step_gain_matches_the_peak():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        n = int(rng.integers(0, 8))
        slope = rng.normal(size=n) * rng.choice([1.0, 1e-10], size=n)
        reduced = rng.normal(size=n) * rng.choice([1.0, 0.0, 1e-12], size=n)
        span = np.where(rng.random(n) < 0.3, np.inf, rng.choice([0.5, 1.0, 3.0], size=n))
        violation = float(rng.uniform(1e-6, 1.0))
        got = simplex._dual_step_gain(violation, slope, reduced, span)
        assert got == pytest.approx(_dual_step_gain_by_peak(violation, slope, reduced, span),
                                    rel=1e-12, abs=1e-15)
