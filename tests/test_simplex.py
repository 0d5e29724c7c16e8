import numpy as np
import pytest

from boxplain.simplex import (EQ, GE, LE, INFEASIBLE, OPTIMAL, UNBOUNDED,
                              LpProblem, solve_lp)
from oracles import eq2_style_milp, random_bounded_lp, vertex_enumerate


class TestWorkedMilpRelaxation:
    def test_relaxation_matches_vertex_oracle(self):
        p = eq2_style_milp()
        feasible, best = vertex_enumerate(
            LpProblem(p.a, p.rel, p.rhs, p.lb,
                      np.where(np.isfinite(p.ub), p.ub, 100.0), p.c, "min"))
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
                      np.array([10.0]), np.array([1.0]), "min")
        assert solve_lp(p).status == INFEASIBLE

    def test_unbounded_ray(self):
        p = LpProblem(np.zeros((0, 1)), (), np.zeros(0), np.array([0.0]),
                      np.array([np.inf]), np.array([-1.0]), "min")
        assert solve_lp(p).status == UNBOUNDED

    def test_max_sense(self):
        p = LpProblem(np.array([[1.0, 1.0]]), (LE,), np.array([1.0]),
                      np.zeros(2), np.ones(2), np.array([1.0, 2.0]), "max")
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(2.0, abs=1e-9)

    def test_feasibility_only(self):
        p = LpProblem(np.array([[1.0, 1.0]]), (GE,), np.array([1.5]),
                      np.zeros(2), np.ones(2), np.zeros(2), "feas")
        out = solve_lp(p)
        assert out.status == OPTIMAL
        assert out.point.sum() >= 1.5 - 1e-6

    def test_residual_judged_per_row(self):
        # x >= 2.5e-6 with x pinned to 0 misses by more than its row allows
        # (1e-6), though the total residual is within 1e-6 * max|rhs| = 5e-6
        p = LpProblem(np.eye(2), (GE, EQ), np.array([2.5e-6, 5.0]),
                      np.zeros(2), np.array([0.0, 10.0]), np.zeros(2), "feas")
        assert solve_lp(p).status == INFEASIBLE

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(np.array([[np.inf]]), (LE,), np.array([1.0]),
                      np.zeros(1), np.ones(1), np.zeros(1), "min")


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
    a = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    rel = (LE, LE, LE)
    rhs = np.array([0.0, 0.0, 1.0])
    lb = np.zeros(4)
    ub = np.full(4, np.inf)
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    p = LpProblem(a, rel, rhs, lb, ub, c, "min")
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-9)
    assert out.iterations < 200

    # same optimum as the enumeration oracle over a bounding box
    boxed = LpProblem(a, rel, rhs, lb, np.full(4, 50.0), c, "min")
    feasible, best = vertex_enumerate(boxed)
    assert feasible and best == pytest.approx(-0.05, abs=1e-9)
