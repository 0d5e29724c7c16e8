"""Independent checks of the program's outputs.

Everything here is computed from the model document alone, with the
benchmark's own numpy forward pass and its own MILP solved by HiGHS through
``scipy.optimize.milp``; nothing is imported from the program.

The MILP is the textbook big-M encoding with one binary per hidden neuron,
stable or not, and big-M constants from interval propagation over the whole
domain (sound for every sub-box the checks use):

    h >= W.prev + b,   h <= W.prev + b - L (1 - z),   0 <= h <= max(U, 0) z

which forces h = relu(W.prev + b) at every integral point.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from workloads import forward

# Largest disagreement with a HiGHS optimum that still counts as agreement,
# relative to max(1, |value|).  HiGHS stops within an absolute gap of 1e-6.
TOL = 1e-5
# random completions tried before a MILP: for sufficiency as an extra check,
# for minimality as a cheap counterexample that makes the MILP unnecessary
SAMPLES = 256


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class IndependentChecker:
    """HiGHS and forward-pass checks for one model document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n = int(doc["input_dim"])
        self.lo = np.array([p[0] for p in doc["input_domain"]], dtype=float)
        self.hi = np.array([p[1] for p in doc["input_domain"]], dtype=float)
        self.weights = [np.asarray(l["weights"], dtype=float) for l in doc["layers"]]
        self.biases = [np.asarray(l["biases"], dtype=float) for l in doc["layers"]]
        hidden = self.weights[:-1]

        # column layout: x | h_0 z_0 | h_1 z_1 | ...
        self.h_cols, self.z_cols = [], []
        col = self.n
        for w in hidden:
            width = w.shape[0]
            self.h_cols.append(np.arange(col, col + width))
            self.z_cols.append(np.arange(col + width, col + 2 * width))
            col += 2 * width
        self.ncols = col

        var_lo = np.zeros(col)
        var_hi = np.ones(col)
        var_lo[:self.n], var_hi[:self.n] = self.lo, self.hi
        integrality = np.zeros(col)
        rows, row_lo, row_hi = [], [], []
        lo, hi = self.lo, self.hi
        for l, (w, b) in enumerate(zip(hidden, self.biases)):
            wp, wn = np.maximum(w, 0.0), np.minimum(w, 0.0)
            pre_lo = wp @ lo + wn @ hi + b
            pre_hi = wp @ hi + wn @ lo + b
            pad = 1e-7 * (1.0 + np.maximum(np.abs(pre_lo), np.abs(pre_hi)))
            pre_lo, pre_hi = pre_lo - pad, pre_hi + pad
            prev = np.arange(self.n) if l == 0 else self.h_cols[l - 1]
            for j in range(w.shape[0]):
                h, z = self.h_cols[l][j], self.z_cols[l][j]
                big_l, big_u = min(pre_lo[j], 0.0), max(pre_hi[j], 0.0)
                row = np.zeros(col)
                row[prev], row[h] = -w[j], 1.0
                rows.append(row.copy())                    # h - W.prev >= b
                row_lo.append(b[j])
                row_hi.append(np.inf)
                row[z] = -big_l                            # h - W.prev - L z <= b - L
                rows.append(row)
                row_lo.append(-np.inf)
                row_hi.append(b[j] - big_l)
                ind = np.zeros(col)
                ind[h], ind[z] = 1.0, -big_u               # h - U z <= 0
                rows.append(ind)
                row_lo.append(-np.inf)
                row_hi.append(0.0)
                var_hi[h] = big_u
                integrality[z] = 1
            lo, hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
        self.var_lo, self.var_hi = var_lo, var_hi
        self.integrality = integrality
        self.rows = LinearConstraint(np.array(rows), np.array(row_lo), np.array(row_hi))

    def _affine(self, layer: int, coeffs: np.ndarray) -> np.ndarray:
        """Objective vector for ``coeffs . input_of(layer)``."""
        c = np.zeros(self.ncols)
        cols = np.arange(self.n) if layer == 0 else self.h_cols[layer - 1]
        c[cols] = coeffs
        return c

    def maximize(self, c: np.ndarray, fixed: dict) -> float:
        """Exact max of ``c . v`` with the given attributes pinned."""
        lo, hi = self.var_lo.copy(), self.var_hi.copy()
        for i, v in fixed.items():
            lo[i] = hi[i] = v
        res = milp(-c, integrality=self.integrality, bounds=Bounds(lo, hi),
                   constraints=self.rows, options={"mip_rel_gap": 1e-9})
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on a checker MILP: {res.message}")
        return -res.fun

    def exact_bounds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Domain-wide [min, max] of every pre-activation, outputs last."""
        out = []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            mins, maxs = np.empty(w.shape[0]), np.empty(w.shape[0])
            for j in range(w.shape[0]):
                c = self._affine(l, w[j])
                maxs[j] = self.maximize(c, {}) + b[j]
                mins[j] = -self.maximize(-c, {}) + b[j]
            out.append((mins, maxs))
        return out

    def check_tight(self, tight, rng: np.random.Generator,
                    samples: int = 2048) -> list[str]:
        """Compare a program bounds map (``pre_lo``/``pre_hi`` per hidden
        layer, ``out_lo``/``out_hi``) with the exact bounds, and check that
        it encloses sampled forward-pass values."""
        program = list(zip(tight.pre_lo, tight.pre_hi)) + [(tight.out_lo, tight.out_hi)]
        problems = []
        pres = forward(self.doc, rng.uniform(self.lo, self.hi, (samples, self.n)))
        for l, ((p_lo, p_hi), (e_lo, e_hi)) in enumerate(zip(program, self.exact_bounds())):
            name = "output" if l == len(program) - 1 else f"layer {l}"
            for j in range(len(e_lo)):
                for side, got, want in (("lower", p_lo[j], e_lo[j]),
                                        ("upper", p_hi[j], e_hi[j])):
                    if not _close(float(got), float(want)):
                        problems.append(f"tight {side} bound of {name} neuron {j}: "
                                        f"program {got!r}, HiGHS {want!r}")
            seen_lo, seen_hi = pres[l].min(axis=0), pres[l].max(axis=0)
            for j in np.nonzero((seen_lo < p_lo - 1e-9) | (seen_hi > p_hi + 1e-9))[0]:
                problems.append(f"tight bounds of {name} neuron {j} miss forward-pass "
                                f"values [{seen_lo[j]!r}, {seen_hi[j]!r}]")
        return problems

    def _rival_gap(self, x: np.ndarray, fixed_idx, target: int,
                   rivals, stop: float) -> tuple[float, int]:
        """Largest ``o_rival - o_target`` over completions of the fixed
        attributes, stopping early once a rival's gap reaches ``stop``."""
        fixed = {i: float(x[i]) for i in fixed_idx}
        w, b = self.weights[-1], self.biases[-1]
        last = len(self.weights) - 1
        best, best_rival = -np.inf, -1
        for r in rivals:
            gap = self.maximize(self._affine(last, w[r] - w[target]), fixed) \
                + b[r] - b[target]
            if gap > best:
                best, best_rival = gap, r
            if best >= stop:
                break
        return best, best_rival

    def check_explanation(self, x: np.ndarray, kept: tuple, target: int,
                          rng: np.random.Generator) -> list[str]:
        """Sufficiency and minimality of ``kept`` (attribute indices held at
        their values in ``x``) for the class ``target``."""
        problems = []
        outputs = forward(self.doc, x)[-1][0]
        if int(np.argmax(outputs)) != target:
            problems.append(f"target {target} is not the forward-pass prediction "
                            f"{int(np.argmax(outputs))}")
            return problems
        # rivals closest to the target first: they reach it soonest
        rivals = [int(r) for r in np.argsort(-outputs) if r != target]

        points = rng.uniform(self.lo, self.hi, (SAMPLES, self.n))
        points[:, list(kept)] = x[list(kept)]
        outs = forward(self.doc, points)[-1]
        margin = outs[:, target] - np.delete(outs, target, axis=1).max(axis=1)
        if (margin <= 0.0).any():
            problems.append(f"insufficient: a sampled completion of kept {kept} "
                            f"predicts another class (margin {margin.min()!r})")
        # every rival is solved unless one clearly beats the target
        gap, rival = self._rival_gap(x, kept, target, rivals, stop=TOL)
        if gap >= TOL:
            problems.append(f"insufficient: with kept {kept} fixed, class {rival} "
                            f"beats {target} by {gap!r}")
        for i in kept:
            fixed = [j for j in kept if j != i]
            points = rng.uniform(self.lo, self.hi, (SAMPLES, self.n))
            points[:, fixed] = x[fixed]
            outs = forward(self.doc, points)[-1]
            if (np.delete(outs, target, axis=1).max(axis=1) >= outs[:, target]).any():
                continue  # a forward-pass counterexample shows i is needed
            gap, _ = self._rival_gap(x, fixed, target, rivals, stop=-TOL)
            if gap < -TOL:
                problems.append(f"not minimal: attribute {i} can be freed "
                                f"(best rival gap {gap!r})")
        return problems
