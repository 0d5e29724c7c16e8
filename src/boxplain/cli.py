"""Command-line surface: explain / bounds / bench / verify subcommands.

All output is CSV on stdout.  Exit codes: 0 success, 2 input error,
3 solver failure; a bad instance or a solver failure costs only its row.
A reader that closes stdout early (``| head``) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Optional

import numpy as np

from .box import box_propagate
from .engine import (MODE_BASELINE, MODE_IMPROVED, EngineConfig, Explainer,
                     ExplainStats, InstanceError, attribute_order,
                     compute_tight_bounds, verify_explanation)
from .model import ModelFormatError, load_model_file
from .simplex import SolverFailure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(ValueError):
    pass


def ingest_csv(path) -> np.ndarray:
    """Numeric instance rows, one per line, as an ``(m, width)`` array.

    A first line in which no cell parses as a number is taken as a header
    and skipped; a partially numeric line is data with a bad cell.  Blank
    lines and trailing empty cells are ignored; an empty cell before a
    non-empty one is a bad cell.  A UTF-8 byte-order mark is ignored.
    """
    rows = []
    width = None
    first_data_line = True
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            cells = [c.strip() for c in cells]
            while cells and not cells[-1]:
                cells.pop()
            if not cells:
                continue
            parsed = []
            bad_col = None
            for col, cell in enumerate(cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    if bad_col is None:
                        bad_col = col
            if bad_col is not None:
                if first_data_line and not parsed:
                    first_data_line = False  # header row
                    continue
                raise InputError(
                    f"{path}: line {lineno}, column {bad_col + 1}: "
                    f"non-numeric value {cells[bad_col]!r}")
            first_data_line = False
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InputError(
                    f"{path}: line {lineno}: expected {width} values, "
                    f"got {len(parsed)}")
            rows.append(parsed)
    return np.array(rows, dtype=np.float64) if rows else np.zeros((0, width or 0))


def _load(args):
    """The model's network and domain, and the instance rows, checked
    against the network's input width."""
    net, domain = load_model_file(args.model)
    rows = ingest_csv(args.instances)
    if len(rows) and rows.shape[1] != net.input_dim:
        raise InputError(f"instances have {rows.shape[1]} columns, "
                         f"model expects {net.input_dim}")
    return net, domain, rows


def _parse_order(text: Optional[str]) -> Optional[tuple]:
    if text is None or text == "asc":
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"--order must be 'asc' or a comma list, got {text!r}")


def _build_config(args) -> EngineConfig:
    return EngineConfig(
        tight_bounds_mode=args.tight_bounds,
        order=_parse_order(args.order),
        time_budget_ms=args.time_budget_ms,
    )


def _explainer(args, net, domain, rows) -> Optional[Explainer]:
    """The ``Explainer`` for ``rows``; None when there are none, since the
    tight-bound precompute would then serve nothing, after checking
    ``--order`` as the ``Explainer`` would."""
    config = _build_config(args)
    if len(rows):
        return Explainer(net, domain, config)
    attribute_order(config.order, net.input_dim)
    return None


def _each_instance(rows: np.ndarray, run, done) -> int:
    """Call ``done(idx, run(row))`` for each instance as soon as it is done,
    then flush stdout.

    A bad instance (outside the domain, or an exact-tie prediction) or a
    solver failure costs only its own instance: it is reported on stderr,
    the instance is skipped and, once every instance ran, the exit code is
    3 if a solver failed, else 2.
    """
    code = EXIT_OK
    for idx, row in enumerate(rows):
        try:
            result = run(row)
        except InstanceError as exc:
            print(f"input error: instance {idx}: {exc}", file=sys.stderr)
            code = max(code, EXIT_INPUT)
            continue
        except SolverFailure as exc:
            print(f"solver failure: instance {idx}: {exc}", file=sys.stderr)
            code = EXIT_SOLVER
            continue
        done(idx, result)
        sys.stdout.flush()
    return code


def cmd_explain(args) -> int:
    net, domain, rows = _load(args)
    explainer = _explainer(args, net, domain, rows)
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "predicted_class", "kept_indices", "decisions",
                     "total_time_s", "solver_time_s", "solver_calls",
                     "box_shortcut_hits"])

    def cells(row):
        explanation, stats = explainer.explain(row, args.mode)
        decisions = ";".join(f"{i}:{d.value}"
                             for i, d in sorted(explanation.decisions.items()))
        return [explanation.target,
                ";".join(str(i) for i in explanation.kept_indices),
                decisions, stats.total_time, stats.solver_time,
                stats.solver_calls, stats.box_shortcut_hits]

    return _each_instance(rows, cells,
                          lambda idx, values: writer.writerow([idx, *values]))


def cmd_bounds(args) -> int:
    net, domain = load_model_file(args.model)
    tight = compute_tight_bounds(net, domain, args.tight_bounds)
    boxed = box_propagate(net, domain.lows, domain.highs)
    writer = csv.writer(sys.stdout)
    writer.writerow(["layer", "neuron", "tight_lb", "tight_ub", "box_lb", "box_ub"])
    for l, ((t_lo, t_hi), (b_lo, b_hi)) in enumerate(
            zip(tight.layers, boxed.layers), start=1):
        for j, ends in enumerate(zip(t_lo, t_hi, b_lo, b_hi)):
            writer.writerow([l, j, *map(float, ends)])
    return EXIT_OK


def cmd_bench(args) -> int:
    net, domain, rows = _load(args)
    explainer = _explainer(args, net, domain, rows)
    writer = csv.writer(sys.stdout)
    writer.writerow(["exp_s_baseline", "exp_s_ours", "solver_s_baseline",
                     "solver_s_ours", "pct_bounds_tightened",
                     "pct_bin_vars_removed_before", "pct_bin_vars_removed_ours",
                     "box_shortcut_hits", "solver_calls_baseline",
                     "solver_calls_ours"])
    if not len(rows):
        return EXIT_OK
    runs = {}  # instance index -> (baseline, improved), if it ran to the end
    code = _each_instance(
        rows,
        lambda row: (explainer.explain(row, MODE_BASELINE),
                     explainer.explain(row, MODE_IMPROVED)),
        runs.__setitem__)
    for idx, ((base_exp, _), (ours_exp, _)) in runs.items():
        if base_exp.kept_indices != ours_exp.kept_indices:
            raise SolverFailure(
                "baseline and improved explanations diverge on instance "
                f"{idx}: baseline keeps {list(base_exp.kept_indices)}, "
                f"improved keeps {list(ours_exp.kept_indices)}")
    base = ExplainStats.pooled([base[1] for base, _ in runs.values()])
    ours = ExplainStats.pooled([ours[1] for _, ours in runs.values()])
    writer.writerow([
        base.total_time, ours.total_time, base.solver_time, ours.solver_time,
        ours.bounds_tightened_pct, ours.bin_vars_removed_before_pct,
        ours.bin_vars_removed_ours_pct, ours.box_shortcut_hits,
        base.solver_calls, ours.solver_calls,
    ])
    return code


def cmd_verify(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be at least 0, got {args.samples}")
    net, domain, rows = _load(args)
    explainer = _explainer(args, net, domain, rows)
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "predicted_class", "kept_indices",
                     "sufficiency_ok", "minimality_ok", "unverified"])
    rng = np.random.default_rng(args.seed)

    def cells(row):
        explanation, _ = explainer.explain(row, args.mode)
        report = verify_explanation(net, row, explanation, domain,
                                    samples=args.samples, rng=rng,
                                    base_problem=explainer.base_problem)
        return [explanation.target,
                ";".join(str(i) for i in explanation.kept_indices),
                int(report.sufficiency_ok), int(report.minimality_ok),
                ";".join(str(i) for i in report.unverified)]

    return _each_instance(rows, cells,
                          lambda idx, values: writer.writerow([idx, *values]))


def _add_tight_bounds(sub) -> None:
    sub.add_argument("--tight-bounds", choices=["milp", "box"], default="milp")


def _add_explainer_args(sub, with_mode=True) -> None:
    sub.add_argument("model", help="model JSON path")
    sub.add_argument("instances", help="instances CSV path")
    if with_mode:
        sub.add_argument("--mode", choices=[MODE_BASELINE, MODE_IMPROVED],
                         default=MODE_IMPROVED)
    sub.add_argument("--order", default=None,
                     help="'asc' or comma-separated attribute permutation")
    _add_tight_bounds(sub)
    sub.add_argument("--time-budget-ms", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxplain",
        description="Minimal sufficient-attribute explanations for ReLU "
                    "classifiers, with exact solver checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_explainer_args(subs.add_parser("explain", help="one CSV row per instance"))
    bounds = subs.add_parser("bounds", help="per-neuron tight and box bounds")
    bounds.add_argument("model", help="model JSON path")
    _add_tight_bounds(bounds)
    _add_explainer_args(subs.add_parser("bench",
                                        help="aggregate baseline-vs-improved row"),
                        with_mode=False)
    verify = subs.add_parser("verify", help="independently re-check explanations")
    _add_explainer_args(verify)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--samples", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"explain": cmd_explain, "bounds": cmd_bounds,
                "bench": cmd_bench, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader wants no more rows: stdout goes to the null device, so
        # that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (InputError, ModelFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
