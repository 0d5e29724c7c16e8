"""Provably correct minimal explanations for feedforward ReLU classifiers.

The engine decides which input attributes are necessary for a prediction by
checking entailment with an exact MILP feasibility core, short-circuited and
accelerated by interval (box) bound propagation and constraint
simplification.
"""

from .box import (BoundsMap, ShortcutResult, box_propagate,
                  margin_lower_bounds, shortcut_check)
from .bnb import (BranchAndBoundBackend, MilpOutcome, SolverBackend,
                  milp_to_lp, optimize, solve_feasibility)
from .encoding import (MilpProblem, SimplificationStats, attach_rival_query,
                       encode_network, fix_attributes, merge_bounds,
                       tighten_and_simplify)
from .engine import (Decision, EngineConfig, Explainer, Explanation,
                     ExplainStats, InstanceError, PredictionTieError,
                     VerificationReport,
                     compute_tight_bounds, is_entailed, verify_explanation)
from .model import (Activations, InputDomain, Layer, ModelFormatError, Network,
                    batch_outputs, forward, load_domain, load_model_file,
                    load_network, predict, to_document)
from .simplex import LpOutcome, LpProblem, SolverFailure, solve_lp

__version__ = "0.1.0"

__all__ = [
    "Activations", "BoundsMap", "BranchAndBoundBackend",
    "Decision", "EngineConfig", "Explainer", "Explanation", "ExplainStats",
    "InputDomain", "InstanceError", "Layer", "LpOutcome", "LpProblem",
    "MilpOutcome", "MilpProblem", "ModelFormatError", "Network",
    "PredictionTieError", "ShortcutResult", "SimplificationStats",
    "SolverBackend", "SolverFailure", "VerificationReport",
    "attach_rival_query", "batch_outputs", "box_propagate",
    "compute_tight_bounds", "encode_network", "fix_attributes", "forward",
    "is_entailed", "load_domain", "load_model_file", "load_network",
    "margin_lower_bounds", "merge_bounds", "milp_to_lp", "optimize", "predict",
    "shortcut_check", "solve_feasibility", "solve_lp", "tighten_and_simplify",
    "to_document", "verify_explanation",
]
