"""Weighted first-order model counting toolkit.

Counting-safe Skolemization of function-free finite-domain theories, normal
form conversions, MLN and ProbLog encoders, and exact grounding-based
counters used as each other's oracles.
"""

import importlib

from .errors import CapExceededError, NonTightProgramError, ParseError, WfomcError
from .logic import (
    Atom,
    Constant,
    Domain,
    Exists,
    ForAll,
    Formula,
    FreshNamer,
    PredicateSig,
    Variable,
    WeightFn,
    WeightedTheory,
    classify_normal_form,
    free_vars,
    standardize_apart,
    substitute,
)
from .frontends import (
    LogicProgram,
    MlnModel,
    parse_mln,
    parse_problog,
    parse_theory,
    serialize_formula,
    serialize_theory,
)
from .grounding import GroundProblem, HerbrandBase, ground, herbrand_base
from .counting import export_dimacs, wfomc, wmc_bruteforce, wmc_dpll
from .transform import (
    eliminate_one,
    skolemize,
    skolemize_full,
    skolemize_prenex_shortcut,
    to_cnf_distribute,
    to_cnf_tseitin,
    to_nnf,
    to_prenex,
    unit_propagate,
)
from .encoders import (
    WfomcEncoding,
    clarks_completion,
    encode_mln,
    encode_problog,
    mln_oracle,
    problog_oracle,
    query_probability,
    tightness_check,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The kernels of brute-force counting load on first use (PEP 562), so
    # importing the package imports neither them nor numpy, which they use.
    if name == "_kernels":
        return importlib.import_module(f"{__name__}._kernels")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "CapExceededError",
    "Constant",
    "Domain",
    "Exists",
    "ForAll",
    "Formula",
    "FreshNamer",
    "GroundProblem",
    "HerbrandBase",
    "LogicProgram",
    "MlnModel",
    "NonTightProgramError",
    "ParseError",
    "PredicateSig",
    "Variable",
    "WeightFn",
    "WeightedTheory",
    "WfomcEncoding",
    "WfomcError",
    "clarks_completion",
    "classify_normal_form",
    "eliminate_one",
    "encode_mln",
    "encode_problog",
    "export_dimacs",
    "free_vars",
    "ground",
    "herbrand_base",
    "mln_oracle",
    "parse_mln",
    "parse_problog",
    "parse_theory",
    "problog_oracle",
    "query_probability",
    "serialize_formula",
    "serialize_theory",
    "skolemize",
    "skolemize_full",
    "skolemize_prenex_shortcut",
    "standardize_apart",
    "substitute",
    "tightness_check",
    "to_cnf_distribute",
    "to_cnf_tseitin",
    "to_nnf",
    "to_prenex",
    "unit_propagate",
    "wfomc",
    "wmc_bruteforce",
    "wmc_dpll",
]
