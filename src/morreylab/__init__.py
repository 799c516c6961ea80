"""morreylab: dyadic harmonic analysis on truncated lattices.

The package discretizes the standard dyadic grid of R^n to a finite window of
levels, represents functions as piecewise constants on the finest cells, and
provides:

* the bilinear fractional integral operator and its iterated commutators
  with BMO symbols, by singularity-aware quadrature;
* dyadic and centered bilinear maximal operators;
* Morrey norms, a weak-type functional, Muckenhoupt constants, and the full
  family of multi-weight constants used by two-weight bounds;
* constructive stopping-time (Calderon-Zygmund) decompositions;
* a CLI harness (`morreylab`) that estimates best constants of the weighted
  inequalities over seeded random inputs and emits CSV/JSON reports.

Everything is deterministic: fixed seeds reproduce reports byte for byte.
"""

from .dyadic import Cube, Window
from .errors import ValidationError
from .exponents import ExponentSet, build, solve_st, validate
from .field import (
    LatticeFunction,
    Weight,
    bmo_norm,
    from_csv,
    power_weight,
    to_csv,
)
from .maximal import m_alpha_r
from .operators import (
    CommutatorSpec,
    bh_maximal,
    bilinear_fractional,
    bt_alpha,
    commutator_iterated,
)
from .czd import (
    Decomposition,
    cz_decompose,
    cz_decompose_alpha,
    decomposition_to_json,
    necessity_pair,
    verify_decomposition,
)
from .weights_norms import (
    WeightConditionKind,
    ap_constant,
    lemma39_check,
    morrey_norm,
    rhs_bilinear_morrey,
    two_weight_constant,
    weak_morrey_functional,
)
from .harness import ExperimentConfig, Report, emit_report, parse_config, run_experiment

from ._version import __version__  # noqa: E402

__all__ = [
    "build",
    "verify_decomposition",
    "decomposition_to_json",
    "to_csv",
    "from_csv",
    "CommutatorSpec",
    "Cube",
    "Decomposition",
    "ExperimentConfig",
    "ExponentSet",
    "LatticeFunction",
    "Report",
    "ValidationError",
    "Weight",
    "WeightConditionKind",
    "Window",
    "ap_constant",
    "bh_maximal",
    "bilinear_fractional",
    "bmo_norm",
    "bt_alpha",
    "commutator_iterated",
    "cz_decompose",
    "cz_decompose_alpha",
    "emit_report",
    "lemma39_check",
    "m_alpha_r",
    "morrey_norm",
    "necessity_pair",
    "parse_config",
    "power_weight",
    "rhs_bilinear_morrey",
    "run_experiment",
    "solve_st",
    "two_weight_constant",
    "validate",
    "weak_morrey_functional",
]
