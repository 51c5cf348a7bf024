"""modstab: stability verification for a radical functional equation in modular spaces.

Given a perturbed solution of

    phi(x) + phi(y) + phi(z) = q * phi(((x**s + y**s + z**s) / q) ** (1/s))

with the perturbation controlled by a function alpha, the package constructs
the nearby exact solution by dual scaling limits and by fixed-point iteration
of a contraction operator, evaluates certified error bounds for the
reconstruction, and verifies the bounds and the equation numerically on
sample grids.
"""

from .direct import (
    LimitResult,
    Mode,
    SeriesBound,
    approximant_row,
    construct_limit,
    contract_bound_closed_form,
    limit_function,
    route_bounds,
    route_line,
    route_ratio,
    series_bound_contract,
    series_bound_expand,
)
from .equation import (
    ControlFunction,
    EquationParams,
    control_eval,
    control_eval_many,
    control_power_sums,
    defect,
    defect_many,
    pair_additivity_defect,
    parse_control,
    radical_root_many,
)
from .errors import (
    ArgumentError,
    ConfigError,
    ContractViolation,
    DefectHypothesisError,
    ModstabError,
    RegimeError,
)
from .fixedpoint import (
    ContractionCertificate,
    FixedPointResult,
    audit_defect_hypothesis,
    audit_defects,
    audit_ratios,
    estimate_contraction,
    fixed_point_solve,
)
from .functions import FunctionHandle, envelope_noise, monomial, parse_expression, sine
from .iterates import IterateTable
from .modular import (
    AxiomCheck,
    AxiomReport,
    ModularSpec,
    check_modular_axioms,
    estimate_delta2,
    parse_modular,
    rho_eval,
    rho_eval_array,
)
from .sampling import Grid, corner_triples, seeded_triples, standard_ladder
from .verify import (
    AdditivityPairs,
    CheckOutcome,
    additivity_pairs,
    cross_check,
    verify_oddness,
    verify_radical_additivity,
    verify_stability_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # modular
    "ModularSpec", "rho_eval", "rho_eval_array", "estimate_delta2", "check_modular_axioms",
    "AxiomCheck", "AxiomReport", "parse_modular",
    # functions
    "FunctionHandle", "monomial", "sine", "envelope_noise", "parse_expression",
    # equation
    "EquationParams", "ControlFunction", "radical_root_many",
    "defect", "defect_many", "pair_additivity_defect", "control_eval", "control_eval_many",
    "control_power_sums", "parse_control",
    # direct method
    "Mode", "route_ratio", "LimitResult", "SeriesBound", "limit_function", "construct_limit",
    "series_bound_contract", "series_bound_expand", "route_line", "route_bounds",
    "approximant_row",
    "contract_bound_closed_form",
    # fixed point
    "ContractionCertificate", "FixedPointResult",
    "estimate_contraction", "audit_defect_hypothesis",
    "audit_defects", "audit_ratios", "fixed_point_solve",
    # shared scaling iterates
    "IterateTable",
    # verification
    "CheckOutcome", "AdditivityPairs", "additivity_pairs",
    "verify_radical_additivity", "verify_oddness", "verify_stability_bound", "cross_check",
    # sampling
    "Grid", "standard_ladder", "seeded_triples", "corner_triples",
    # errors
    "ModstabError", "ArgumentError", "RegimeError",
    "ContractViolation", "DefectHypothesisError", "ConfigError",
]
