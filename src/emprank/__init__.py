"""Experiment design for cascade networks.

Given a chain of dynamic modules driven through known excitations and read
out through noisy sensors, this package enumerates every minimal
excitation/measurement pattern, computes the asymptotic covariance of the
module-parameter estimates each pattern yields, and ranks the patterns by
scalar accuracy criteria.  A Monte Carlo layer reproduces selection-frequency
experiments over random networks, and a prediction-error fitting layer checks
the asymptotic covariance against simulated data.
"""

from .cascade import CascadeNetwork
from .emp import (
    Emp,
    VarianceProfile,
    direct_modules,
    enumerate_minimal,
    mirror,
    pattern_label,
)
from .fisher import (
    InfoResult,
    NonInformativeError,
    criterion,
    information_matrix,
)
from .lti import (
    ParamModule,
    StructureError,
    UnstableFilterError,
    param_jacobian,
    realize,
)
from .montecarlo import (
    Perturbation,
    ScenarioConfig,
    ScenarioReport,
    ratio_stats,
    run_scenario,
)
from .pem import (
    CovarianceCheck,
    Dataset,
    FitResult,
    empirical_covariance,
    pem_fit,
    simulate,
)
from .ranking import (
    EmpRanking,
    MirrorReport,
    covariance_block_identities,
    mirror_permutation,
    module_accuracy_report,
    rank_emps,
    snr_rule_3node,
    snr_rule_4node,
    verify_mirror,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeNetwork",
    "CovarianceCheck",
    "Dataset",
    "Emp",
    "EmpRanking",
    "FitResult",
    "InfoResult",
    "MirrorReport",
    "NonInformativeError",
    "ParamModule",
    "Perturbation",
    "ScenarioConfig",
    "ScenarioReport",
    "StructureError",
    "UnstableFilterError",
    "VarianceProfile",
    "covariance_block_identities",
    "criterion",
    "direct_modules",
    "empirical_covariance",
    "enumerate_minimal",
    "information_matrix",
    "mirror",
    "mirror_permutation",
    "module_accuracy_report",
    "param_jacobian",
    "pattern_label",
    "pem_fit",
    "rank_emps",
    "ratio_stats",
    "realize",
    "run_scenario",
    "simulate",
    "snr_rule_3node",
    "snr_rule_4node",
    "verify_mirror",
]
