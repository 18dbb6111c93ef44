"""Simulation toolkit for many-body-localized spin chains.

The model, streams, truncation, tensor, mps, w, simulate, hardness,
complexity, and oracle modules cover instance generation, batched seeding
of an instance's random streams, analytic truncation-error bounds, a
qubit-wise tensor-contraction engine, an exact matrix product state of the
evolved state, the truncated evolution's factor list W, sampling, a
commuting-circuit hardness family with its 2D mapping, quantum gate-count
bound evaluation, and dense reference computations.  The ``liomsim``
console script fronts all of it.
"""

from .errors import (
    DomainError,
    FeasibilityError,
    InfeasibilityError,
    NumericalIntegrityError,
    SaturationWarning,
    StructuralError,
)
from .model import (
    Constituent,
    CouplingIndex,
    InstanceParams,
    MblInstance,
    build_explicit_instance,
    build_random_instance,
    dense_hamiltonian,
    dense_liom,
    dense_unitary,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from .truncation import (
    BoundConstants,
    TruncatedInstance,
    TruncationRadii,
    delta_h_bound,
    delta_h_terms,
    gamma_upper_bound,
    liom_deviation_bound,
    select_radii,
    spn0_aggregate_bound,
    spn0_bound,
    truncate,
)
from .simulate import (
    ChainResult,
    ObservableProduct,
    SampleRecord,
    SampleRecords,
    SimulationRequest,
    conditional_chain,
    conditional_probability,
    expectation,
    sample,
)
from .oracle import OutcomeDistribution, evolve_state, exact_distribution
from .hardness import HardnessSpec, build_iqp_instance, hardness_time, verify_2d_mapping
from .complexity import ComplexityQuery, circuit_complexity_bound

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "ChainResult",
    "ComplexityQuery",
    "Constituent",
    "CouplingIndex",
    "DomainError",
    "FeasibilityError",
    "HardnessSpec",
    "InfeasibilityError",
    "InstanceParams",
    "MblInstance",
    "NumericalIntegrityError",
    "ObservableProduct",
    "OutcomeDistribution",
    "SampleRecord",
    "SampleRecords",
    "SaturationWarning",
    "SimulationRequest",
    "StructuralError",
    "TruncatedInstance",
    "TruncationRadii",
    "build_explicit_instance",
    "build_iqp_instance",
    "build_random_instance",
    "circuit_complexity_bound",
    "conditional_chain",
    "conditional_probability",
    "delta_h_bound",
    "delta_h_terms",
    "dense_hamiltonian",
    "dense_liom",
    "dense_unitary",
    "evolve_state",
    "exact_distribution",
    "expectation",
    "gamma_upper_bound",
    "hardness_time",
    "instance_from_json",
    "instance_to_json",
    "liom_deviation_bound",
    "sample",
    "select_radii",
    "spn0_aggregate_bound",
    "spn0_bound",
    "truncate",
    "validate_instance",
    "verify_2d_mapping",
    "__version__",
]
