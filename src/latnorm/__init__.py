"""Finite-model toolkit for lattice-normed modules and compact extensions.

Layers, bottom up: ``stone`` (finite Stone algebra and partitions of unity),
``fibered`` (fiberwise modules, defects, nets, zonotopes), ``mixing``
(boolean-valued equality and cyclic-compactness witnesses), ``systems``
(measure-preserving systems given by generators, the Koopman operator of a
permutation, and extensions), ``relative`` (almost periodic
functions and the Kronecker subspace), ``seqmodel`` (the truncated
sequence-space counterexample). ``cli`` drives everything from JSON inputs
and alone writes the reports: the layers return plain result objects.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    ConstructionError,
    DimensionMismatchError,
    IncompleteCoverError,
    InfeasibleTruncationError,
    IterationLimitError,
    LatnormError,
    SchemaError,
    SizeCapError,
)
from .stone import (
    DEFAULT_TOL,
    ComplexCoefficient,
    Idempotent,
    PartitionOfUnity,
    PointSet,
    StoneElement,
    exhaustion,
)
from .fibered import (
    CpWitness,
    DefectReport,
    FiberSpace,
    FiberwiseMap,
    FiniteSet,
    GridNet,
    Traversal,
    UtobReport,
    cp_check,
    cp_witness_from_utob,
    defect,
    disc_grid,
    greedy_order,
    heine_borel_net,
    is_utob,
    prefix_defects,
    set_image,
    set_sum,
    truncate_to_ball,
    zonotope_net,
    zonotope_report,
)
from .mixing import (
    CyclicWitness,
    MixWitness,
    cyclic_witness,
    eq_idempotent,
    mix,
    mix_membership,
    verify_cyclic,
)
from .systems import (
    Extension,
    FiniteProbabilitySpace,
    MPMap,
    RelModule,
    ValidationReport,
    cond_expectation,
    embed_J,
    enumerate_group,
    koopman,
    rel_inner,
    rel_norm,
    validate_extension,
)
from .relative import (
    APReport,
    CrossCheckReport,
    EgoroffReport,
    KroneckerReport,
    SubmoduleBasis,
    ap_closure_properties,
    defect_chain,
    egoroff_localize,
    generated_submodule,
    is_conditionally_ap,
    kronecker_subspace,
    orbit,
    orbit_functions,
    orbit_tob_verdict,
    theorem_cross_check,
)
from .seqmodel import (
    EgoroffDemo,
    TruncatedSeqSpace,
    build_counterexample,
    egoroff_demo,
    verify_not_utob,
    verify_tob_bound,
)
