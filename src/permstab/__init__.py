"""permstab: metrics, finite-group engines, and rounding algorithms for
almost-homomorphisms into symmetric groups."""

from .errors import (
    CapacityError,
    CertificateError,
    ConfigError,
    NonGeneratingError,
    NotAbelianError,
    NotAHomomorphismError,
    NotAnActionError,
    NotASubgroupError,
    NotSurjectiveError,
    OutOfRegimeError,
    PermstabError,
    SizeMismatchError,
    WindowEmptyError,
)
from .perms import (
    PartialInjection,
    Perm,
    compose,
    hamming,
    identity,
    inverse,
)
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FinGroup,
    GroupHom,
    MarkedGroup,
    MarkedHom,
    MarkedMap,
    PermAction,
    PermGroup,
    SL2Group,
    TableGroup,
    cyclic,
    direct_product,
    group_from_perm_generators,
    left_coset_reps,
    left_regular,
    product_with_free_z,
    right_regular,
    sl2_mod,
)
from .spectral import KazhdanBracket, kazhdan, kazhdan_abelian_exact, kazhdan_bracket
from .almost_invariant import round_to_invariant, window_cardinality
from .families import (
    BiTranslationAction,
    DefectReport,
    FlagshipInstance,
    SwapFamily,
    build_bitranslation,
    build_swap_family,
    defect_report,
    flagship_family,
)
from .rounding import (
    AlmostResult,
    ConjugacyResult,
    commuting_extension,
    extract_conjugacy,
    nearest_right_translation,
    rigidity_pipeline,
)
from .oracle import OracleResult, nearest_homomorphism_bruteforce
from .experiment import ExperimentConfig, run_experiment, run_instance

__version__ = "0.1.0"
