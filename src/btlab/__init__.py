"""btlab: invariants of truncated Barsotti-Tate groups from permutations.

A permutation pi of {1,...,h} and a signature (c, d) determine a
p-divisible group; this package computes the dimension table gamma(m) of
the automorphism schemes of its level-m truncations, the component-count
exponents c_m, the isomorphism number and the specializing height, and
verifies the closed forms against a symbolic path/cycle graph oracle.
It also carries an exact Witt-vector engine (integral sum/product/
negation laws via ghost components) and the circular-word classification
of level-1 truncations.
"""

from .graph_oracle import (
    CrossCheck,
    GraphTooLarge,
    MalformedGraph,
    VerificationMismatch,
    build_gamma_graph,
    classify_components,
    cross_check,
)
from .invariants import (
    InvariantReport,
    LevelTooLarge,
    OrbitProfile,
    ReportTooLarge,
    Segment,
    a_n,
    circular_level,
    component_exponent,
    gamma,
    invariant_report,
    isomorphism_number,
    orbit_profiles,
    segment_scan,
)
from .kraft import (
    BTClass,
    CircularWord,
    CountMismatch,
    EmptyWord,
    TooManyClasses,
    canonical_rotation,
    count_bt1,
    dual_word,
    enumerate_bt1,
    is_aperiodic,
    kraft_type,
)
from .permutations import (
    DegreeTooLarge,
    DuplicateImage,
    EmptyInput,
    OutOfRange,
    Permutation,
    ProductOrbit,
    Signature,
    cycle_decomposition,
    epsilon_sequence,
    pair_orbits,
    parse_permutation,
)
from .witt import (
    LawTooLarge,
    LengthMismatch,
    NonIntegralCoefficient,
    NotPrime,
    PrimeMismatch,
    PrimeTooLarge,
    TableTooLarge,
    WittVec,
    frobenius,
    ghost_polynomial,
    negation_polynomials,
    p_multiple,
    product_polynomials,
    ring_iso_table,
    sum_polynomials,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)

__version__ = "0.1.0"
