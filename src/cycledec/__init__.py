"""Exact cyclic decompositions of balanced measures, digraphs and rate fields."""

from .ratio import BACKEND, Rat, rat_str, to_rat
from .errors import (
    CycleDecError,
    Infeasible,
    InputFormatError,
    NegativeEdgeWeight,
    NoPerfectMatching,
    NoSolution,
    NotBalanced,
    NotBistochastic,
    NotGeneralPosition,
    NotHomologous,
    NotInRe,
    OracleExhausted,
    TooLarge,
    ZeroNotInterior,
)
from .exact_lp import (
    barycentric_vertex,
    exact_rank,
    solve_exact_linear,
)
from .lattice import (
    HeavyTailOracle1D,
    LatticeCycleClass,
    LatticeDecomposition,
    LatticeMeasure,
    decompose_1d_heavy_tail,
    decompose_lattice,
    empirical_measure,
    irreducible_class,
    is_balanced,
    is_irreducible,
    mean,
)
from .finite_graph import (
    GraphCycle,
    GraphDecomposition,
    WeightedDigraph,
    birkhoff_decompose,
    decompose_graph,
    is_balanced_graph,
    is_bistochastic,
)
from .complexes import (
    HodgeParts,
    TwoChain,
    TwoComplex,
    VectorField,
    ZeroForm,
    boundary1,
    boundary2,
    coboundary0,
    coboundary1,
    field_to_rates,
    harmonic_basis,
    hodge_decompose,
    recover_psi,
)
from .elementary import (
    ElementaryDecomposition,
    OneDimFamily,
    ReVerdict,
    decompose_1d,
    elementary_decompose,
    in_Re,
    pairwise_in_Re,
    r_star_necessary,
    sufficient_diameter_bound,
)
from .discretize import (
    Environment,
    EnvironmentSpec,
    PotentialSampler,
    band_potential,
    constant_potential,
    discretize_potential,
    random_environment,
    sine_potential,
)

__version__ = "0.1.0"
