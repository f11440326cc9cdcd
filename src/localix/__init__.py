"""Finite-scale workbench for distributive lattices read as spaces.

Everything here is exact and finite: posets and their lattices of
lower sets, presented lattices and their spectra, cover relations and
their ideals, free complementation, cut-free sequent proofs with
interpolation, finite topologies with Baire-category structure, and
codirected diagram pruning.  Each module re-exports its public surface
here; the ``localix`` console script exposes the same engines over a
small script language.
"""

from .baire import (
    FrameTopology,
    baire_decompose,
    boundary,
    closure,
    comgr,
    interior,
    is_dense,
    is_meager,
    regular_opens,
    regularize,
    sigma2_family,
)
from .budgets import DEFAULT_BUDGETS, Budgets, budgets_from_env
from .congruence import (
    OrderCongruence,
    enumerate_order_congruences,
    gen_order_congruence,
    order_kernel,
    quotient,
)
from .dissolution import Dissolution, dissolve, eta_principal, nA_congruence_bijection
from .errors import (
    DomainError,
    LocalixError,
    NoImageError,
    NotSeparableError,
    ParseError,
    PreconditionError,
    ResourceBudgetError,
    StructureError,
    UnstabilizedError,
)
from .interp import (
    InterpolationProblem,
    bilax_separators,
    cocomma_interpolant,
    interpolate_sequent,
    maehara_interpolant,
    novikov_separate,
    pushout_separators,
)
from .lattice import (
    FinLattice,
    LatticeHom,
    birkhoff_embedding,
    borel_image,
    disjointify,
    enumerate_homs,
    filterquotient,
    ideal_completion,
    join_irreducibles,
    lattice_from_abstract,
    lattice_isomorphic,
    lower_sets,
    powerset_lattice,
    product_decompose,
)
from .order import FinPoset, MonotoneMap, canon_key, lower_sets_of, poset_isomorphic
from .posite import (
    Coverage,
    PolyOrder,
    canonical_coverage,
    canonical_polyorder,
    cov_ideals,
    cov_ideals_from_generators,
    downtri,
    polyposet_coproduct,
    polyposet_entails,
    saturate_coverage,
    saturate_polyposet,
)
from .presented import (
    Presentation,
    SpecModel,
    bilax_pushout,
    cocomma_dl,
    coproduct_dl,
    extend_hom,
    presentation_of_lattice,
    pushout_ba,
    pushout_points,
    realize,
    spec,
)
from .pruning import (
    CoDiagram,
    Relation,
    canonical_prune,
    cycle_core,
    limit_image,
    prune_sequence,
    rank,
)
from .sequent import (
    BOT,
    TOP,
    Derivation,
    ProofResult,
    Sequent,
    Term,
    cut_check,
    eval_term,
    prove,
    term_leq,
)

__version__ = "0.1.0"
