"""Exact engine for symmetric-function families and generating-set criteria.

Modules
-------
exactalg    rationals, sparse q/t polynomials, rational functions, cyclotomics
partitions  partitions, skew shapes, statistics, predicates, enumeration
tabloids    domino tabloids and the weight sums w(shape, type)
symfunc     classical bases, Hall inner product, omega, p_n-adjoint, skewing
deformed    t- and (q,t)-inner products, Hall-Littlewood / Macdonald families
criteria    per-degree generating criteria and sequence verdicts
oracle      brute-force determinant verification and the conjecture probe
cli         the command-line front door
"""

__version__ = "0.1.0"

from .exactalg import (
    CycloElem,
    Poly,
    RatFunc,
    RING_Q,
    RING_QQT,
    RING_QT,
    cyclo_ring,
    cyclotomic_poly,
    specialize_root_of_unity,
)
from .partitions import (
    Partition,
    PartitionStats,
    SkewPartition,
    column_separated,
    contains,
    is_hook,
    is_rectangular,
    is_ribbon,
    partitions_of,
    refines,
    ribbon_height,
    stats,
    union,
)
from .tabloids import DominoTabloid, enumerate_tabloids, w
from .symfunc import (
    SymFunc,
    TransitionMatrix,
    hall_inner,
    multiply,
    omega,
    parse_symfunc,
    pn_perp,
    render_symfunc,
    skew,
    skew_monomial_pn_inner,
    skew_monomial_weight_sum,
    sym,
    to_basis,
    transition_matrix,
)
from .deformed import (
    big_schur,
    big_schur_pn_closed,
    deformed_inner,
    hl_P,
    hl_P_pn_closed,
    hl_Q,
    hl_Q_pn_closed,
    mac_J,
    mac_J_pn_closed,
    mac_P,
    mac_P_pn_closed,
    qn,
    skew_hl_P,
    whittaker,
    whittaker_pn_closed,
)
from .criteria import (
    FamilySpec,
    Specialization,
    check_sequence,
    criterion,
    parse_sequence_file,
)
from .oracle import conjecture_probe, degree_matrix, verdict

__all__ = [name for name in dir() if not name.startswith("_")]
