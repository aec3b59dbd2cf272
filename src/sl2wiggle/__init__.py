"""Exact normal forms and unipotent certificates for two-variable word maps
on SL2 over characteristic-0 fields."""

from .certify import (
    Certificate,
    CertStatus,
    CorePolys,
    DCParams,
    Witness,
    build_witness,
    certify,
    check_certificate,
    core_polys,
    sweep_box,
)
from .exact import (
    LaurentPoly,
    Mat2,
    QPoly,
    TPoly,
    gcd_q,
    resultant,
    xi_of,
)
from .wiggle import (
    AssocPolys,
    IdentityReport,
    WiggleValue,
    assoc_polys,
    eval_direct,
    eval_normal_form,
    gamma_of,
    specialized_assoc,
    trace_poly,
    verify_identities,
)
from .words import (
    CyclicForm,
    Gen,
    GeneratorPower,
    ReducedCyclic,
    Syllable,
    Trivial,
    Word,
    commutator,
    cyclic_reduce,
    double_commutator,
    double_commutator_cyclic,
    parse_word,
    swap_generators,
)

__version__ = "0.1.0"
