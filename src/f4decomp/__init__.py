"""Exceptional Jordan algebra of split type, its noncompact automorphism
group acting by 27x27 matrices, and explicit global factorizations.

The package is organized bottom-up:

    octonion   split octonion arithmetic on length-8 coefficient vectors
    jordan     the 27-dimensional Jordan algebra, trace pairing, null cone
    liegroup   verified group elements, one-parameter subgroups, Killing form
    decomp     Iwasawa, open-cell, two-cell, and lower-triangular factorizations
    harmonic   radial spectral functions of the rank-one symmetric pair
    wordlang   a small language of group words with a printer and evaluator
    cli        the command line front end (entry point: f4decomp)
"""

from .config import GROUP_TOL, MEMBER_TOL
from .decomp import (
    DegenerateCell,
    DegeneratePairing,
    GaussFactors,
    IwasawaFactors,
    KEpsFactors,
    MatsukiFactors,
    NParams,
    ShapeViolation,
    bruhat_classify,
    flag_classify_keps,
    flag_classify_nminus,
    gauss,
    iwasawa,
    keps_iwasawa,
    matsuki,
    matsuki_classify,
    stabilizer_flag,
)
from .harmonic import (
    NonConvergent,
    PoleError,
    c_gamma,
    c_quadrature,
    exp_lambda_H,
    q_form,
    spherical,
)
from .jordan import (
    E1,
    E2,
    E3,
    P_MINUS,
    SIGMA_P_MINUS,
    JordanElement,
    inner,
)
from .liegroup import (
    AlgebraElement,
    GroupElement,
    RotationError,
    VerificationError,
    d4_rotate,
    exp_A,
    exp_N,
    gen_A,
    gen_G,
    identity,
    killing,
    sigma,
    verify,
)
from .octonion import Octonion, format_octonion, parse_octonion
from .wordlang import WordSyntaxError, eval_word, parse, print_word

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "DegenerateCell",
    "DegeneratePairing",
    "E1",
    "E2",
    "E3",
    "GROUP_TOL",
    "GaussFactors",
    "GroupElement",
    "IwasawaFactors",
    "JordanElement",
    "KEpsFactors",
    "MEMBER_TOL",
    "MatsukiFactors",
    "NParams",
    "NonConvergent",
    "Octonion",
    "P_MINUS",
    "PoleError",
    "RotationError",
    "SIGMA_P_MINUS",
    "ShapeViolation",
    "VerificationError",
    "WordSyntaxError",
    "bruhat_classify",
    "c_gamma",
    "c_quadrature",
    "d4_rotate",
    "eval_word",
    "exp_A",
    "exp_N",
    "exp_lambda_H",
    "flag_classify_keps",
    "flag_classify_nminus",
    "format_octonion",
    "gauss",
    "gen_A",
    "gen_G",
    "identity",
    "inner",
    "iwasawa",
    "keps_iwasawa",
    "killing",
    "matsuki",
    "matsuki_classify",
    "parse",
    "parse_octonion",
    "print_word",
    "q_form",
    "sigma",
    "spherical",
    "stabilizer_flag",
    "verify",
    "__version__",
]
