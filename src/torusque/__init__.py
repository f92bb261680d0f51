"""Equivariant quantization of the 2n-torus at Planck parameter 1/p,
Hecke tori, and exhaustive character-sum bound verification."""

from .classical import (CAT_MAP, SP4_FIXTURE, ErgodicElement, birkhoff_average,
                        birkhoff_many, find_ergodic_sp4, validate_ergodic)
from .ffcore import PrimeModulus, legendre
from .hecke import HeckeTorus, TorusCharacter, centralizer, characters, decompose
from .heisenberg import FourierPolynomial, check_relations, integral, pi_op, quantize
from .quevaluator import (BoundReport, PrimeContext, factorization_check,
                          TraceFormula, refined_bound, trace_pair,
                          verify_que_bound)
from .weil import WeilRep, linearize

__version__ = "0.1.0"

__all__ = [
    "CAT_MAP", "SP4_FIXTURE", "ErgodicElement", "birkhoff_average",
    "birkhoff_many", "find_ergodic_sp4", "validate_ergodic", "PrimeModulus",
    "legendre", "HeckeTorus", "TorusCharacter", "centralizer", "characters",
    "decompose", "FourierPolynomial", "check_relations", "integral", "pi_op",
    "quantize", "BoundReport", "PrimeContext", "factorization_check",
    "refined_bound", "TraceFormula", "trace_pair", "verify_que_bound",
    "WeilRep", "linearize", "__version__",
]
