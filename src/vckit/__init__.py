"""vckit: a verifiable-computation toolkit.

Homomorphic polynomial authenticators, the Wesolowski verifiable delay
function, and a transparent STARK-style proof system with FRI low-degree
testing, all over one prime-field substrate and one Fiat-Shamir
transcript.
"""

from .encoding import HASH_ID
from .errors import (ConstraintViolation, InternalError, UsageError,
                     VerifyResult)
from .field import (DEFAULT_MODULUS, EvaluationDomain, Field, FieldElement,
                    MultivariatePoly, Polynomial, evaluate_on_domain,
                    interpolate, interpolate_on_domain)
from .merkle import MerkleTree, verify_path
from .transcript import PrfKey, Transcript, hash_to_group, prf

__all__ = [
    "ConstraintViolation", "DEFAULT_MODULUS",
    "EvaluationDomain", "Field", "FieldElement", "HASH_ID", "InternalError",
    "MerkleTree", "MultivariatePoly", "Polynomial", "PrfKey",
    "Transcript", "UsageError", "VerifyResult", "evaluate_on_domain",
    "hash_to_group", "interpolate", "interpolate_on_domain", "prf",
    "verify_path",
]

__version__ = "0.1.0"
