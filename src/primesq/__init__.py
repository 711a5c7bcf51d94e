"""primesq: prime counts between consecutive squares and their explicit bounds.

The sieve layer resolves any window with base primes up to its square root;
the counting layer provides per-window counts, running pi(n^2), two
independent exact pi(x) methods, and the hit count g(n); the analytic layer
evaluates every bound expression with tracked error and precision
escalation; verify runs reproducible range campaigns; mbound computes the
certified-capacity start index and its ratio table.
"""

from .analytic import (
    RealEval,
    c1_rhs,
    c2_lhs,
    delta,
    dusart_lower,
    dusart_upper,
    lemma1_proof_sides,
    lemma1_sides,
    lemma2_lhs,
    r_term,
    sum_r,
    theorem_floor,
)
from .counting import FRecord, f_of, g_of, pi_exact, pi_exact_many, stream_f
from .errors import DomainError, InsufficientTable, Unsupported
from .mbound import MnRecord, bound_gap, c3_table, m_of, s_sum
from .sieve import PrimeTable, SegmentBitmap, base_primes, sieve_window
from .verify import (
    ConjectureReport,
    MarginRecord,
    implication_check,
    verify_conjecture,
    verify_dusart,
    verify_lemmas,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "ConjectureReport",
    "DomainError",
    "FRecord",
    "InsufficientTable",
    "MarginRecord",
    "MnRecord",
    "PrimeTable",
    "RealEval",
    "SegmentBitmap",
    "Unsupported",
    "base_primes",
    "bound_gap",
    "c1_rhs",
    "c2_lhs",
    "c3_table",
    "delta",
    "dusart_lower",
    "dusart_upper",
    "f_of",
    "g_of",
    "implication_check",
    "lemma1_proof_sides",
    "lemma1_sides",
    "lemma2_lhs",
    "m_of",
    "pi_exact",
    "pi_exact_many",
    "r_term",
    "s_sum",
    "sieve_window",
    "stream_f",
    "sum_r",
    "theorem_floor",
    "verify_conjecture",
    "verify_dusart",
    "verify_lemmas",
    "verify_theorem",
]
