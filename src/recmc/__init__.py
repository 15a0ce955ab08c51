"""Safety model checking for recursive programs.

Procedures are logical relations between input and output parameters;
the checker maintains under- and over-approximating summaries per stack
bound and answers bounded reachability queries without inlining calls.
Quantifier elimination is applied lazily through model-based projection
for linear rational and integer arithmetic.
"""

from .driver import CounterexampleTree, SafetyProof, Verdict, check, validate_cex, validate_proof
from .engine import BndSafety, EngineConfig, bounded_safety
from .formula import Sort
from .parser import SourceUnit, parse, print_program
from .program import AssertionMap, Program

__all__ = [
    "AssertionMap",
    "BndSafety",
    "CounterexampleTree",
    "EngineConfig",
    "Program",
    "SafetyProof",
    "SourceUnit",
    "Sort",
    "Verdict",
    "bounded_safety",
    "check",
    "parse",
    "print_program",
    "validate_cex",
    "validate_proof",
]
