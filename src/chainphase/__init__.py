"""Exact cochain-level phases of excitation-moving processes on simplices."""

from .simplicial import (
    Chain,
    Cochain,
    Phase,
    StandardComplex,
    dualize,
)

__all__ = [
    "Chain",
    "Cochain",
    "Phase",
    "StandardComplex",
    "dualize",
]

__version__ = "0.1.0"
