"""Exact conductor-exponent calculus for group filtrations and
Weil-Deligne block data, with brute-force character-theoretic oracles.

Names are imported from their modules (`tensorcond.chars`,
`tensorcond.corpus`, ...): the package root re-exports nothing, so
importing one module compiles only that module and what it imports."""

__version__ = "0.1.0"
