"""Exact constructors, verifiers and classifiers for totally symmetric
matrix sets and subspace arrangements over Q(i, sqrt2, sqrt3)."""

__version__ = "0.1.0"

from .field import Scalar, sqrt_restricted, NotRepresentable  # noqa: F401
