"""A proof checker for a simplicial dependent type theory."""

__version__ = "0.5.1"
