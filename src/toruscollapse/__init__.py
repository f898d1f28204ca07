"""Collapsing constructions and rate functionals on the torus."""

__version__ = "0.1.0"
