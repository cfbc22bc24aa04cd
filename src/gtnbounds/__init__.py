"""Verification toolkit for coefficient bounds of analytic function classes
subordinate to the characteristic function exp(z + k*z**2/2).

The package pairs every printed bound formula with two independent checks:
a truncated-power-series oracle that re-derives the coefficient relations
numerically, and a brute-force supremum over an exact parametrization of the
admissible Caratheodory coefficient body.  Disagreements between printed
formulas and oracle values are reported, never silently corrected.
"""

__version__ = "0.1.0"
