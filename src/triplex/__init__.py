"""Numerical laboratory for a third-order weakly hyperbolic model operator
with triple characteristics on the periodic line.

Subpackages:
  symbols      expression language for coefficient symbols in (t, x, xi)
  models       model container, validation and example gallery
  cubic        discriminants, characteristic roots and degeneracy conditions
  symmetrizer  the one definition of S, J and A; pointwise 3x3 symmetrizer algebra
  quantize     Fourier-mode quantization, Friedrichs part, lower-bound checks
  evolution    first-order evolution, energies, cutoffs, extension tooling
  cli          command-line front end
"""

__version__ = "0.1.0"
