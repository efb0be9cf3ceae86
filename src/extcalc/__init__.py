"""Exterior-algebra multivectors over flat (k, n) space-times.

Graded multivector algebra (dot, wedge, interior products, Hodge
complements), analytic and grid-sampled multivector fields with exterior
calculus, generalized Maxwell residuals in differential, integral, and
Fourier form, and the stress-energy-momentum tensor with its conservation
law and slice fluxes.  The package exports the ``__all__`` of each module.
"""

from .algebra import *
from .energy import *
from .fields import *
from .integrate import *
from .maxwell import *
from .serialize import *

__version__ = "0.1.0"
