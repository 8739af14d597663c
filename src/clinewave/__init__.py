"""Numerical toolkit for two coupled underdominant genetic clines.

Subpackages cover the pipeline end to end: the gamete recursion and its
weak-selection (p, q, D) reaction as array maps, with the reduced model's
formulas and the parameter checks (`genetics`), 1-D reaction-diffusion
integrators with front tracking (`pde`), standing-wave construction by
shooting and quadrature (`standing`), wave-speed theory and a
traveling-wave boundary value solver (`speed`), spectral stability checks
of the standing front (`stability`), and a command-line driver (`cli`).

The package exports `FitnessParams` from `genetics` and `Grid1D`,
`SimConfig` and `Trajectory` from `pde`, which need numpy and
`scipy.linalg` only. Import `WaveProfile` and the other standing-front,
speed and stability names from their modules; importing the package
does not load those layers.
"""

__version__ = "0.1.0"

from .genetics import FitnessParams  # noqa: F401
from .pde import Grid1D, SimConfig, Trajectory  # noqa: F401
