"""Numerical toolkit for two coupled underdominant genetic clines.

Subpackages cover the pipeline end to end: the gamete recursion and its
weak-selection (p, q, D) reaction as array maps (`genetics`), 1-D
reaction-diffusion integrators with front tracking (`pde`), standing-wave
construction by shooting and quadrature (`standing`), wave-speed theory and
a traveling-wave boundary value solver (`speed`), spectral stability checks
of the standing front (`stability`), and a command-line driver (`cli`).
"""

__version__ = "0.1.0"

from .genetics import FitnessParams  # noqa: F401
from .pde import Grid1D, SimConfig, Trajectory  # noqa: F401
from .standing import WaveProfile  # noqa: F401
