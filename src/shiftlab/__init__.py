"""Finite-horizon stability and sensitivity statistics for symbolic systems.

The library builds distinguished points of full shifts (a nested block
construction with long zero runs, Sturmian rotation codings, regular
Toeplitz skeletons, Champernowne-style concatenations, periodic points),
samples their cylinders by occurrence shifts, and computes truncated-metric
statistics: diameter series and the averages, densities and sliding-window
maxima read off them, a mean-equicontinuity modulus from two-point diameter
series, envelope support counts, word-complexity entropy, and a
simultaneous near-return probe. The `shiftlab` CLI wraps everything into
reproducible, byte-stable experiment reports.
"""

from .core import *
from .generate import *
from .recurrence import *
from .stability import *

__version__ = "0.1.0"
