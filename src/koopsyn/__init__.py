"""Data-driven bilinear Koopman surrogates with robust LMI feedback synthesis."""

from .controller import DesignResult
from .edmd import Surrogate
from .lifting import Lifting
from .plants import Plant, make_example
from .uncertainty import UncertaintyRegion

__version__ = "0.1.0"

__all__ = [
    "DesignResult",
    "Lifting",
    "Plant",
    "Surrogate",
    "UncertaintyRegion",
    "make_example",
]
