"""Thresholding estimators for Gaussian linear regression: exact
finite-sample and limiting error distributions, and confidence intervals
with guaranteed minimal coverage."""

# The public API is the __all__ of each module, republished here.
from .coverage import *
from .estimators import *
from .finite_sample import *
from .limits import *
from .model import *
from .simulate import *
from .special import *

__version__ = "0.1.0"
