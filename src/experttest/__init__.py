"""Audit whether an expert's predictions carry information beyond recorded features.

The test pairs records with nearby feature vectors, repeatedly swaps the
paired predictions at random, and compares the observed loss against the
resulting swap distribution. A small tau statistic rejects the conditional
independence of outcomes and predictions given features, which means no model
trained on those features alone can reproduce what the expert is doing.

Each module's ``__all__`` owns its public names; the package exports them all.
"""

from . import bounds, core, engine, matching, synthgen
from .bounds import *
from .core import *
from .engine import *
from .matching import *
from .synthgen import *

__version__ = "0.1.0"

__all__ = []
__all__ += core.__all__
__all__ += matching.__all__
__all__ += engine.__all__
__all__ += bounds.__all__
__all__ += synthgen.__all__
