"""Maximum-likelihood estimation for the correlated binomial distribution.

CB(n, p, rho) mixes Binomial(n, p) with a two-point distribution on
{0, n}; ``rho`` is the mixture weight standing in for positive trial
correlation.  The package provides the distribution itself
(:mod:`corrbinom.model`), an EM maximum-likelihood estimator
(:mod:`corrbinom.em`), a brute-force grid-search cross-check
(:mod:`corrbinom.gridsearch`), a Monte-Carlo bias/RMSE study harness
(:mod:`corrbinom.simulate`), box-percentile figure output
(:mod:`corrbinom.boxpct`), and a command-line interface
(``corrbinom fit|simulate|pmf|sample|plot``).
"""

from . import boxpct, em, gridsearch, model, simulate
from .boxpct import *  # noqa: F401,F403 - each module's __all__ is the public API
from .em import *  # noqa: F401,F403
from .gridsearch import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(boxpct.__all__ + em.__all__ + gridsearch.__all__ + model.__all__
                 + simulate.__all__)
