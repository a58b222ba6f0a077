"""Restricted divergence duality toolkit for finite probability spaces.

Computes divergences generated by convex functions both in closed form
and as discriminator suprema, evaluates the matching intermediate
distribution infima, and fits maximum likelihood, moment matching and
linear adversarial estimators under model mismatch. See the README for
the command line interface.
"""

__version__ = "0.1.0"

from .errors import FdualError
from .extreal import POS_INF, finite
from .fgen import builtin, builtin_names, check_generator
from .space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    OutcomeSpace,
    absolutely_continuous,
    expectation,
    feature_means,
    make_dist,
    random_dist,
    random_instance,
)

__all__ = [
    "__version__",
    "FdualError",
    "POS_INF",
    "finite",
    "builtin",
    "builtin_names",
    "check_generator",
    "OutcomeSpace",
    "Dist",
    "FunctionOnSpace",
    "FeatureMap",
    "make_dist",
    "expectation",
    "feature_means",
    "absolutely_continuous",
    "random_dist",
    "random_instance",
]
