"""From-scratch ML kit (the scikit-learn substitution).

Implements exactly the model families the prediction schemes in the
paper depend on: linear regression (Krasowska), natural cubic
splines (Underwood), random forests (Rahman/FXRZ), mixture-of-experts +
conformal intervals (Ganguli), plus K-fold / grouped cross-validation,
MedAPE-style metrics, and FXRZ's interpolation data augmentation.
"""

from .augmentation import interpolation_augment
from .base import BaseEstimator, check_X, check_X_y
from .conformal import ConformalRegressor
from .forest import RandomForestRegressor
from .gp import GaussianProcessRegressor, median_heuristic, rbf_kernel
from .linear import LinearRegression
from .metrics import absolute_percentage_errors, coverage, medape, r2_score
from .mixture import MixtureLinearRegression
from .mlp import MLPRegressor
from .model_selection import GroupKFold, KFold
from .splines import NaturalSplineRegression, natural_cubic_basis, quantile_knots
from .tree import DecisionTreeRegressor

_ESTIMATORS = {
    cls.__name__: cls
    for cls in (
        ConformalRegressor,
        DecisionTreeRegressor,
        GaussianProcessRegressor,
        LinearRegression,
        MLPRegressor,
        MixtureLinearRegression,
        NaturalSplineRegression,
        RandomForestRegressor,
    )
}


def _estimator_by_name(name: str) -> type[BaseEstimator]:
    """Resolve an estimator class by name (state deserialisation)."""
    try:
        return _ESTIMATORS[name]
    except KeyError:
        raise ValueError(f"unknown estimator class {name!r}") from None


__all__ = [
    "BaseEstimator",
    "ConformalRegressor",
    "DecisionTreeRegressor",
    "GaussianProcessRegressor",
    "GroupKFold",
    "KFold",
    "LinearRegression",
    "MLPRegressor",
    "MixtureLinearRegression",
    "NaturalSplineRegression",
    "RandomForestRegressor",
    "absolute_percentage_errors",
    "check_X",
    "check_X_y",
    "coverage",
    "interpolation_augment",
    "medape",
    "median_heuristic",
    "natural_cubic_basis",
    "quantile_knots",
    "r2_score",
    "rbf_kernel",
]
