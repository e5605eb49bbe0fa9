"""From-scratch ML kit (the scikit-learn substitution).

Implements exactly the model families the prediction schemes in the
paper depend on: linear/ridge regression (Krasowska), natural cubic
splines (Underwood), random forests (Rahman/FXRZ), mixture-of-experts +
conformal intervals (Ganguli), plus K-fold / grouped cross-validation,
MedAPE-style metrics, and FXRZ's interpolation data augmentation.
"""

from .augmentation import interpolation_augment
from .base import BaseEstimator, check_X, check_X_y
from .conformal import ConformalRegressor
from .forest import RandomForestRegressor
from .gp import GaussianProcessRegressor, median_heuristic, rbf_kernel
from .linear import LinearRegression, Ridge
from .metrics import (
    absolute_percentage_errors,
    coverage,
    mae,
    mape,
    max_ape,
    medape,
    r2_score,
    rmse,
)
from .mixture import MixtureLinearRegression
from .mlp import MLPRegressor
from .model_selection import GroupKFold, KFold, cross_val_predict, train_test_split
from .preprocessing import PolynomialFeatures, StandardScaler, TargetTransform
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
        PolynomialFeatures,
        RandomForestRegressor,
        Ridge,
        StandardScaler,
        TargetTransform,
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
    "PolynomialFeatures",
    "RandomForestRegressor",
    "Ridge",
    "StandardScaler",
    "TargetTransform",
    "absolute_percentage_errors",
    "check_X",
    "check_X_y",
    "coverage",
    "cross_val_predict",
    "interpolation_augment",
    "mae",
    "mape",
    "max_ape",
    "medape",
    "median_heuristic",
    "natural_cubic_basis",
    "quantile_knots",
    "r2_score",
    "rbf_kernel",
    "rmse",
    "train_test_split",
]
