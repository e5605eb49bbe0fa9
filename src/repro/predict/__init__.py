"""LibPressio-Predict: the compression-performance prediction framework.

The three component families of §4.2:

* **metrics modules** (:mod:`repro.predict.metrics`) with
  ``predictors:invalidate`` declarations;
* **predictor plugins** (:mod:`repro.predict.predictor`) with the
  scikit-learn-inspired ``fit``/``predict`` API and serialisable state;
* **scheme plugins** (:mod:`repro.predict.schemes`) wiring metrics to
  predictors per compressor, looked up via :func:`get_scheme`.

Typical inference flow (the Python rendering of Figure 4)::

    scm = get_scheme("rahman2023")
    pred = scm.get_predictor(comp)              # may raise UnsupportedError
    pred.set_options({"predictors:state": prior_state})
    evaluator = scm.req_metrics_opts(comp, invalidations)
    results = evaluator.evaluate(data, changed=invalidations)
    results.merge(scm.config_features(comp))
    cr = pred.predict(results)
"""

from . import schemes  # noqa: F401  (imported for registration side effects)
from .evaluator import ALL_INVALIDATIONS, MetricsEvaluator, timing_bucket
from .invalidation import (
    classify_option_key,
    dependency_options,
    expand_invalidations,
    is_cacheable,
    is_invalidated,
)
from .predictor import (
    EstimatorPredictor,
    IdentityPredictor,
    PredictorPlugin,
    feature_vector,
)
from .scheme import SchemePlugin, available_schemes, get_scheme, scheme_registry

__all__ = [
    "ALL_INVALIDATIONS",
    "EstimatorPredictor",
    "IdentityPredictor",
    "MetricsEvaluator",
    "PredictorPlugin",
    "SchemePlugin",
    "available_schemes",
    "classify_option_key",
    "dependency_options",
    "expand_invalidations",
    "feature_vector",
    "get_scheme",
    "is_cacheable",
    "is_invalidated",
    "scheme_registry",
    "schemes",
    "timing_bucket",
]
