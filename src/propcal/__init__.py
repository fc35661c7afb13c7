"""Empirical path-loss prediction and drive-test calibration toolkit.

Predict received signal strength with classic empirical models, fit a
constant correction factor per model against measured drive-test data,
and rank the corrected models by mean squared error and correlation.
"""

import types as _types

from .calibration import (
    CalibrationReport,
    InferenceResult,
    ModelCalibration,
    calibrate,
    correction_factor,
    cost231_tx_height_from_slope,
    decade_slope,
    infer_site_parameters,
    mse,
    pearson_r,
    published_divergence_notes,
)
from .dataset import (
    DriveTestTable,
    PUBLISHED_CALIBRATION,
    emit_plot_series,
    parse_drive_test_csv,
    reference_dataset,
    serialize_drive_test_csv,
    with_prediction,
)
from .errors import DataError, DomainError, PropcalError
from .link_budget import (
    REFERENCE_SITE,
    SiteConfig,
    predict_rss,
    site_from_json,
    site_to_json,
)
from .models import (
    ENVIRONMENTS,
    ERICSSON_URBAN,
    MEDIUM_SUBURBAN,
    METROPOLITAN,
    MODEL_IDS,
    TERRAIN_A,
    TERRAIN_B,
    TERRAIN_C,
    TERRAINS,
    Environment,
    EricssonParams,
    ExtendedCost231Loss,
    ModelRangeWarning,
    PathLossModel,
    SuiParams,
    TerrainCategory,
    cost231_hata,
    ericsson_frequency_term,
    ericsson_path_loss,
    extended_cost231,
    fspl,
    make_model,
    model_from_params,
    sui_gamma,
    sui_path_loss,
)

__version__ = "0.1.0"

# Every public name imported above, less the submodules that those imports
# bind as a side effect.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
