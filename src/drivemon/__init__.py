"""Anomaly detection for rover mobility telemetry.

Pipeline: ingest 8 Hz telemetry, add computed power/deviation signals,
featurize 4 s rolling windows with seven statistics each, min-max scale,
train an undercomplete dense autoencoder on nominal drives, and flag windows
whose reconstruction-error 1-norm exceeds a percentile-calibrated threshold.
"""

from .derive import DERIVED_CHANNELS, DerivedStream, derive_stream, deviation, mean_over_wheels, power
from .detect import FlagRecord, Threshold, calibrate, flag, score_matrix, write_report_json
from .errors import ArtifactError, DataError, OrderingError, PipelineError, SchemaError, TrainingError
from .features import (FeatureId, FeatureMask, MinMaxScaler, WindowSpec, feature_mask,
                       feature_matrix, featurize_csv, fit_scaler, stats7)
from .net import (AutoencoderModel, TrainConfig, TrainReport, adam_step, backward, build_model,
                  encode, forward, load_model, mse_loss, new_model, reconstruct, save_model, train)
from .pipeline import (calibrate_pipeline, detect_pipeline, evaluate_metrics, fit_pipeline,
                       generate_dataset, load_bundle)
from .synth import AnomalyEvent, LabeledStream, NominalProfile, generate_nominal, inject, make_dataset
from .telemetry import SENSOR_CHANNELS, WHEELS, TelemetryStream, read_stream, write_stream

__version__ = "0.1.0"
