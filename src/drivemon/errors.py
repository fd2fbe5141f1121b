"""Exception hierarchy shared across the pipeline, plus the JSON readers that raise it.

The CLI maps these onto exit codes: data-shaped failures (schema, values,
ordering, training blow-ups) exit 3, artifact mismatches exit 4.
"""

import json
import math
from pathlib import Path


class PipelineError(Exception):
    """Base class for all drivemon errors."""


class SchemaError(PipelineError):
    """CSV header or file-schema violation; message names the column."""


class DataError(PipelineError):
    """Bad values, empty inputs, or size guards; message cites the row where known."""


class OrderingError(DataError):
    """Timestamps out of order or off the uniform sample grid."""


class ArtifactError(PipelineError):
    """Persisted model/scaler/threshold artifacts are corrupt or mutually inconsistent."""


class TrainingError(PipelineError):
    """Training aborted (non-finite loss); message cites epoch and batch."""


def read_json(path, error: type[PipelineError] = ArtifactError):
    """Parse a JSON file; a missing, unreadable or unparsable file raises `error` naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def strict_int(value) -> int:
    """A JSON integer as an int: whole-valued numbers pass, a bool or a fraction raises.

    int() alone would truncate 1.5 and read true as 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def strict_float(value) -> float:
    """A finite JSON number as a float: integers pass, a bool, a string or NaN/inf raises.

    float() alone would read true as 1.0 and "1.0" as 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def get_field(doc, key: str, convert, where: str, error: type[PipelineError] = ArtifactError):
    """convert(doc[key]); a missing or unconvertible value raises `error` naming `where` and `key`."""
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise error(f"{where}: missing field {key!r}") from None
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise error(f"{where}: bad value in field {key!r}: {exc}") from None
