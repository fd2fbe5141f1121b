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


def strict_str(value) -> str:
    """A JSON string; str() would turn {} into "{}"."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def sha256_hex(value) -> str:
    """A SHA-256 digest as 64 lower-case hex digits."""
    if not (isinstance(value, str) and len(value) == 64
            and all(c in "0123456789abcdef" for c in value)):
        raise ValueError(f"{value!r} is not a SHA-256 hex digest")
    return value


def list_of(parse):
    """A parser of a JSON list that reads every item with parse."""
    def parse_list(value):
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return [parse(item) for item in value]
    return parse_list


def object_of(fields: dict):
    """A parser of a nested JSON object with its own field table."""
    return lambda value: read_fields(value, fields, "", ValueError)


def nullable(parse):
    """A parser that reads JSON null as None and anything else with parse."""
    return lambda value: None if value is None else parse(value)


def read_fields(doc, fields: dict, where: str, error: type[Exception] = ArtifactError) -> dict:
    """Each field a JSON object's table declares, parsed: {key: parse(doc[key])}.

    A parser raises TypeError or ValueError on a bad value; a field declared as
    (parser, default) may be absent and then reads as default. A missing or bad
    field raises `error` naming `where` and the field.
    """
    where = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise error(f"{where}expected a JSON object, got {type(doc).__name__}")
    out = {}
    for key, parse in fields.items():
        if isinstance(parse, tuple):
            parse, default = parse
            if key not in doc:
                out[key] = default
                continue
        elif key not in doc:
            raise error(f"{where}missing field {key!r}")
        try:
            out[key] = parse(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise error(f"{where}bad value in field {key!r}: {exc}") from None
    return out
