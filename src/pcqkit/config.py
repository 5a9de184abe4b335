"""Layered run configuration: built-in defaults, an INI file, CLI overrides.

Every knob that changes metric values is a semantic field and feeds the
config hash; operational fields (worker count, cache location, seed) do
not. Feature tables and saved models carry the hash so mismatched
settings are caught instead of silently mixed. A Config is immutable and
refuses a value of the wrong type or outside its field's legal range
when it is made, so the metrics never check their settings.
"""

import configparser
import dataclasses
import hashlib
import math
import numbers
import os
import typing
from dataclasses import dataclass
from typing import Optional

from .colorspace import YCBCR_MATRICES
from .errors import ConfigMismatch
from .metrics.pointssim import ESTIMATORS

__all__ = ["Config", "load_config", "ENV_VAR"]

ENV_VAR = "PCQKIT_CONFIG"

# fields that do not alter computed values: excluded from the hash
_OPERATIONAL = {"pipeline_jobs", "pipeline_cache_dir", "pipeline_seed"}


def _one_of(*allowed):
    return (lambda v: v in allowed), f"one of {', '.join(allowed)}"


_AT_LEAST_0 = (lambda v: v >= 0), "0 or more"
_AT_LEAST_1 = (lambda v: v >= 1), "1 or more"
_ABOVE_0 = (lambda v: v > 0), "more than 0"
# a radius: an infinite one holds every pair of points
_FINITE_AT_LEAST_0 = (lambda v: 0 <= v < math.inf), "finite and 0 or more"
_FINITE_ABOVE_0 = (lambda v: 0 < v < math.inf), "finite and more than 0"

# field -> (test, what is legal) of a value of the field's type; NaN fails
# every range test
_LEGAL = {
    "psnr_ycbcr_matrix": _one_of(*YCBCR_MATRICES),
    "psnr_yuv_symmetric": _one_of("mse", "psnr"),
    "pointssim_estimator": _one_of(*ESTIMATORS),
    "cloud_bit_depth": ((lambda v: v is None or 1 <= v <= 32),
                        "none or an integer from 1 to 32"),
    "pipeline_jobs": _AT_LEAST_0, "pipeline_seed": _AT_LEAST_0,
    "graphsim_n_scales": ((lambda v: v >= 3), "3 or more"),
    "graphsim_keypoint_fraction": ((lambda v: 0 < v <= 1),
                                   "a value in (0, 1]"),
    "pointssim_k": _AT_LEAST_1, "graphsim_k": _AT_LEAST_1,
    "pointssim_pooling_exponent": _ABOVE_0,
    "psnr_normal_radius": _FINITE_AT_LEAST_0,
    "psnr_cap_db": _AT_LEAST_0,
    "pcqm_radius_factor": _FINITE_ABOVE_0,
    "graphsim_radius_factor": _FINITE_ABOVE_0,
    # 0 is legal, though a 0 in k1, k2, k3, k5 or k6 can give nan
    **{f"pcqm_k{i}": _AT_LEAST_0 for i in range(1, 9)},
    **{f"graphsim_t_{name}": _ABOVE_0 for name in ("mag", "mean", "cov")},
}

# a field's type -> the values it takes and what they are called
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"),
          str: (str, "a string"), bool: (bool, "true or false")}


def _typed(name: str, value, annotation):
    """value as a field of type annotation holds it, or ConfigMismatch:
    an int field takes any integer and a float field any real, each but a
    bool and stored as the Python type, so that it hashes as the equal
    int or float; an integer outside the int64 range in an int field, or
    too large for a float in a float field, is refused; a str
    field takes a str, a bool field a bool, and an Optional field None
    too."""
    args = typing.get_args(annotation)
    if value is None and type(None) in args:
        return None
    kind = args[0] if args else annotation
    accepted, what = _KINDS[kind]
    # a bool is an integer and a real to isinstance
    if isinstance(value, accepted) and (
            kind is bool or not isinstance(value, bool)):
        try:
            value = kind(value)
        except OverflowError:   # an integer past the largest float
            raise ConfigMismatch(f"{name}: expected {what}, got an integer "
                                 "too large for a float") from None
        # numpy reads an int field as an int64, and a message or the hash
        # cannot print an integer of more than 4,300 digits
        if kind is int and not -2 ** 63 <= value < 2 ** 63:
            raise ConfigMismatch(f"{name}: expected {what}, got an integer "
                                 "outside the int64 range")
        return value
    if args:
        what = "none or " + what
    raise ConfigMismatch(f"{name}: expected {what}, got {value!r}")


@dataclass(frozen=True)
class Config:
    # field names are <section>_<key> in the INI file
    cloud_bit_depth: Optional[int] = None      # None: infer per cloud
    psnr_cap_db: float = 100.0
    psnr_ycbcr_matrix: str = "bt709"
    psnr_yuv_symmetric: str = "mse"
    psnr_normal_radius: float = 20.0
    pointssim_k: int = 12
    pointssim_estimator: str = "variance"
    pointssim_pooling_exponent: float = 1.0
    pcqm_radius_factor: float = 0.02   # times the bounding-box diagonal
    pcqm_k1: float = 1e-8
    pcqm_k2: float = 1e-8
    pcqm_k3: float = 1e-8
    pcqm_k4: float = 0.002
    pcqm_k5: float = 1e-8
    pcqm_k6: float = 1e-8
    pcqm_k7: float = 0.002
    pcqm_k8: float = 0.002
    pcqm_lab_table: Optional[str] = None       # lightness/chroma remap table
    graphsim_keypoint_fraction: float = 0.1
    graphsim_k: int = 10
    graphsim_radius_factor: float = 2.0
    graphsim_n_scales: int = 3
    graphsim_smoothing: bool = True
    graphsim_t_mag: float = 0.001
    graphsim_t_mean: float = 0.001
    graphsim_t_cov: float = 0.001
    pipeline_jobs: int = 0                     # 0: one worker per CPU
    pipeline_cache_dir: Optional[str] = None
    pipeline_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name,
                               _typed(f.name, getattr(self, f.name), f.type))
        for name, (test, what) in _LEGAL.items():
            value = getattr(self, name)
            if not test(value):
                raise ConfigMismatch(f"{name}: expected {what}, got {value!r}")

    @property
    def hash(self) -> str:
        """12 hex digits of the sha256 of the semantic fields."""
        payload = "\n".join(f"{f.name}={getattr(self, f.name)!r}"
                            for f in dataclasses.fields(self)
                            if f.name not in _OPERATIONAL)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# how an INI value is read for each field type
_PARSERS = {int: int, float: float, str: str,
            bool: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[
                raw.lower()]}


def _convert(raw: str, annotation):
    # "none" or nothing reads as None, and a value that the field's type
    # cannot parse stays a string: Config refuses either where its field
    # does not take it
    raw = raw.strip()
    if raw.lower() in ("", "none"):
        return None
    args = typing.get_args(annotation)
    try:
        return _PARSERS[args[0] if args else annotation](raw)
    except (KeyError, ValueError):
        return raw


_FIELD_TYPES = typing.get_type_hints(Config)


def load_config(path: Optional[str] = None, overrides: dict = None) -> Config:
    """Build a Config from defaults, an optional INI file, and overrides.

    When path is None the PCQKIT_CONFIG environment variable is
    consulted. Unknown sections or keys in the file are an error, and so
    is a value that Config refuses; the overrides dict uses field names
    directly, and its None values are ignored.
    """
    values = {}
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigMismatch(f"cannot read config file {path!r}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                name = f"{section}_{key}"
                if name not in _FIELD_TYPES:
                    raise ConfigMismatch(
                        f"unknown config entry [{section}] {key}")
                values[name] = _convert(raw, _FIELD_TYPES[name])
    for name, value in (overrides or {}).items():
        if name not in _FIELD_TYPES:
            raise ConfigMismatch(f"unknown config field {name!r}")
        if value is not None:
            values[name] = value
    return Config(**values)
