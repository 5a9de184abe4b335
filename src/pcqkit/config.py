"""Layered run configuration: built-in defaults, an INI file, CLI overrides.

Every knob that changes metric values is a semantic field and feeds the
config hash; operational fields (worker count, cache location, seed) do
not. Feature tables and saved models carry the hash so mismatched
settings are caught instead of silently mixed. A Config is immutable and
refuses a value outside its field's legal range when it is made, so the
metrics never check their settings.
"""

import configparser
import dataclasses
import hashlib
import math
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
_ABOVE_0 = (lambda v: v > 0), "more than 0"
_COUNT = (lambda v: type(v) is int and v >= 1), "an integer, 1 or more"
_NATURAL = (lambda v: type(v) is int and v >= 0), "an integer, 0 or more"

# field -> (test, what is legal); NaN fails every range test
_LEGAL = {
    "psnr_ycbcr_matrix": _one_of(*YCBCR_MATRICES),
    "psnr_yuv_symmetric": _one_of("mse", "psnr"),
    "pointssim_estimator": _one_of(*ESTIMATORS),
    # not a bool nor a float, as PointCloud's own bit_depth
    "cloud_bit_depth": ((lambda v: v is None or (type(v) is int
                                                 and 1 <= v <= 32)),
                        "none or an integer from 1 to 32"),
    "pipeline_jobs": _NATURAL, "pipeline_seed": _NATURAL,
    "graphsim_n_scales": ((lambda v: type(v) is int and v >= 3),
                          "an integer, 3 or more"),
    "graphsim_smoothing": ((lambda v: type(v) is bool), "true or false"),
    "graphsim_keypoint_fraction": ((lambda v: 0 < v <= 1),
                                   "a value in (0, 1]"),
    "pointssim_k": _COUNT, "graphsim_k": _COUNT,
    "pointssim_pooling_exponent": _ABOVE_0,
    "psnr_normal_radius": _AT_LEAST_0,
    "psnr_cap_db": _AT_LEAST_0,
    "pcqm_radius_factor": _ABOVE_0,
    "graphsim_radius_factor": _ABOVE_0,
    # 0 is legal, though a 0 in k1, k2, k3, k5 or k6 can give nan
    **{f"pcqm_k{i}": _AT_LEAST_0 for i in range(1, 9)},
    **{f"graphsim_t_{name}": _ABOVE_0 for name in ("mag", "mean", "cov")},
}


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
        # an int or numpy float would hash apart from the equal float
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and type(value) is bool:
                raise ConfigMismatch(
                    f"{f.name}: expected a number, got {value!r}")
            if f.type is float and isinstance(value, (int, float)):
                object.__setattr__(self, f.name, float(value))
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


def _convert(name: str, raw: str, annotation):
    # Optional[T] parses like T and alone takes None, spelled "none"
    raw = raw.strip()
    args = typing.get_args(annotation)
    target_type = args[0] if args else annotation
    if raw.lower() in ("", "none"):
        if type(None) in args:
            return None
        raise ConfigMismatch(
            f"{name}: expected {target_type.__name__}, got {raw!r}")
    if target_type is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigMismatch(f"{name}: expected a boolean, got {raw!r}")
    try:
        value = target_type(raw)
    except ValueError:
        raise ConfigMismatch(
            f"{name}: expected {target_type.__name__}, got {raw!r}") from None
    if target_type is float and math.isnan(value):
        raise ConfigMismatch(f"{name}: expected a number, got {raw!r}")
    return value


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
                values[name] = _convert(name, raw, _FIELD_TYPES[name])
    for name, value in (overrides or {}).items():
        if name not in _FIELD_TYPES:
            raise ConfigMismatch(f"unknown config field {name!r}")
        if value is not None:
            values[name] = value
    return Config(**values)
