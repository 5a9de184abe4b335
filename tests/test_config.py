import dataclasses

import numpy as np
import pytest

from pcqkit.config import ENV_VAR, Config, load_config
from pcqkit.errors import ConfigMismatch


def test_defaults():
    config = load_config()
    assert config == Config()
    assert config.pointssim_k == 12
    assert config.pcqm_radius_factor == 0.02
    assert config.graphsim_t_mag == 0.001
    assert config.cloud_bit_depth is None


def test_ini_overlay(tmp_path):
    path = tmp_path / "settings.ini"
    path.write_text(
        "[pointssim]\nk = 8\nestimator = median\n"
        "[psnr]\ncap_db = 80\n"
        "[graphsim]\nsmoothing = off\n"
        "[cloud]\nbit_depth = 12\n")
    config = load_config(str(path))
    assert config.pointssim_k == 8
    assert config.pointssim_estimator == "median"
    assert config.psnr_cap_db == 80.0
    assert config.graphsim_smoothing is False
    assert config.cloud_bit_depth == 12
    # untouched fields keep their defaults
    assert config.pcqm_k4 == 0.002


def test_env_var_is_consulted(tmp_path, monkeypatch):
    path = tmp_path / "env.ini"
    path.write_text("[pointssim]\nk = 9\n")
    monkeypatch.setenv(ENV_VAR, str(path))
    assert load_config().pointssim_k == 9
    # an explicit path wins over the environment
    other = tmp_path / "other.ini"
    other.write_text("[pointssim]\nk = 7\n")
    assert load_config(str(other)).pointssim_k == 7


def test_unknown_entries_are_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[pointssim]\nneighbours = 12\n")
    with pytest.raises(ConfigMismatch):
        load_config(str(path))
    with pytest.raises(ConfigMismatch):
        load_config(overrides={"not_a_field": 1})
    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigMismatch):
        load_config(str(missing))


def test_bad_value_types(tmp_path):
    path = tmp_path / "types.ini"
    path.write_text("[pointssim]\nk = twelve\n")
    with pytest.raises(ConfigMismatch):
        load_config(str(path))
    path.write_text("[graphsim]\nsmoothing = maybe\n")
    with pytest.raises(ConfigMismatch):
        load_config(str(path))


def test_nan_float_is_rejected(tmp_path):
    path = tmp_path / "settings.ini"
    path.write_text("[psnr]\nnormal_radius = nan\n")
    with pytest.raises(ConfigMismatch):
        load_config(str(path))


@pytest.mark.parametrize("section, key, field", [
    ("pipeline", "jobs", "pipeline_jobs"),
    ("psnr", "cap_db", "psnr_cap_db"),
    ("graphsim", "smoothing", "graphsim_smoothing")])
@pytest.mark.parametrize("value", ["none", ""])
def test_none_is_refused_for_required_fields(tmp_path, section, key, field,
                                             value):
    path = tmp_path / "settings.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigMismatch, match=f"^{field}: expected "):
        load_config(str(path))


def test_none_is_accepted_for_optional_fields(tmp_path):
    path = tmp_path / "settings.ini"
    path.write_text("[cloud]\nbit_depth = none\n[pcqm]\nlab_table = None\n"
                    "[pipeline]\ncache_dir =\n")
    config = load_config(str(path))
    assert config.cloud_bit_depth is None
    assert config.pcqm_lab_table is None
    assert config.pipeline_cache_dir is None


def _refused_choice(tmp_path, section, key, value, field):
    path = tmp_path / "settings.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigMismatch, match=f"{field}: expected one of "):
        load_config(str(path))
    with pytest.raises(ConfigMismatch, match=f"{field}: expected one of "):
        load_config(overrides={field: value})


def test_yuv_symmetric_choice_is_checked(tmp_path):
    _refused_choice(tmp_path, "psnr", "yuv_symmetric", "max",
                    "psnr_yuv_symmetric")
    assert load_config(overrides={"psnr_yuv_symmetric": "psnr"}) \
        .psnr_yuv_symmetric == "psnr"


def test_ycbcr_matrix_choice_is_checked(tmp_path):
    _refused_choice(tmp_path, "psnr", "ycbcr_matrix", "bt2020",
                    "psnr_ycbcr_matrix")
    assert load_config(overrides={"psnr_ycbcr_matrix": "bt601"}) \
        .psnr_ycbcr_matrix == "bt601"


def test_estimator_choice_is_checked(tmp_path):
    _refused_choice(tmp_path, "pointssim", "estimator", "mystery",
                    "pointssim_estimator")
    assert load_config(overrides={"pointssim_estimator": "qcd"}) \
        .pointssim_estimator == "qcd"


def test_hash_covers_semantic_fields_only():
    base = Config().hash
    assert len(base) == 12 and int(base, 16) >= 0
    # operational knobs do not move the hash
    assert Config(pipeline_jobs=7).hash == base
    assert Config(pipeline_cache_dir="/tmp/x").hash == base
    assert Config(pipeline_seed=5).hash == base
    # every semantic field does
    changed = dataclasses.replace(Config(), pointssim_k=13)
    assert changed.hash != base
    assert Config(psnr_cap_db=90.0).hash != base
    assert Config(pcqm_k4=0.01).hash != base


def test_int_in_a_float_field_hashes_as_the_float():
    # an int would otherwise miss the cache and fail predict's hash check
    config = Config(psnr_cap_db=100, pcqm_k1=0, graphsim_t_mag=1)
    assert config.psnr_cap_db == 100.0 and type(config.psnr_cap_db) is float
    assert type(config.pcqm_k1) is float
    assert Config(psnr_cap_db=100).hash == Config().hash
    assert config.hash == Config(psnr_cap_db=100.0, pcqm_k1=0.0,
                                 graphsim_t_mag=1.0).hash
    assert dataclasses.replace(Config(), psnr_cap_db=100).hash \
        == Config().hash
    for kind in (np.float64, np.float32):
        numpy_float = Config(psnr_cap_db=kind(100.0))
        assert type(numpy_float.psnr_cap_db) is float
        assert numpy_float.hash == Config().hash


_INTEGER_FIELDS = ["cloud_bit_depth", "pointssim_k", "graphsim_k",
                   "graphsim_n_scales", "pipeline_jobs", "pipeline_seed"]


@pytest.mark.parametrize("field", _INTEGER_FIELDS)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integer_in_an_int_field_is_stored_as_the_int(field, kind):
    # a numpy integer would otherwise hash apart from the equal int
    config = Config(**{field: kind(5)})
    assert type(getattr(config, field)) is int
    assert getattr(config, field) == 5
    assert config.hash == Config(**{field: 5}).hash
    assert type(getattr(dataclasses.replace(Config(), **{field: kind(5)}),
                        field)) is int


@pytest.mark.parametrize("field", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [np.bool_(True), True, np.float64(5.5),
                                   np.float64(5.0)],
                         ids=["np-bool", "bool", "np-fraction", "np-float"])
def test_int_fields_refuse_bools_and_floats(field, value):
    with pytest.raises(ConfigMismatch, match=f"^{field}: expected "):
        Config(**{field: value})


def test_default_hash_is_pinned():
    # cache keys and the predict-time hash check depend on this value
    assert Config().hash == "b97df0cab774"


# field, a refused value at or next to the boundary, a legal boundary value
_RANGES = [
    ("pipeline_jobs", -1, 0),
    ("pipeline_jobs", 2.5, 2),
    ("pipeline_jobs", True, 1),
    ("pipeline_seed", -1, 0),
    ("pipeline_seed", 1.5, 1),
    ("graphsim_n_scales", 2, 3),
    ("graphsim_n_scales", 3.0, 3),
    ("graphsim_smoothing", "no", False),
    ("graphsim_smoothing", 0, True),
    ("graphsim_smoothing", None, False),
    ("graphsim_keypoint_fraction", 0.0, 1.0),
    ("graphsim_keypoint_fraction", 1.0000001, 1e-9),
    ("pointssim_k", 0, 1),
    ("pointssim_k", 12.0, 12),
    ("pointssim_k", True, 1),
    ("graphsim_k", 0, 1),
    ("graphsim_k", 10.5, 10),
    ("graphsim_k", -3, 2),
    ("psnr_normal_radius", -1e-9, 0.0),
    ("pcqm_radius_factor", 0.0, 1e-9),
    ("pcqm_radius_factor", "x", 0.02),
    ("pcqm_radius_factor", None, 0.02),
    ("pcqm_lab_table", 3, None),
    ("pipeline_cache_dir", 3, None),
    ("graphsim_radius_factor", 0.0, 1e-9),
    ("graphsim_t_mag", 0.0, 1e-9),
    ("graphsim_t_mean", 0.0, 1e-9),
    ("graphsim_t_cov", 0.0, 1e-9),
    ("pointssim_pooling_exponent", 0.0, 1e-9),
    ("psnr_cap_db", -1e-9, 0.0),
    ("psnr_cap_db", True, 100),
    ("psnr_normal_radius", False, 0),
    ("graphsim_keypoint_fraction", True, 1),
    ("pcqm_k4", True, 0),
    ("cloud_bit_depth", 0, 1),
    ("cloud_bit_depth", 33, 32),
    ("cloud_bit_depth", 8.5, 8),
    ("cloud_bit_depth", True, 1),
    # an infinite radius holds every pair of points
    ("psnr_normal_radius", float("inf"), 1e300),
    ("pcqm_radius_factor", float("inf"), 1e300),
    ("graphsim_radius_factor", float("inf"), 1e300),
    # an integer past the largest float
    ("psnr_cap_db", 10**400, 1e308),
    ("pcqm_k1", -10**400, 1e-8),
    # an integer past int64, here one too long for Python to print (so
    # its test id is given)
    pytest.param("cloud_bit_depth", 10**5000, 32,
                 id="cloud_bit_depth-10**5000-32"),
    pytest.param("graphsim_k", 10**5000, 2 ** 63 - 1,
                 id="graphsim_k-10**5000-2**63-1")] + [
    (f"pcqm_k{i}", -1e-9, 0.0) for i in range(1, 9)]


@pytest.mark.parametrize("field, refused, legal", _RANGES)
def test_ranges_are_checked_when_a_config_is_made(field, refused, legal):
    for value in (refused, float("nan")):
        with pytest.raises(ConfigMismatch, match=f"^{field}: expected "):
            Config(**{field: value})
        with pytest.raises(ConfigMismatch, match=f"^{field}: expected "):
            dataclasses.replace(Config(), **{field: value})
    assert getattr(Config(**{field: legal}), field) == legal


@pytest.mark.parametrize("field", ["psnr_ycbcr_matrix", "psnr_yuv_symmetric",
                                   "pointssim_estimator"])
def test_choices_are_checked_when_a_config_is_made(field):
    with pytest.raises(ConfigMismatch, match=f"^{field}: expected one of "):
        Config(**{field: "bogus"})
    with pytest.raises(ConfigMismatch, match=f"^{field}: expected one of "):
        dataclasses.replace(Config(), **{field: "bogus"})


def test_config_is_immutable():
    config = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.pointssim_k = 0
    assert config.pointssim_k == 12


def test_overrides_ignore_none():
    config = load_config(overrides={"cloud_bit_depth": None})
    assert config.cloud_bit_depth is None
    config = load_config(overrides={"cloud_bit_depth": 10})
    assert config.cloud_bit_depth == 10
