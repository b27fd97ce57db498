"""JSON configuration parsing and standing-assumption validation."""

import json

import numpy as np
import pytest

from memspec import ConfigError, HypothesisError
from memspec.config import MAX_KERNEL_RATE, load_spec, parse_config


def base_doc():
    return {
        "coefficient_a": 1.0,
        "kernel": {"a": [1.0], "b": [1.0]},
        "damping": {"kind": "range", "b_min": 0.5, "b_max": 0.75},
        "domain": {"kind": "box", "lengths": [1.0, 1.0]},
    }


def test_valid_document():
    spec = load_spec(base_doc())
    assert spec.coefficient_a == 1.0
    assert spec.kernel.rates == (1.0,)
    assert spec.damping.bounds().b_min == 0.5
    assert spec.domain.lengths == (1.0, 1.0)


def test_constant_damping():
    doc = base_doc()
    doc["damping"] = {"kind": "constant", "value": 0.5}
    spec = load_spec(doc)
    assert spec.damping.bounds().is_constant


def test_profile_damping():
    doc = base_doc()
    doc["damping"] = {"kind": "profile_1d", "samples": [0.5, 0.6, 0.75]}
    spec = load_spec(doc)
    assert spec.damping.bounds().b_min == 0.5
    assert spec.damping.bounds().b_max == 0.75
    assert spec.damping.samples == (0.5, 0.6, 0.75)


def test_profile_outside_declared_range():
    doc = base_doc()
    doc["damping"] = {"kind": "profile_1d", "samples": [0.5, 0.9],
                      "b_min": 0.5, "b_max": 0.75}
    with pytest.raises(ConfigError):
        load_spec(doc)


def test_interval_fd_domain():
    doc = base_doc()
    doc["domain"] = {"kind": "interval_fd", "grid_points": 20}
    spec = load_spec(doc)
    assert spec.domain.length == 1.0
    assert spec.domain.grid_points == 20


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("coefficient_a"),
    lambda d: d.update(coefficient_a=-1.0),
    lambda d: d.update(kernel={"a": [1.0]}),
    lambda d: d.update(kernel={"a": [1.0], "b": [-1.0]}),
    lambda d: d.update(damping={"kind": "nope"}),
    lambda d: d.update(damping={"kind": "range", "b_min": 0.8, "b_max": 0.5}),
    lambda d: d.update(damping={"kind": "constant", "value": -0.1}),
    lambda d: d.update(domain={"kind": "box", "lengths": []}),
    lambda d: d.update(domain={"kind": "interval_fd", "grid_points": 2}),
    lambda d: d.update(domain={"kind": "sphere"}),
])
def test_malformed_documents(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        load_spec(doc)


def test_margin_violation_is_hypothesis_error():
    doc = base_doc()
    doc["damping"] = {"kind": "constant", "value": 1.5}
    with pytest.raises(HypothesisError):
        load_spec(doc)


def test_parse_config_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(base_doc()))
    spec = parse_config(path)
    assert spec.kernel.amplitudes == (1.0,)


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_kernel_rate_bound():
    # the largest rate is accepted and the next double refused, by name
    doc = base_doc()
    doc["kernel"] = {"a": [1e-3, 1e-3], "b": [1.0, MAX_KERNEL_RATE]}
    assert load_spec(doc).kernel.rates[-1] == MAX_KERNEL_RATE
    doc["kernel"]["b"][-1] = float(np.nextafter(MAX_KERNEL_RATE, np.inf))
    with pytest.raises(ConfigError, match="kernel.b"):
        load_spec(doc)
