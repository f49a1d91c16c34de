"""Smoke test: scripts/refresh_fixtures.py still reproduces its fixture."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(ROOT, "scripts", "refresh_fixtures.py")
    spec = importlib.util.spec_from_file_location("refresh_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_denoising_fixture_reproduces_first_trials(monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "TRIALS", 2)
    with open(
        os.path.join(ROOT, "tests", "fixtures", "denoising_regression.json"),
        encoding="utf-8",
    ) as fh:
        frozen = json.load(fh)["per_trial_improvement_ratio"][:2]
    got = script.denoising_fixture()["per_trial_improvement_ratio"]
    assert got == pytest.approx(frozen, rel=1e-12, abs=0.0)
