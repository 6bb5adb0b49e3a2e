import dataclasses
import importlib
import inspect

import pytest

from multiphoton.sources import SourceParams

# Names deleted because nothing read them or they only repeated another name.
DELETED = {
    "multiphoton": ("predicted_visibility",),
    "multiphoton.cli": ("COMMANDS",),
    "multiphoton.linalg": ("photon_count", "is_no_collision"),
    "multiphoton.sources": ("predicted_visibility", "NORMALIZATION_TOL"),
}

MODULES = ("multiphoton", "multiphoton.cli", "multiphoton.ghz", "multiphoton.linalg",
           "multiphoton.permanent", "multiphoton.sampling", "multiphoton.sources",
           "multiphoton.validation")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_names_are_absent(name):
    module = importlib.import_module(name)
    for attr in DELETED[name]:
        assert not hasattr(module, attr), f"{name}.{attr}"
        assert attr not in module.__all__


def test_source_params_has_no_indistinguishability():
    assert [f.name for f in dataclasses.fields(SourceParams)] == [
        "epsilon", "eta_herald", "eta_detect", "rep_rate"]
    assert "indistinguishability" not in inspect.signature(
        SourceParams.from_lumped_efficiency).parameters

