import dataclasses
import importlib
import inspect
from operator import attrgetter

import pytest

import multiphoton
from multiphoton.sources import SourceParams, tune_correlation_angle

# Names deleted because nothing read them or they only repeated another name.
DELETED = {
    "multiphoton": ("predicted_visibility", "svd_singular_values"),
    "multiphoton.cli": ("COMMANDS",),
    "multiphoton.linalg": ("photon_count", "is_no_collision", "svd_singular_values"),
    "multiphoton.sources": ("predicted_visibility", "NORMALIZATION_TOL"),
}

# The library modules in the order the package exports their names.
LIBRARY = ("errors", "rng", "linalg", "permanent", "sources", "ghz", "sampling", "validation")

MODULES = ("multiphoton", "multiphoton.cli",
           *(f"multiphoton.{name}" for name in LIBRARY))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_exports_each_library_module_all():
    expected = ["__version__"]
    for name in LIBRARY:
        expected += importlib.import_module(f"multiphoton.{name}").__all__
    assert multiphoton.__all__ == expected


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_public_function_and_class_is_exported(name):
    module = importlib.import_module(name)
    public = [attr for attr, value in vars(module).items()
              if not attr.startswith("_") and getattr(value, "__module__", None) == name
              and (inspect.isfunction(value) or inspect.isclass(value))]
    assert sorted(set(public) - set(module.__all__)) == []


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


def test_tune_correlation_angle_has_no_tolerance_parameters():
    assert list(inspect.signature(tune_correlation_angle).parameters) == [
        "sigma_pump", "sigma_pm", "target_purity", "grid_size", "span"]


# The package names the benchmark's workloads call, so that deleting one
# fails here before it breaks a benchmark run.
BENCHMARK_CALLS = {
    "multiphoton.cli": ("main",),
    "multiphoton.ghz": ("GhzModel", "simulate_ghz_experiment", "estimate_population",
                        "estimate_coherence", "fidelity_and_witness"),
    "multiphoton.linalg": ("haar_random_unitary", "save_matrix", "transition_submatrix"),
    "multiphoton.permanent": ("permanent_naive", "permanent_ryser", "permanent_parallel"),
    "multiphoton.sampling": ("scattershot_run", "exact_distribution", "write_sample_log",
                             "read_sample_log"),
    "multiphoton.sources": ("SourceParams", "SourceParams.from_lumped_efficiency",
                            "fire_sources", "tune_correlation_angle"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_CALLS))
def test_names_the_benchmark_calls_exist(name):
    module = importlib.import_module(name)
    for attr in BENCHMARK_CALLS[name]:
        assert callable(attrgetter(attr)(module)), f"{name}.{attr}"
