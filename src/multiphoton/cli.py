"""Command-line entry point for reproducible experiment runs.

One binary with subcommands (permanent, sample, scattershot, ghz, hom,
jsa, validate, rates).  ``_FLAGS`` declares each flag once and
``_COMMANDS`` each subcommand once; the parser (built once per process),
the config-file checks and the dispatch all read them, and ``_EXIT_CODES``
maps errors to exit codes.  Values may come from a JSON config file via
``--config``; explicit flags win over config entries.  Every output file
starts with '#' header lines recording the package version, the seed and
the resolved parameters, and reruns with the same config and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ContractError, DataError, ResourceLimitError
from .ghz import (
    GhzModel,
    coherence_settings,
    estimate_coherence,
    estimate_population,
    fidelity_and_witness,
    simulate_ghz_experiment,
)
from .linalg import (
    as_occupation,
    count_patterns,
    haar_random_unitary,
    load_matrix,
    occupation_from_string,
    save_matrix,
)
from .permanent import permanent_parallel
from .sampling import (
    SampleRecord,
    _read_events,
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    sample_outputs,
    scattershot_run,
    write_sample_log,
)
from .sources import (
    SourceParams,
    gaussian_jsa,
    hom_dip,
    load_source_params,
    schmidt_purity,
    tune_correlation_angle,
)
from .validation import _validate_events

__all__ = ["ExperimentConfig", "resolve_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4
EXIT_RESOURCE = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration: command, seed, and parameters."""

    command: str
    seed: int
    threads: int
    out: str | None
    params: dict

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ContractError(f"unknown command {self.command!r}")
        if self.seed < 0:
            raise ContractError("seed must be non-negative")
        if self.threads < 1:
            raise ContractError("threads must be at least 1")


def _fmt(value) -> str:
    """Report text of a value: str() of a scalar, which for a float is its
    shortest round-trip repr, and sequences in brackets."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_fmt, value)) + "]"
    return str(value)


def _header_lines(config: ExperimentConfig, extra: dict | None = None) -> list:
    items = {**config.params, **(extra or {})}
    return [f"multiphoton {__version__}", f"command: {config.command}",
            f"seed: {config.seed}", *(f"{key}: {_fmt(items[key])}" for key in sorted(items))]


def _emit_report(config: ExperimentConfig, fields: dict, path=None,
                 extra_header: dict | None = None) -> None:
    """Write a structured key-value report, to a file or stdout."""
    text = "".join([f"# {line}\n" for line in _header_lines(config, extra_header)]
                   + [f"{key}: {_fmt(value)}\n" for key, value in fields.items()])
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, config: ExperimentConfig, columns: str, rows,
               extra_header: dict | None = None) -> None:
    """Write a CSV whose cells are scalars, so %s (str()) gives each the text
    _fmt would; the body is formatted in one pass."""
    header = "".join(f"# {line}\n" for line in _header_lines(config, extra_header))
    cells = tuple(itertools.chain.from_iterable(rows))
    width = columns.count(",") + 1
    body = ("%s," * (width - 1) + "%s\n") * (len(cells) // width) % cells
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}{columns}\n{body}")


def _load_unitary(config: ExperimentConfig) -> np.ndarray:
    """Resolve the interferometer: an explicit matrix file or a seeded Haar draw."""
    path = config.params.get("unitary")
    modes = config.params.get("modes")
    if path is not None:
        return load_matrix(path)
    if modes is not None:
        return haar_random_unitary(int(modes), config.seed)
    raise ContractError("provide either --unitary FILE or --modes M")


def _resolve_sources(config: ExperimentConfig, count: int) -> list:
    path = config.params.get("sources")
    if path is not None:
        params = load_source_params(path)
        if len(params) != count:
            raise ContractError(
                f"source config lists {len(params)} sources, need {count}"
            )
        return params
    epsilon = config.params.get("epsilon")
    eta = config.params.get("eta")
    if epsilon is None or eta is None:
        raise ContractError("provide either --sources FILE or both --epsilon and --eta")
    rep = config.params.get("rep_rate", 80e6)
    one = SourceParams.from_lumped_efficiency(float(epsilon), float(eta), float(rep))
    return [one] * count


def _cmd_permanent(config: ExperimentConfig) -> int:
    matrix = load_matrix(config.params["matrix"])
    start = time.perf_counter()
    value = permanent_parallel(matrix, config.threads)
    elapsed = time.perf_counter() - start
    sys.stdout.write(f"permanent: {value!r}\n")
    sys.stdout.write(f"wall_time_s: {elapsed:.6f}\n")
    if config.out:
        _emit_report(
            config,
            {"permanent_re": value.real, "permanent_im": value.imag},
            path=config.out,
        )
    return EXIT_OK


def _cmd_sample(config: ExperimentConfig) -> int:
    u = _load_unitary(config)
    pattern = as_occupation(occupation_from_string(config.params["input"]), u.shape[0])
    shots = int(config.params["shots"])
    collisions = config.params.get("collisions", True)
    if config.params.get("distinguishable", False):
        dist = distinguishable_distribution(u, pattern, collisions)
    else:
        dist = exact_distribution(u, pattern, collisions)
    outputs = sample_outputs(dist, shots, config.seed)
    if config.out:
        records = [SampleRecord(pattern, pattern, out, i) for i, out in enumerate(outputs)]
        write_sample_log(config.out, records, _header_lines(config))
    else:
        sys.stdout.write("".join(f"{i},{''.join(map(str, out))}\n"
                                 for i, out in enumerate(outputs)))
    return EXIT_OK


def _cmd_scattershot(config: ExperimentConfig) -> int:
    u = _load_unitary(config)
    params = _resolve_sources(config, u.shape[0])
    n_select = int(config.params["n"])
    pulses = int(config.params["pulses"])
    result = scattershot_run(u, params, pulses, n_select, config.seed)
    if config.out:
        write_sample_log(config.out, result.records, _header_lines(config))
    _emit_report(config, asdict(result.report), path=config.params.get("report"))
    return EXIT_OK


def _cmd_ghz(config: ExperimentConfig) -> int:
    model = GhzModel(
        n_photons=int(config.params["photons"]),
        population=float(config.params["population"]),
        coherence=float(config.params["coherence"]),
    )
    shots = int(config.params["shots"])
    hv, thetas = simulate_ghz_experiment(model, shots, config.seed)
    p_hat, p_sigma = estimate_population(hv)
    c_hat, c_sigma = estimate_coherence(thetas)
    witness = fidelity_and_witness(p_hat, p_sigma, c_hat, c_sigma)
    angles = {
        f"theta{k}": float(t) for k, t in enumerate(coherence_settings(model.n_photons))
    }
    if config.out:
        bases = [("hv", hv.counts), *((f"theta{k}", s.counts) for k, s in enumerate(thetas))]
        rows = [(name, outcome, counts[outcome])
                for name, counts in bases for outcome in sorted(counts)]
        _write_csv(config.out, config, "basis,outcome,count", rows, extra_header=angles)
    _emit_report(
        config,
        {
            "population": p_hat,
            "population_sigma": p_sigma,
            "coherence": c_hat,
            "coherence_sigma": c_sigma,
            "fidelity": witness.fidelity,
            "fidelity_sigma": witness.sigma,
            "genuine": witness.genuine,
            "significance": witness.significance,
        },
        path=config.params.get("report"),
        extra_header=angles,
    )
    return EXIT_OK


def _cmd_hom(config: ExperimentConfig) -> int:
    visibility = config.params.get("visibility")
    if visibility is None:
        needed = [k for k in ("sigma_pump", "sigma_pm", "angle") if k not in config.params]
        if needed:
            flags = ", ".join("--" + k.replace("_", "-") for k in needed)
            raise ContractError(f"provide --visibility or the spectrum parameters ({flags})")
        jsa = gaussian_jsa(
            float(config.params["sigma_pump"]),
            float(config.params["sigma_pm"]),
            float(config.params["angle"]),
            int(config.params.get("grid_size", 256)),
            config.params.get("span"),
        )
        visibility = schmidt_purity(jsa)
    sigma = float(config.params.get("sigma", 1.0))
    if sigma == 0:  # the default delay range divides by it; hom_dip checks every other value
        raise ContractError("sigma must be finite and positive, got 0.0")
    tau_max = float(config.params.get("tau_max", 4.0 / sigma))
    if not math.isfinite(2.0 * tau_max):  # linspace spans [-tau_max, tau_max]
        raise ContractError(f"tau_max must be finite with a finite delay range, got {tau_max}")
    steps = int(config.params.get("steps", 201))
    if steps < 1:
        raise ContractError(f"steps must be at least 1, got {steps}")
    taus = np.linspace(-tau_max, tau_max, steps)
    rows = [(float(t), hom_dip(float(visibility), sigma, float(t))) for t in taus]
    header = {"visibility": float(visibility), "sigma": sigma}
    if config.out:
        _write_csv(config.out, config, "tau,coincidence", rows, extra_header=header)
    else:
        sys.stdout.write("".join(f"{tau!r},{c!r}\n" for tau, c in rows))
    return EXIT_OK


def _cmd_jsa(config: ExperimentConfig) -> int:
    sigma_pump = float(config.params["sigma_pump"])
    sigma_pm = float(config.params["sigma_pm"])
    grid_size = int(config.params.get("grid_size", 256))
    span = config.params.get("span")
    target = config.params.get("target_purity")
    if target is not None:
        angle = tune_correlation_angle(sigma_pump, sigma_pm, float(target), grid_size, span)
    elif "angle" in config.params:
        angle = float(config.params["angle"])
    else:
        raise ContractError("provide either --angle or --target-purity")
    jsa = gaussian_jsa(sigma_pump, sigma_pm, angle, grid_size, span)
    purity = schmidt_purity(jsa)
    fields = {
        "angle": angle,
        "purity": purity,
        "grid_size": jsa.grid_size,
        "nu_step": jsa.nu_step,
        "span": jsa.span,
        "truncation_warning": jsa.truncation_warning,
    }
    if config.out:
        save_matrix(config.out, jsa.amplitudes, meta={"header": _header_lines(config, fields)})
    _emit_report(config, fields, path=config.params.get("report"))
    return EXIT_OK


def _cmd_validate(config: ExperimentConfig) -> int:
    events = _read_events(config.params["samples"])
    u = load_matrix(config.params["unitary"])
    threshold = float(config.params.get("threshold", 5.0))
    collisions = config.params.get("collisions", True)
    report = _validate_events(events, u, collisions, threshold)
    fields = {
        "groups": report.group_count,
        "mean_similarity": report.mean_similarity,
        "similarity_std": report.similarity_std,
        "mean_distance": report.mean_distance,
        "distance_std": report.distance_std,
        "pooled_similarity": report.pooled.similarity,
        "pooled_distance": report.pooled.distance,
        "verdict": report.pooled.verdict,
        "samples_used": report.pooled.samples_used,
    }
    _emit_report(config, fields, path=config.out)
    trajectory_path = config.params.get("trajectory")
    if trajectory_path:
        _write_csv(trajectory_path, config, "sample,log_likelihood_ratio",
                   zip(range(1, report.pooled.samples_used + 1),
                       report.pooled.lr_trajectory.tolist()))
    return EXIT_OK


def _cmd_rates(config: ExperimentConfig) -> int:
    k = int(config.params["k"])
    n = int(config.params["n"])
    scattershot = bool(config.params.get("scattershot", True))
    epsilon = float(config.params.get("epsilon", 0.01))
    eta = float(config.params.get("eta", 0.5))
    rep = float(config.params.get("rep_rate", 80e6))
    rate = expected_rate(k, n, epsilon, eta, rep, scattershot)  # checks k and n first
    try:
        patterns = str(count_patterns(k, n, collisions=False))  # C(k, n), as n <= k
    except ValueError as exc:  # more digits than str() converts
        raise ContractError(f"C({k}, {n}) has too many digits to report") from exc
    fields = {
        "mode": "scattershot" if scattershot else "standard",
        "k": k,
        "n": n,
        "combinations": patterns if scattershot else 1,
        "no_collision_patterns": patterns,
        "epsilon": epsilon,
        "eta": eta,
        "rep_rate_hz": rep,
        "predicted_rate_hz": rate,
    }
    _emit_report(config, fields, path=config.out)
    return EXIT_OK


# Every flag once: the type of its value (bool for an on/off flag) and its help.
_FLAGS = {
    "seed": (int, "root RNG seed (default 0)"),
    "out": (str, "primary output file"),
    "config": (str, "JSON config file; explicit flags override its entries"),
    "matrix": (str, "matrix file (rows/cols/entries format)"),
    "threads": (int, "worker thread cap (default: CPUs this process may use)"),
    "unitary": (str, "interferometer matrix file"),
    "modes": (int, "draw a seeded Haar-random interferometer of this size instead"),
    "input": (str, "input occupation string, e.g. 110000"),
    "shots": (int, "shots to draw (ghz: per basis setting)"),
    "distinguishable": (bool, "sample the distinguishable-photon model instead"),
    "collisions": (bool, "allow multi-photon outputs (default: yes)"),
    "sources": (str, "per-source JSON config file"),
    "epsilon": (float, "pair probability per pulse (identical sources)"),
    "eta": (float, "lumped two-arm efficiency (identical sources)"),
    "rep_rate": (float, "pulse repetition rate in Hz (default 8e7)"),
    "n": (int, "photons to post-select"),
    "pulses": (int, "number of pump pulses"),
    "report": (str, "report file (default: stdout)"),
    "photons": (int, "number of photons in the GHZ state"),
    "population": (float, "population term P of the GHZ model"),
    "coherence": (float, "coherence term C of the GHZ model"),
    "visibility": (float, "dip visibility (default: the purity of the spectrum flags)"),
    "sigma_pump": (float, "pump envelope width"),
    "sigma_pm": (float, "phase-matching envelope width"),
    "angle": (float, "correlation angle of the phase-matching envelope, in radians"),
    "target_purity": (float, "tune the correlation angle to this purity instead of --angle"),
    "grid_size": (int, "points per axis of the detuning grid (default 256)"),
    "span": (float, "half-width of the detuning grid (default: 4x the wider envelope)"),
    "sigma": (float, "dip width parameter"),
    "tau_max": (float, "largest delay of the curve (default 4/sigma)"),
    "steps": (int, "number of delays on the curve (default 201)"),
    "samples": (str, "sample log CSV"),
    "threshold": (float, "log likelihood ratio that decides the verdict (default 5.0)"),
    "trajectory": (str, "write the LR trajectory CSV here"),
    "k": (int, "number of sources"),
    "scattershot": (bool, "rate mode: scattershot, any n of the k sources (default), "
                          "or standard, n dedicated sources"),
}
_COMMON = ("seed", "out", "config")


class _Command(NamedTuple):
    """One subcommand: handler, help, flags besides ``_COMMON``, required flags."""

    handler: Callable[[ExperimentConfig], int]
    help: str
    flags: tuple
    required: tuple = ()


_COMMANDS = {
    "permanent": _Command(_cmd_permanent, "permanent of a matrix file",
                          ("matrix", "threads"), ("matrix",)),
    "sample": _Command(_cmd_sample, "sample outputs of a fixed-input interferometer",
                       ("unitary", "modes", "input", "shots", "distinguishable", "collisions"),
                       ("input", "shots")),
    "scattershot": _Command(_cmd_scattershot, "full scattershot acquisition run",
                            ("unitary", "modes", "sources", "epsilon", "eta", "rep_rate", "n",
                             "pulses", "report"), ("n", "pulses")),
    "ghz": _Command(_cmd_ghz, "GHZ measurement simulation and estimation",
                    ("photons", "population", "coherence", "shots", "report"),
                    ("photons", "population", "coherence", "shots")),
    "hom": _Command(_cmd_hom, "two-photon interference dip curve",
                    ("visibility", "sigma_pump", "sigma_pm", "angle", "grid_size", "span",
                     "sigma", "tau_max", "steps")),
    "jsa": _Command(_cmd_jsa, "joint spectral amplitude grid and purity",
                    ("sigma_pump", "sigma_pm", "angle", "target_purity", "grid_size", "span",
                     "report"), ("sigma_pump", "sigma_pm")),
    "validate": _Command(_cmd_validate, "validate a sample log against theory",
                         ("samples", "unitary", "threshold", "collisions", "trajectory"),
                         ("samples", "unitary")),
    "rates": _Command(_cmd_rates, "predicted event rates and combinatorics",
                      ("k", "n", "epsilon", "eta", "rep_rate", "scattershot"), ("k", "n")),
}


def run(config: ExperimentConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    return _COMMANDS[config.command].handler(config)


def _add_flag(parser: argparse.ArgumentParser, name: str) -> None:
    """Add one flag of ``_FLAGS``, unset (None) unless given.  ``matrix`` is
    positional; ``scattershot`` is set by the exclusive pair --scattershot
    and --standard; an on/off flag has a --no- form, but --distinguishable."""
    kind, help_text = _FLAGS[name]
    option = "--" + name.replace("_", "-")
    if name == "matrix":
        parser.add_argument(name, help=help_text)
    elif name == "scattershot":
        pair = parser.add_mutually_exclusive_group()
        pair.add_argument(option, dest=name, action="store_true", default=None, help=help_text)
        pair.add_argument("--standard", dest=name, action="store_false", default=None,
                          help=help_text)
    elif kind is bool:
        action = "store_true" if name == "distinguishable" else argparse.BooleanOptionalAction
        parser.add_argument(option, dest=name, action=action, default=None, help=help_text)
    else:
        parser.add_argument(option, dest=name, type=kind, default=None, help=help_text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="multiphoton",
        description="Simulation and validation toolkit for multiphoton interference experiments.",
    )
    parser.add_argument("--version", action="version", version=f"multiphoton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.flags + _COMMON:
            _add_flag(p, name)
    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise DataError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    return doc


# The JSON type a config value needs, by its flag's type; a boolean is never a number.
_JSON_TYPES = {bool: ("boolean", bool), int: ("integer", int),
               float: ("number", (int, float)), str: ("string", str)}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge parsed flags with the optional config file; flags win."""
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(values)
        if unknown:
            raise DataError(f"config file has unknown keys: {sorted(unknown)}")
        for key, value in file_values.items():
            name, allowed = _JSON_TYPES[_FLAGS[key][0]]
            if isinstance(value, bool) != (name == "boolean") or not isinstance(value, allowed):
                raise DataError(f"config key {key!r} must be a JSON {name}, got {value!r}")
            if name == "number":
                try:
                    float(value)
                except OverflowError as exc:  # an integer too large for a float
                    raise DataError(f"config key {key!r} is too large for a float") from exc
            if values.get(key) is None:
                values[key] = value
    seed = values.pop("seed", None)
    threads = values.pop("threads", None)
    if threads is None:  # the CPUs this process may run on, as its affinity mask allows
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    out = values.pop("out", None)
    params = {k: v for k, v in values.items() if v is not None}
    missing = [name for name in _COMMANDS[args.command].required if name not in params]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ContractError(f"missing required parameters: {flags}")
    return ExperimentConfig(
        command=args.command,
        seed=0 if seed is None else int(seed),
        threads=int(threads),
        out=out,
        params=params,
    )


# The exit code of each error class; an error takes the code of the first
# class in its method resolution order that is listed here.
_EXIT_CODES = {ResourceLimitError: EXIT_RESOURCE, MemoryError: EXIT_RESOURCE,
               DataError: EXIT_DATA, OSError: EXIT_DATA, ContractError: EXIT_CONTRACT}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(resolve_config(args))
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
