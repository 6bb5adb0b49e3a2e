"""Command-line entry point for reproducible experiment runs.

One binary with subcommands (permanent, sample, scattershot, ghz, hom,
jsa, validate, rates).  Values may come from a JSON config file via
``--config``; explicit flags win over config entries.  Every output file
starts with '#' header lines recording the package version, the seed and
the resolved parameters, and reruns with the same config and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

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
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    read_sample_log,
    sample_outputs,
    scattershot_run,
    write_sample_log,
)
from .sources import (
    SourceParams,
    gaussian_jsa,
    hom_dip,
    load_source_params,
    predicted_visibility,
    schmidt_purity,
    tune_correlation_angle,
)
from .validation import scattershot_aggregate_validation

__all__ = ["ExperimentConfig", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4
EXIT_RESOURCE = 5

COMMANDS = ("permanent", "sample", "scattershot", "ghz", "hom", "jsa", "validate", "rates")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration: command, seed, and parameters."""

    command: str
    seed: int
    threads: int
    out: str | None
    params: dict

    def __post_init__(self):
        if self.command not in COMMANDS:
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
    lines = [
        f"multiphoton {__version__}",
        f"command: {config.command}",
        f"seed: {config.seed}",
    ]
    items = dict(config.params)
    if extra:
        items.update(extra)
    for key in sorted(items):
        lines.append(f"{key}: {_fmt(items[key])}")
    return lines


def _emit_report(config: ExperimentConfig, fields: dict, path=None,
                 extra_header: dict | None = None) -> None:
    """Write a structured key-value report, to a file or stdout."""
    out = []
    for line in _header_lines(config, extra_header):
        out.append(f"# {line}")
    for key, value in fields.items():
        out.append(f"{key}: {_fmt(value)}")
    text = "\n".join(out) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, config: ExperimentConfig, columns: str, rows,
               extra_header: dict | None = None) -> None:
    """Write a CSV whose cells are scalars, so str() gives each the text _fmt would."""
    header = "".join(f"# {line}\n" for line in _header_lines(config, extra_header))
    body = "".join([",".join(map(str, row)) + "\n" for row in rows])
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
    records = [
        SampleRecord(trigger=pattern, input=pattern, output=out, pulse_index=i)
        for i, out in enumerate(outputs)
    ]
    if config.out:
        write_sample_log(config.out, records, _header_lines(config))
    else:
        for rec in records:
            sys.stdout.write(
                f"{rec.pulse_index},{''.join(map(str, rec.output))}\n"
            )
    return EXIT_OK


def _cmd_scattershot(config: ExperimentConfig) -> int:
    u = _load_unitary(config)
    params = _resolve_sources(config, u.shape[0])
    n_select = int(config.params["n"])
    pulses = int(config.params["pulses"])
    result = scattershot_run(u, params, pulses, n_select, config.seed)
    report = result.report
    fields = {
        "n": report.n,
        "retained_events": report.retained_events,
        "pulses": report.pulses,
        "rate_hz": report.rate_hz,
        "predicted_rate_hz": report.predicted_rate_hz,
    }
    if config.out:
        write_sample_log(config.out, result.records, _header_lines(config))
    _emit_report(config, fields, path=config.params.get("report"))
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
        rows = []
        for outcome in sorted(hv.counts):
            rows.append(("hv", outcome, hv.counts[outcome]))
        for k, setting in enumerate(thetas):
            for outcome in sorted(setting.counts):
                rows.append((f"theta{k}", outcome, setting.counts[outcome]))
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
        visibility = predicted_visibility(jsa)
    sigma = float(config.params.get("sigma", 1.0))
    tau_max = float(config.params.get("tau_max", 4.0 / sigma))
    steps = int(config.params.get("steps", 201))
    taus = np.linspace(-tau_max, tau_max, steps)
    rows = [(float(t), hom_dip(float(visibility), sigma, float(t))) for t in taus]
    header = {"visibility": float(visibility), "sigma": sigma}
    if config.out:
        _write_csv(config.out, config, "tau,coincidence", rows, extra_header=header)
    else:
        for tau, c in rows:
            sys.stdout.write(f"{tau!r},{c!r}\n")
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
    records = read_sample_log(config.params["samples"])
    u = load_matrix(config.params["unitary"])
    hypothesis = config.params.get("hypothesis", "distinguishable")
    if hypothesis != "distinguishable":
        raise ContractError(
            f"only the distinguishable alternative hypothesis is supported, got {hypothesis!r}"
        )
    threshold = float(config.params.get("threshold", 5.0))
    collisions = config.params.get("collisions", True)
    report = scattershot_aggregate_validation(records, u, collisions, threshold)
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
                   enumerate(report.pooled.lr_trajectory.tolist(), 1))
    return EXIT_OK


def _cmd_rates(config: ExperimentConfig) -> int:
    k = int(config.params["k"])
    n = int(config.params["n"])
    scattershot = bool(config.params.get("scattershot", True))
    epsilon = float(config.params.get("epsilon", 0.01))
    eta = float(config.params.get("eta", 0.5))
    rep = float(config.params.get("rep_rate", 80e6))
    fields = {
        "mode": "scattershot" if scattershot else "standard",
        "k": k,
        "n": n,
        "combinations": math.comb(k, n) if scattershot else 1,
        "no_collision_patterns": count_patterns(k, n, collisions=False),
        "epsilon": epsilon,
        "eta": eta,
        "rep_rate_hz": rep,
        "predicted_rate_hz": expected_rate(k, n, epsilon, eta, rep, scattershot),
    }
    _emit_report(config, fields, path=config.out)
    return EXIT_OK


_HANDLERS = {
    "permanent": _cmd_permanent,
    "sample": _cmd_sample,
    "scattershot": _cmd_scattershot,
    "ghz": _cmd_ghz,
    "hom": _cmd_hom,
    "jsa": _cmd_jsa,
    "validate": _cmd_validate,
    "rates": _cmd_rates,
}


def run(config: ExperimentConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    return _HANDLERS[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiphoton",
        description="Simulation and validation toolkit for multiphoton interference experiments.",
    )
    parser.add_argument("--version", action="version", version=f"multiphoton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="root RNG seed (default 0)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker thread cap (default: CPUs this process may use)")
        p.add_argument("--out", default=None, help="primary output file")
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override its entries")

    p = sub.add_parser("permanent", help="permanent of a matrix file")
    p.add_argument("matrix", help="matrix file (rows/cols/entries format)")
    common(p)

    p = sub.add_parser("sample", help="sample outputs of a fixed-input interferometer")
    p.add_argument("--unitary", default=None, help="interferometer matrix file")
    p.add_argument("--modes", type=int, default=None,
                   help="draw a seeded Haar-random interferometer of this size instead")
    p.add_argument("--input", default=None, help="input occupation string, e.g. 110000")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--distinguishable", action="store_true", default=None,
                   help="sample the distinguishable-photon model instead")
    p.add_argument("--collisions", action=argparse.BooleanOptionalAction, default=None,
                   help="allow multi-photon outputs (default: yes)")
    common(p)

    p = sub.add_parser("scattershot", help="full scattershot acquisition run")
    p.add_argument("--unitary", default=None)
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--sources", default=None, help="per-source JSON config file")
    p.add_argument("--epsilon", type=float, default=None,
                   help="pair probability per pulse (identical sources)")
    p.add_argument("--eta", type=float, default=None,
                   help="lumped two-arm efficiency (identical sources)")
    p.add_argument("--rep-rate", dest="rep_rate", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="photons to post-select")
    p.add_argument("--pulses", type=int, default=None)
    p.add_argument("--report", default=None, help="rate report file (default: stdout)")
    common(p)

    p = sub.add_parser("ghz", help="GHZ measurement simulation and estimation")
    p.add_argument("--photons", type=int, default=None)
    p.add_argument("--population", type=float, default=None)
    p.add_argument("--coherence", type=float, default=None)
    p.add_argument("--shots", type=int, default=None, help="shots per basis setting")
    p.add_argument("--report", default=None, help="summary report file (default: stdout)")
    common(p)

    p = sub.add_parser("hom", help="two-photon interference dip curve")
    p.add_argument("--visibility", type=float, default=None)
    p.add_argument("--sigma-pump", dest="sigma_pump", type=float, default=None)
    p.add_argument("--sigma-pm", dest="sigma_pm", type=float, default=None)
    p.add_argument("--angle", type=float, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None, help="dip width parameter")
    p.add_argument("--tau-max", dest="tau_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    common(p)

    p = sub.add_parser("jsa", help="joint spectral amplitude grid and purity")
    p.add_argument("--sigma-pump", dest="sigma_pump", type=float, default=None)
    p.add_argument("--sigma-pm", dest="sigma_pm", type=float, default=None)
    p.add_argument("--angle", type=float, default=None)
    p.add_argument("--target-purity", dest="target_purity", type=float, default=None,
                   help="tune the correlation angle to this purity instead of --angle")
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--report", default=None)
    common(p)

    p = sub.add_parser("validate", help="validate a sample log against theory")
    p.add_argument("--samples", default=None, help="sample log CSV")
    p.add_argument("--unitary", default=None, help="interferometer matrix file")
    p.add_argument("--hypothesis", default=None, choices=["distinguishable"],
                   help="alternative hypothesis to test against")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--collisions", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--trajectory", default=None, help="write the LR trajectory CSV here")
    common(p)

    p = sub.add_parser("rates", help="predicted event rates and combinatorics")
    p.add_argument("--k", type=int, default=None, help="number of sources")
    p.add_argument("--n", type=int, default=None, help="photons to post-select")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--rep-rate", dest="rep_rate", type=float, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--scattershot", dest="scattershot", action="store_true", default=None)
    mode.add_argument("--standard", dest="scattershot", action="store_false", default=None)
    common(p)

    return parser


_REQUIRED = {
    "permanent": ("matrix",),
    "sample": ("input", "shots"),
    "scattershot": ("n", "pulses"),
    "ghz": ("photons", "population", "coherence", "shots"),
    "hom": (),
    "jsa": ("sigma_pump", "sigma_pm"),
    "validate": ("samples", "unitary"),
    "rates": ("k", "n"),
}


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    return doc


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge parsed flags with the optional config file; flags win."""
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(values)
        if unknown:
            raise DataError(f"config file has unknown keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if values.get(key) is None:
                values[key] = value
    seed = values.pop("seed", None)
    threads = values.pop("threads", None)
    if threads is None:  # the CPUs this process may run on, as its affinity mask allows
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    out = values.pop("out", None)
    params = {k: v for k, v in values.items() if v is not None}
    missing = [name for name in _REQUIRED[args.command] if name not in params]
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return run(config)
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except ContractError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONTRACT
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
