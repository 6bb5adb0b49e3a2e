import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiphoton import cli
from multiphoton.cli import (EXIT_CONTRACT, EXIT_DATA, EXIT_RESOURCE, _build_parser,
                             _load_config_file, main, resolve_config)
from multiphoton.errors import ContractError, DataError
from multiphoton.ghz import (GhzModel, coherence_settings, hv_outcome_distribution,
                             theta_outcome_distribution)
from multiphoton.linalg import _log_comb, haar_random_unitary, load_matrix, save_matrix
from multiphoton.rng import derive_rng
from multiphoton.sampling import (SampleRecord, distinguishable_distribution, exact_distribution,
                                  read_sample_log, sample_outputs, scattershot_run,
                                  write_sample_log)
from multiphoton.sources import SourceParams
from multiphoton.validation import scattershot_aggregate_validation
from properties import JSON_VALUES
from test_sampling import per_record_log_reference


def _no_record(*args, **kwargs):
    raise AssertionError("a SampleRecord was built")


def write_ones_matrix(path):
    save_matrix(path, np.ones((3, 3)))
    return str(path)


# sha256 of the report's and the trajectory's non-"#" lines of the seeded
# round trip in TestValidateCommand.test_validate_bytes_are_pinned, per
# collision setting.  Floats differ in their last digits between numpy
# versions, so the digests hold for the one they were made with.
VALIDATE_DIGESTS_NUMPY = "2.4.6"
VALIDATE_DIGESTS = {
    True: "74755efc525219f010516c20e0439f6a9f05a4d63059bc01d04983e21afafcc4",
    False: "11f650318c17f83763695755f1f7f4d6d16f6ae75f521cfa5671a667f072241c",
}
# A command line and the sha256 of the non-"#" lines of its output files
# (CLI_OUTPUTS), for seeded commands run in a directory holding only the
# source file CLI_SOURCES (TestCliDigests), made with numpy
# VALIDATE_DIGESTS_NUMPY.  The dense scattershot runs at m=8 draw their
# outputs from tables; the bright, the faint (three batches) and the lossy
# five-photon runs at m=12 draw them per event, the lossy one thinned by
# detectors of unequal efficiencies below 1.  The jsa run's angle
# comes from tune_correlation_angle, so its digest pins the tuned angle to
# the bit; its grid file is JSON, header included.
CLI_DIGESTS = {
    "scattershot-dense-3": (
        "scattershot --modes 8 --epsilon 0.25 --eta 1.0 --n 3 --pulses 60000 --seed 5",
        "0e85ff30b1ec6d27c1498f1e50f54ffb8e2525affc97498ed2828666f4534f5e"),
    "scattershot-bright-4": (
        "scattershot --modes 12 --epsilon 0.3 --eta 0.81 --n 4 --pulses 20000 --seed 7",
        "8df059644267850b1e972b380bad821748c7e55089d0c41591d25666d981fec2"),
    "scattershot-faint-3": (
        "scattershot --modes 12 --epsilon 0.01 --eta 0.5 --n 3 --pulses 2100000 --seed 4",
        "7c438cb9f3eb70711b2afff90c2d00b15a63b1e1164cf50bd0a7073c683c671c"),
    "scattershot-dense-4": (
        "scattershot --modes 8 --epsilon 0.5 --eta 1.0 --n 4 --pulses 50000 --seed 3",
        "005a54f83e7828ca6cb8f8133280289a2ec06dde44dc84486b63ea5747320712"),
    "scattershot-lossy-5": (
        "scattershot --modes 12 --sources sources.json --n 5 --pulses 20000 --seed 6",
        "9c243af3aabc3e027d5d35f37d51e6803e3aeca05070bb0dadc3cbf5e1e01d00"),
    "jsa-tuned": (
        "jsa --sigma-pump 1.0 --sigma-pm 0.6 --target-purity 0.99",
        "b0fc76aeb5f99fc0e47e0102fbb6736192adc92b80fc15cfce04702f79a9dfa1"),
    "ghz": (
        "ghz --photons 4 --population 0.9 --coherence 0.8 --shots 4000 --seed 11",
        "64a7597fc8923822aa6dc0b7b3d1ea61978237b06ff7ceaf56306abf1af9528e"),
    "sample": (
        "sample --modes 6 --input 110100 --shots 5000 --seed 8",
        "a9646ae960d7c3be6919d29ee4d1d4bfcdff04a7ca1ee9543cae1f64056c8e03"),
}
# The sources.json of the lossy five-photon digest.
CLI_SOURCES = {"sources": [{"epsilon": 0.3, "eta_herald": 0.9, "eta_detect": d}
                           for d in (1.0, 0.9, 0.8, 1.0, 0.95, 0.85) * 2]}
# The files each command writes, by --out and, where it has one, --report.
CLI_OUTPUTS = {"scattershot": ("events.csv", "rates.txt"), "jsa": ("jsa.json", "jsa.txt"),
               "ghz": ("ghz.csv", "ghz.txt"), "sample": ("sample.csv",)}


def _require_digest_numpy():
    assert np.__version__ == VALIDATE_DIGESTS_NUMPY, (
        f"the digests were made with numpy {VALIDATE_DIGESTS_NUMPY}; "
        f"this is numpy {np.__version__}")


def _body_digest(*paths):
    """sha256 of the files' lines that do not start with "#"."""
    body = b"".join(line for path in paths
                    for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


class TestCliDigests:
    @pytest.mark.parametrize("case", CLI_DIGESTS)
    def test_output_bytes_are_pinned(self, tmp_path, monkeypatch, case):
        _require_digest_numpy()
        command, digest = CLI_DIGESTS[case]
        outputs = CLI_OUTPUTS[command.split()[0]]
        flags = [flag for pair in zip(("--out", "--report"), outputs) for flag in pair]
        monkeypatch.chdir(tmp_path)  # the header of the jsa grid names its report file
        (tmp_path / "sources.json").write_text(json.dumps(CLI_SOURCES))
        assert main(command.split() + flags) == 0
        assert _body_digest(*(tmp_path / name for name in outputs)) == digest


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}

        def run(*args):
            return subprocess.run([sys.executable, "-m", "multiphoton", *args],
                                  capture_output=True, text=True, env=env, timeout=60)

        done = run("--version")
        assert (done.returncode, done.stdout) == (0, f"multiphoton {cli.__version__}\n")
        done = run("jsa", "--sigma-pump", "0", "--sigma-pm", "0.6", "--target-purity", "0.9")
        assert done.returncode == EXIT_CONTRACT
        assert done.stderr.startswith("error: sigma_pump must be positive")


class TestPermanentCommand:
    def test_prints_value_and_walltime(self, tmp_path, capsys):
        path = write_ones_matrix(tmp_path / "ones.json")
        assert main(["permanent", path]) == 0
        out = capsys.readouterr().out
        first, second = out.splitlines()[:2]
        assert first.startswith("permanent:") and "6" in first
        assert second.startswith("wall_time_s:")

    def test_report_file(self, tmp_path):
        path = write_ones_matrix(tmp_path / "ones.json")
        report = tmp_path / "perm.txt"
        assert main(["permanent", path, "--out", str(report), "--threads", "2"]) == 0
        text = report.read_text()
        assert text.startswith("# multiphoton ")
        assert "permanent_re: 6.0" in text

    def test_resource_guard_exit_code(self, tmp_path):
        path = tmp_path / "big.json"
        save_matrix(path, np.eye(31))
        assert main(["permanent", str(path)]) == 5

    def test_unreadable_file_exit_code(self, tmp_path):
        assert main(["permanent", str(tmp_path / "missing.json")]) == 3

    def test_malformed_file_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{48]")
        assert main(["permanent", str(path)]) == 3


class TestRatesCommand:
    def test_scattershot_combinatorics(self, capsys):
        assert main(["rates", "--k", "12", "--n", "3", "--scattershot"]) == 0
        out = capsys.readouterr().out
        assert "combinations: 220" in out
        assert "no_collision_patterns: 220" in out
        assert "predicted_rate_hz:" in out

    def test_standard_mode(self, capsys):
        assert main(["rates", "--k", "3", "--n", "3", "--standard"]) == 0
        out = capsys.readouterr().out
        assert "mode: standard" in out
        assert "combinations: 1" in out

    def test_n_larger_than_k_is_contract_error(self):
        assert main(["rates", "--k", "3", "--n", "4"]) == 4

    @pytest.mark.parametrize("argv, doc", [
        (["--k", "-1", "--n", "3"], None),
        (["--k", "3", "--n", "-1"], None),
        (["--k", "3", "--n", "2", "--rep-rate", "nan"], None),
        (["--k", "3", "--n", "2", "--rep-rate", "inf"], None),
        (["--k", "3", "--n", "2"], '{"rep_rate": Infinity}'),
    ], ids=["negative-k", "negative-n", "nan-rep-rate", "inf-rep-rate", "config-inf-rep-rate"])
    def test_invalid_values_are_contract_errors(self, tmp_path, capsys, argv, doc):
        if doc is not None:
            config = tmp_path / "run.json"
            config.write_text(doc)
            argv = argv + ["--config", str(config)]
        assert main(["rates", *argv]) == 4
        assert capsys.readouterr().out == ""

    def test_binomial_beyond_the_float_range(self, capsys):
        assert main(["rates", "--k", "2000", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert f"\ncombinations: {math.comb(2000, 1000)}\n" in out
        assert out.endswith("\npredicted_rate_hz: 0.0\n")

    @pytest.mark.parametrize("argv", [
        ["--k", "29898", "--n", "29792", "--epsilon", "0.1", "--eta", "0.1"],
        ["--k", "1024", "--n", "512", "--epsilon", "1.0", "--eta", "0.5"],
    ], ids=["nan-product", "inf-product"])
    def test_rate_of_an_overflowing_product_is_finite(self, capsys, argv):
        assert main(["rates", *argv]) == 0
        rate = capsys.readouterr().out.rsplit("predicted_rate_hz: ", 1)[1]
        assert math.isfinite(float(rate))

    def test_binomial_beyond_the_digits_str_converts(self, capsys):
        assert main(["rates", "--k", "20000", "--n", "10000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: C(20000, 10000) has too many digits to report\n"

    def test_binomial_far_beyond_the_digits_str_converts_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["rates", "--k", "10000000000", "--n", "5000000000"]) == 4
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: C(10000000000, 5000000000) has too many digits "
                                "to report\n")

    @pytest.mark.parametrize("k", [20_000, 10**6, 2**63 - 1])
    def test_binomials_around_the_digits_str_converts(self, capsys, k):
        # The n where C(k, n) first has more digits than str() converts,
        # and its neighbours: printed in full below it, refused from it.
        limit = sys.get_int_max_str_digits()
        lo, hi = 0, k // 2  # bisected on the estimate, then stepped on the exact value
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _log_comb(k, mid) < limit * math.log(10) else (lo, mid)
        while math.comb(k, lo - 1) >= 10**limit:
            lo -= 1
        while math.comb(k, lo) < 10**limit:
            lo += 1
        for n in (lo - 2, lo - 1, lo, lo + 1):
            code = main(["rates", "--k", str(k), "--n", str(n)])
            out = capsys.readouterr().out
            if n < lo:
                assert code == 0 and f"\ncombinations: {math.comb(k, n)}\n" in out
            else:
                assert code == 4 and out == ""

    def test_missing_required_flag(self, capsys):
        assert main(["rates", "--k", "12"]) == 4
        assert "--n" in capsys.readouterr().err

    def test_threads_flag_is_permanent_only(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["rates", "--k", "4", "--n", "2", "--threads", "3"])
        assert excinfo.value.code == 2
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 4, "n": 2, "threads": 3}))
        assert main(["rates", "--config", str(config)]) == EXIT_DATA


class TestSampleCommand:
    def test_stdout_samples(self, capsys):
        assert main(["sample", "--modes", "4", "--input", "1100", "--shots", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("0,")

    def test_log_file_and_rerun_byte_identical(self, tmp_path):
        args = ["sample", "--modes", "4", "--input", "1100", "--shots", "50",
                "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("# multiphoton ")
        assert "# seed: 3" in text
        assert "pulse_index,trigger_pattern,input_pattern,output_pattern" in text

    @pytest.mark.parametrize("flags", [["--input", "1100"],
                                       ["--input", "2010", "--distinguishable"],
                                       ["--input", "2100", "--no-collisions"]])
    def test_log_is_the_per_record_log_and_builds_no_record(self, tmp_path, monkeypatch, flags):
        args = ["sample", "--modes", "4", "--shots", "400", "--seed", "3", *flags]
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        pattern = tuple(map(int, flags[1]))
        model = (distinguishable_distribution if "--distinguishable" in flags
                 else exact_distribution)
        dist = model(haar_random_unitary(4, 3), pattern, "--no-collisions" not in flags)
        records = [SampleRecord(pattern, pattern, out, i)
                   for i, out in enumerate(sample_outputs(dist, 400, 3))]
        monkeypatch.setattr(SampleRecord, "__init__", _no_record)
        assert main(args + ["--out", str(ours)]) == 0
        header = [line[2:] for line in ours.read_text().splitlines() if line.startswith("# ")]
        per_record_log_reference(reference, records, header)
        assert ours.read_bytes() == reference.read_bytes()

    def test_non_unitary_matrix_rejected(self, tmp_path):
        path = write_ones_matrix(tmp_path / "ones.json")
        code = main(["sample", "--unitary", path, "--input", "100", "--shots", "1"])
        assert code == 4

    @pytest.mark.parametrize("pattern", ["²10", "١٢٠"])
    def test_non_ascii_input_digits_exit_code(self, pattern):
        assert main(["sample", "--modes", "3", "--input", pattern, "--shots", "3"]) == 3

    def test_needs_interferometer(self):
        assert main(["sample", "--input", "1100", "--shots", "5"]) == 4

    def test_shots_beyond_int64_exit_code(self):
        assert main(["sample", "--modes", "4", "--input", "1100",
                     "--shots", str(10**20)]) == EXIT_CONTRACT

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--modes", "not-a-number", "--input", "10", "--shots", "1"])
        assert excinfo.value.code == 2

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestScattershotCommand:
    def test_run_with_log_and_report(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        report = tmp_path / "rates.txt"
        code = main([
            "scattershot", "--modes", "4", "--epsilon", "0.3", "--eta", "0.8",
            "--n", "2", "--pulses", "5000", "--seed", "1",
            "--out", str(log), "--report", str(report),
        ])
        assert code == 0
        text = report.read_text()
        for field in ("n: 2", "retained_events:", "pulses: 5000", "rate_hz:",
                      "predicted_rate_hz:"):
            assert field in text
        assert log.read_text().count("\n") > 10

    def test_rerun_byte_identical(self, tmp_path):
        log = tmp_path / "events.csv"
        report = tmp_path / "rates.txt"
        args = ["scattershot", "--modes", "3", "--epsilon", "0.5", "--eta", "1.0",
                "--n", "2", "--pulses", "2000", "--seed", "9",
                "--out", str(log), "--report", str(report)]

        def run():
            assert main(args) == 0
            return log.read_bytes(), report.read_bytes()

        first = run()
        assert run() == first

    @pytest.mark.parametrize("modes, epsilon, eta, n, pulses", [(8, 0.4, 0.9, 4, 20_000),
                                                                (8, 0.01, 0.5, 3, 10_000_000)],
                             ids=["bright", "faint"])
    def test_log_is_the_per_record_log_and_builds_no_record(self, tmp_path, monkeypatch, modes,
                                                            epsilon, eta, n, pulses):
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        params = [SourceParams.from_lumped_efficiency(epsilon, eta, 80e6)] * modes
        run = scattershot_run(haar_random_unitary(modes, 6), params, pulses, n, 6)
        records = list(run.records)
        assert len(records) > 20
        monkeypatch.setattr(SampleRecord, "__init__", _no_record)
        assert main(["scattershot", "--modes", str(modes), "--epsilon", str(epsilon), "--eta",
                     str(eta), "--n", str(n), "--pulses", str(pulses), "--seed", "6",
                     "--out", str(ours), "--report", str(tmp_path / "report.txt")]) == 0
        header = [line[2:] for line in ours.read_text().splitlines() if line.startswith("# ")]
        per_record_log_reference(reference, records, header)
        assert ours.read_bytes() == reference.read_bytes()

    def test_source_file_must_match_modes(self, tmp_path):
        config = tmp_path / "sources.json"
        config.write_text(json.dumps({"sources": [{"epsilon": 0.1}] * 3}))
        code = main(["scattershot", "--modes", "4", "--sources", str(config),
                     "--n", "2", "--pulses", "10"])
        assert code == 4

    def test_source_rep_rate_too_large_for_a_float_exit_code(self, tmp_path, capsys):
        config = tmp_path / "sources.json"
        config.write_text(json.dumps({"sources": [{"epsilon": 0.5, "rep_rate": 10**400}] * 3}))
        code = main(["scattershot", "--modes", "3", "--sources", str(config),
                     "--n", "2", "--pulses", "100", "--seed", "1"])
        assert code == EXIT_DATA
        assert "rep_rate" in capsys.readouterr().err

    def test_removed_indistinguishability_field_exit_code(self, tmp_path, capsys):
        config = tmp_path / "sources.json"
        config.write_text(json.dumps({"sources": [{"epsilon": 0.1, "indistinguishability": 1.0}]
                                      * 3}))
        code = main(["scattershot", "--modes", "3", "--sources", str(config),
                     "--n", "2", "--pulses", "10"])
        assert code == EXIT_DATA
        assert "indistinguishability" in capsys.readouterr().err


class TestGhzCommand:
    def test_counts_and_report(self, tmp_path):
        counts = tmp_path / "counts.csv"
        report = tmp_path / "summary.txt"
        code = main([
            "ghz", "--photons", "4", "--population", "0.8", "--coherence", "0.6",
            "--shots", "20000", "--seed", "0",
            "--out", str(counts), "--report", str(report),
        ])
        assert code == 0
        table = counts.read_text()
        assert "basis,outcome,count" in table
        assert "hv," in table and "theta0," in table
        summary = report.read_text()
        for field in ("population:", "coherence:", "fidelity:", "significance:",
                      "genuine: True"):
            assert field in summary

    @pytest.mark.parametrize("photons", [4, 12])
    def test_counts_rows_match_per_outcome_oracle(self, tmp_path, photons):
        out = tmp_path / "counts.csv"
        assert main(["ghz", "--photons", str(photons), "--population", "0.732",
                     "--coherence", "0.419", "--shots", "20000", "--seed", "9",
                     "--out", str(out), "--report", str(tmp_path / "summary.txt")]) == 0
        model = GhzModel(photons, 0.732, 0.419)
        settings = [("hv", "ghz-hv", hv_outcome_distribution(model))] + [
            (f"theta{k}", f"ghz-theta-{float(t)!r}", theta_outcome_distribution(model, float(t)))
            for k, t in enumerate(coherence_settings(photons))]
        want = ["basis,outcome,count"]
        for name, label, probs in settings:
            draws = derive_rng(9, label).multinomial(20000, probs)
            want += [f"{name},{i:0{photons}b},{c}" for i, c in enumerate(draws.tolist()) if c]
        assert [l for l in out.read_text().splitlines() if not l.startswith("#")] == want

    def test_invalid_model_exit_code(self):
        code = main(["ghz", "--photons", "4", "--population", "0.4",
                     "--coherence", "0.6", "--shots", "10"])
        assert code == 4

    def test_shots_beyond_int64_exit_code(self):
        code = main(["ghz", "--photons", "3", "--population", "0.9",
                     "--coherence", "0.5", "--shots", str(10**20)])
        assert code == EXIT_CONTRACT


class TestHomCommand:
    def test_curve_from_visibility(self, tmp_path):
        out = tmp_path / "dip.csv"
        code = main(["hom", "--visibility", "0.962", "--sigma", "1.0",
                     "--steps", "101", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "tau,coincidence"
        assert len(lines) == 102
        floor = min(float(l.split(",")[1]) for l in lines[1:])
        assert floor == pytest.approx(0.019, abs=1e-12)

    def test_curve_from_spectrum_parameters(self, capsys):
        code = main(["hom", "--sigma-pump", "1.0", "--sigma-pm", "0.6",
                     "--angle", "-0.4", "--grid-size", "64", "--steps", "5"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_missing_parameters_named(self, capsys):
        assert main(["hom", "--sigma-pump", "1.0"]) == 4
        err = capsys.readouterr().err
        assert "--sigma-pm" in err and "--angle" in err

    @pytest.mark.parametrize("argv, doc", [
        (["--sigma", "inf"], None),
        (["--sigma", "nan"], None),
        (["--sigma", "0"], None),
        ([], '{"sigma": NaN}'),
        (["--tau-max", "nan"], None),
        (["--steps", "-2"], None),
        (["--steps", "0"], None),
    ], ids=["inf-sigma", "nan-sigma", "zero-sigma", "config-nan-sigma", "nan-tau-max",
            "negative-steps", "zero-steps"])
    def test_invalid_values_are_contract_errors(self, tmp_path, argv, doc):
        if doc is not None:
            config = tmp_path / "run.json"
            config.write_text(doc)
            argv = argv + ["--config", str(config)]
        out = tmp_path / "dip.csv"
        assert main(["hom", "--visibility", "0.9", "--out", str(out), *argv]) == 4
        assert not out.exists()


    def test_sigma_whose_square_overflows(self, tmp_path):
        out = tmp_path / "dip.csv"
        assert main(["hom", "--visibility", "0.9", "--sigma", "1e200", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 201
        assert min(float(c) for _, c in rows) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("tau_max", ["inf", "-inf", "1e308"])
    def test_unbounded_delay_range_is_refused_before_the_grid(self, tmp_path, capsys, tau_max):
        out = tmp_path / "dip.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code = main(["hom", "--visibility", "0.9", f"--tau-max={tau_max}", "--out", str(out)])
        assert code == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: tau_max must be finite") and err.count("\n") == 1


class TestJsaCommand:
    def test_tune_to_target_purity(self, tmp_path):
        grid = tmp_path / "jsa.json"
        report = tmp_path / "jsa.txt"
        code = main(["jsa", "--sigma-pump", "1.0", "--sigma-pm", "0.6",
                     "--target-purity", "0.95", "--grid-size", "128",
                     "--out", str(grid), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        purity = float(next(l for l in text.splitlines()
                            if l.startswith("purity:")).split(": ")[1])
        assert purity == pytest.approx(0.95, abs=1e-3)
        doc = json.loads(grid.read_text())
        assert doc["rows"] == 128 and doc["cols"] == 128
        assert any("command: jsa" in line for line in doc["meta"]["header"])

    def test_angle_or_target_required(self):
        assert main(["jsa", "--sigma-pump", "1.0", "--sigma-pm", "0.6"]) == 4

    @pytest.mark.parametrize("args, name", [
        ("--sigma-pump 0 --sigma-pm 0.6 --target-purity 0.9", "sigma_pump"),
        ("--sigma-pump 1e-200 --sigma-pm 1e-201 --target-purity 0.9", "sigma_pump"),
        ("--sigma-pump 1e200 --sigma-pm 1e199 --angle 0.3", "sigma_pump"),
        ("--sigma-pump 1.0 --sigma-pm nan --angle 0.3", "sigma_pm"),
        ("--sigma-pump 1.0 --sigma-pm 0.6 --angle nan", "correlation_angle"),
        ("--sigma-pump 1.0 --sigma-pm 0.6 --span inf --target-purity 0.9", "span"),
    ])
    def test_bad_spectrum_arguments_exit_4(self, capsys, args, name):
        assert main(["jsa", *args.split()]) == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and err.count("\n") == 1


class TestValidateCommand:
    @pytest.mark.parametrize("collisions", [True, False])
    def test_validate_bytes_are_pinned(self, tmp_path, collisions):
        _require_digest_numpy()
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        report, trajectory = tmp_path / "report.txt", tmp_path / "lr.csv"
        save_matrix(unitary, haar_random_unitary(8, 3))
        assert main(["sample", "--unitary", str(unitary), "--input", "21100000",
                     "--shots", "20000", "--seed", "3", "--out", str(log)]) == 0
        assert main(["validate", "--samples", str(log), "--unitary", str(unitary),
                     "--out", str(report), "--trajectory", str(trajectory)]
                    + ([] if collisions else ["--no-collisions"])) == 0
        assert _body_digest(report, trajectory) == VALIDATE_DIGESTS[collisions]

    def test_sample_then_validate_round_trip(self, tmp_path, capsys):
        unitary = tmp_path / "u.json"
        save_matrix(unitary, haar_random_unitary(4, 5))
        log = tmp_path / "samples.csv"
        assert main(["sample", "--unitary", str(unitary), "--input", "1100",
                     "--shots", "2000", "--seed", "2", "--out", str(log)]) == 0
        trajectory = tmp_path / "lr.csv"
        code = main(["validate", "--samples", str(log), "--unitary", str(unitary),
                     "--threshold", "5.0",
                     "--trajectory", str(trajectory)])
        assert code == 0
        out = capsys.readouterr().out
        assert "groups: 1" in out
        assert "verdict: indistinguishable" in out
        assert "samples_used: 2000" in out
        lines = [l for l in trajectory.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "sample,log_likelihood_ratio"
        assert len(lines) == 2001
        # one row per sample, each value in its shortest round-trip form
        report = scattershot_aggregate_validation(read_sample_log(log), load_matrix(unitary))
        assert lines[1:] == [f"{t},{v!r}"
                             for t, v in enumerate(report.pooled.lr_trajectory.tolist(), 1)]

    @pytest.mark.parametrize("threshold", ["-1", "nan", "0"])
    def test_threshold_must_be_positive(self, tmp_path, capsys, threshold):
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        save_matrix(unitary, haar_random_unitary(4, 5))
        assert main(["sample", "--unitary", str(unitary), "--input", "1100",
                     "--shots", "200", "--seed", "2", "--out", str(log)]) == 0
        code = main(["validate", "--samples", str(log), "--unitary", str(unitary),
                     "--threshold", threshold])
        assert code == EXIT_CONTRACT
        assert capsys.readouterr().err.startswith("error: threshold must be positive")

    def test_input_that_differs_from_its_trigger_exit_code(self, tmp_path, capsys):
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        save_matrix(unitary, haar_random_unitary(4, 3))
        write_sample_log(log, [SampleRecord((1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), 7)])
        assert main(["validate", "--samples", str(log), "--unitary", str(unitary)]) == 4
        assert capsys.readouterr().err == ("error: record at pulse 7 has input (0, 0, 1, 1) but "
                                           "trigger (1, 1, 0, 0); validation needs them equal\n")

    def test_mixed_pattern_lengths_exit_code(self, tmp_path, capsys):
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        save_matrix(unitary, haar_random_unitary(3, 2))
        write_sample_log(log, [SampleRecord((1, 1, 0), (1, 1, 0), (0, 1, 1), 5),
                               SampleRecord((1, 1, 0), (1, 1, 0), (1, 0, 1), 6),
                               SampleRecord((1, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), 9)])
        assert main(["validate", "--samples", str(log), "--unitary", str(unitary)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == ("error: records mix pattern lengths 3 and 4: the first record of "
                       "length 4 is at pulse 9\n")

    def test_missing_sample_file(self, tmp_path):
        unitary = tmp_path / "u.json"
        save_matrix(unitary, haar_random_unitary(3, 5))
        code = main(["validate", "--samples", str(tmp_path / "nope.csv"),
                     "--unitary", str(unitary)])
        assert code == 3


class TestConfigFile:
    def test_flags_override_config_values(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 12, "n": 3, "epsilon": 0.02}))
        assert main(["rates", "--config", str(config), "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "combinations: 495" in out
        assert "epsilon: 0.02" in out

    def test_config_supplies_required_values(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 12, "n": 3}))
        assert main(["rates", "--config", str(config)]) == 0
        assert "combinations: 220" in capsys.readouterr().out

    @pytest.mark.parametrize("command, doc", [
        ("rates", {"k": 3, "n": 2}),
        ("scattershot", {"modes": 3, "epsilon": 0.5, "eta": 1.0, "n": 2, "pulses": 100}),
    ])
    def test_number_too_large_for_a_float_rejected(self, tmp_path, capsys, command, doc):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**doc, "rep_rate": 10**400}))
        assert main([command, "--config", str(config)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'rep_rate'" in captured.err

    def test_integer_beyond_int64_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modes": 3, "epsilon": 0.5, "eta": 1.0, "n": 2,
                                      "pulses": 10**400}))
        assert main(["scattershot", "--config", str(config)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key 'pulses' is beyond the 64-bit integer range\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 12, "n": 3, "wavelength": 775}))
        assert main(["rates", "--config", str(config)]) == 3

    def test_removed_hypothesis_key_rejected(self, tmp_path, capsys):
        # validate always tests against the distinguishable hypothesis; the
        # key that could only name it is gone, so a config carrying it is an
        # unknown-key data error
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        save_matrix(unitary, haar_random_unitary(3, 5))
        assert main(["sample", "--unitary", str(unitary), "--input", "110",
                     "--shots", "50", "--out", str(log)]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"samples": str(log), "unitary": str(unitary),
                                      "hypothesis": "distinguishable"}))
        assert main(["validate", "--config", str(config)]) == EXIT_DATA
        assert "unknown keys: ['hypothesis']" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("k = 12")
        assert main(["rates", "--config", str(config)]) == 3

    @pytest.mark.parametrize("argv, key", [
        (["rates", "--k", "4", "--n", "2"], "out"),
        (["sample", "--input", "110", "--shots", "2"], "unitary"),
        (["scattershot", "--modes", "2", "--n", "1", "--pulses", "1"], "sources"),
    ])
    def test_file_name_with_a_nul_character_rejected(self, tmp_path, capsys, argv, key):
        # argv cannot carry a NUL, but a config string can, and open() refuses it
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: "a\0b"}))
        assert main(argv + ["--config", str(config)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: config key {key!r} holds a NUL character\n"

    def test_nesting_too_deep_to_parse_rejected(self, tmp_path):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataError, match="recursion"):
            _load_config_file(config)

    @pytest.mark.parametrize("argv, doc", [
        (["ghz", "--photons", "4", "--population", "0.8", "--coherence", "0.6"],
         {"shots": "abc"}),
        (["rates", "--k", "4", "--n", "2"], {"seed": "x"}),
        (["sample", "--modes", "3", "--input", "110", "--shots", "3"], {"collisions": "no"}),
        (["scattershot", "--modes", "3", "--epsilon", "0.3", "--eta", "0.8", "--n", "2"],
         {"pulses": 1e3}),
        (["rates", "--k", "4", "--n", "2"], {"epsilon": True}),
        (["rates", "--k", "4", "--n", "2"], {"scattershot": 1}),
        (["validate", "--samples", "s.csv", "--unitary", "u.json"], {"threshold": None}),
    ], ids=["int-string", "seed-string", "bool-string", "int-float", "float-bool", "bool-int",
            "float-null"])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, capsys, argv, doc):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(config)]) == EXIT_DATA
        assert f"config key {next(iter(doc))!r}" in capsys.readouterr().err

    def test_integer_accepted_for_float_flag_unconverted(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 4, "n": 2, "epsilon": 1, "scattershot": False}))
        assert main(["rates", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "# epsilon: 1\n" in out and "mode: standard" in out

    def test_default_threads_follow_affinity_mask(self, monkeypatch):
        args = _build_parser().parse_args(["rates", "--k", "4", "--n", "2"])
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_config(args).threads == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_config(args).threads == 64
        assert resolve_config(_build_parser().parse_args(
            ["permanent", "m.json", "--threads", "3"])).threads == 3


@pytest.mark.parametrize("argv, name, content", [
    (["permanent", "{}"], "m.json", b'\xff{"rows": 1}'),
    (["permanent", "{}"], "m.json", b'{"rows": "x", "cols": 1, "entries": [[1, 0]]}'),
    (["permanent", "{}"], "m.json", b'{"rows": 1e400, "cols": 1, "entries": [[1, 0]]}'),
    (["permanent", "{}"], "m.json", b'{"rows": -1, "cols": -1, "entries": [[1, 0]]}'),
    (["permanent", "{}"], "m.json", b'{"rows": 1, "cols": 1, "entries": 5}'),
    (["scattershot", "--modes", "1", "--n", "1", "--pulses", "1", "--sources", "{}"],
     "sources.json", b'\xff{"sources": []}'),
    (["rates", "--k", "4", "--n", "2", "--config", "{}"], "run.json", b'\xff{"k": 4}'),
], ids=["matrix-not-utf8", "matrix-rows-not-int", "matrix-rows-overflow", "matrix-negative-size",
        "matrix-entries-not-list", "sources-not-utf8", "config-not-utf8"])
def test_malformed_json_file_exit_code(tmp_path, argv, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main([arg.format(path) for arg in argv]) == EXIT_DATA


@pytest.mark.parametrize("argv", [
    ["rates", "--k", "4", "--n", "2", "--config", "{deep}"],
    ["validate", "--samples", "{log}", "--unitary", "{deep}"],
    ["scattershot", "--modes", "2", "--n", "1", "--pulses", "1", "--sources", "{deep}"],
], ids=["config", "matrix", "sources"])
def test_json_nested_too_deep_to_parse_exit_code(tmp_path, capfd, argv):
    deep, log = tmp_path / "deep.json", tmp_path / "samples.csv"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    write_sample_log(log, [SampleRecord((1, 0), (1, 0), (0, 1), 0)])
    assert main([arg.format(deep=deep, log=log) for arg in argv]) == EXIT_DATA
    err = capfd.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (b'{"rows": 1.7, "cols": 1, "entries": [[1, 0]]}', "integer 'rows'"),
    (b'{"rows": "1", "cols": 1, "entries": [[1, 0]]}', "integer 'rows'"),
    (b'{"rows": true, "cols": 1, "entries": [[1, 0]]}', "integer 'rows'"),
    (b'{"rows": 1, "cols": 1, "entries": [[true, false]]}', "array of numbers"),
], ids=["rows-float", "rows-string", "rows-bool", "entries-bool"])
def test_matrix_sizes_and_entries_must_have_json_number_types(tmp_path, capsys, content,
                                                              message):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    assert main(["permanent", str(path)]) == EXIT_DATA
    assert message in capsys.readouterr().err


# Each value is 2**63 or more, so it is refused before anything is allocated.
@pytest.mark.parametrize("argv, flag", [
    (["rates", "--k", "1" + "0" * 400, "--n", "2"], "--k"),
    (["scattershot", "--modes", "3", "--epsilon", "0.5", "--eta", "1", "--n", "2",
      "--pulses", "9" * 400], "--pulses"),
    (["scattershot", "--modes", "9" * 400, "--epsilon", "0.5", "--eta", "1", "--n", "2",
      "--pulses", "10"], "--modes"),
    (["hom", "--visibility", "0.9", "--steps", str(10**30)], "--steps"),
    (["jsa", "--sigma-pump", "1", "--sigma-pm", "1", "--angle", "0.3",
      "--grid-size", "9" * 400], "--grid-size"),
], ids=["rates-k", "scattershot-pulses", "scattershot-modes", "hom-steps", "jsa-grid-size"])
def test_integer_flag_beyond_int64_exit_code(capsys, argv, flag):
    assert main(argv) == EXIT_CONTRACT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} is beyond the 64-bit integer range\n"


def test_seed_beyond_int64_accepted(capsys):
    # any non-negative int seeds the generator, so the seed has no int64 bound
    assert main(["rates", "--k", "4", "--n", "2", "--seed", "9" * 400]) == 0
    assert f"# seed: {'9' * 400}\n" in capsys.readouterr().out


# The option strings of each subcommand (and the positional of permanent).
_COMMON = {"-h", "--help", "--seed", "--out", "--config"}
_OPTIONS = {
    "permanent": {"matrix", "--threads"},
    "sample": {"--unitary", "--modes", "--input", "--shots", "--distinguishable",
               "--collisions", "--no-collisions"},
    "scattershot": {"--unitary", "--modes", "--sources", "--epsilon", "--eta", "--rep-rate",
                    "--n", "--pulses", "--report"},
    "ghz": {"--photons", "--population", "--coherence", "--shots", "--report"},
    "hom": {"--visibility", "--sigma-pump", "--sigma-pm", "--angle", "--grid-size", "--span",
            "--sigma", "--tau-max", "--steps"},
    "jsa": {"--sigma-pump", "--sigma-pm", "--angle", "--target-purity", "--grid-size", "--span",
            "--report"},
    "validate": {"--samples", "--unitary", "--threshold", "--collisions", "--no-collisions",
                 "--trajectory"},
    "rates": {"--k", "--n", "--epsilon", "--eta", "--rep-rate", "--scattershot", "--standard"},
}


def test_each_subcommand_accepts_exactly_its_options():
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert set(commands) == set(_OPTIONS)
    for name, sub in commands.items():
        accepted = {s for a in sub._actions for s in a.option_strings or [a.dest]}
        assert accepted == _OPTIONS[name] | _COMMON, name


def test_parser_is_built_once(tmp_path, monkeypatch):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"k": 12, "n": 3}))
    assert main(["rates", "--k", "4", "--n", "2"]) == 0  # builds the parser if not yet built
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["rates", "--k", "4", "--n", "2"]) == 0
    assert main(["rates", "--config", str(config)]) == 0
    assert added == []


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 1.00 PiB for an array"),
     "Unable to allocate 1.00 PiB for an array"),
    (MemoryError(), "MemoryError"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_is_a_resource_exit(monkeypatch, capsys, error, message):
    def exhausted(config):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "rates", cli._COMMANDS["rates"]._replace(handler=exhausted))
    assert main(["rates", "--k", "4", "--n", "2"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == f"error: {message}\n"


# A valid config per command, which fuzzed entries then extend or override.
_BASE_CONFIGS = {
    "rates": {"k": 4, "n": 2},
    "ghz": {"photons": 3, "population": 0.7, "coherence": 0.4, "shots": 5},
    "hom": {"visibility": 0.9, "steps": 5},
    "jsa": {"sigma_pump": 1.0, "sigma_pm": 0.6, "angle": 0.3, "grid_size": 8},
    "sample": {"modes": 3, "input": "110", "shots": 3},
    "scattershot": {"modes": 3, "epsilon": 0.3, "eta": 0.8, "n": 2, "pulses": 20},
}
# Values of each flag's own JSON type, and of any other, under the
# command's own keys mostly, so that most documents get past the
# unknown-key check.  Small integers keep an accepted config cheap to run;
# the others are past int64, NaN or infinite (json.dumps writes the bare
# constants), or file names without a directory part.
_TYPED_VALUES = {
    int: st.integers(-2, 6) | st.integers(2**63, 10**400) | st.integers(-10**400, -2**63 - 1),
    float: st.floats() | st.integers(-2, 6),
    bool: st.booleans(),
    str: (st.sampled_from(["", ".", "a\0b", "x.csv"])
          | st.text(st.characters(blacklist_characters="/"), max_size=6)),
}


def _entry(key):
    """A (key, value) pair: a value of the key's own type three times in four."""
    typed = _TYPED_VALUES[cli._FLAGS[key][0]]
    return st.tuples(st.just(key), st.one_of(typed, typed, typed, JSON_VALUES))


_COMMAND_ENTRIES = st.sampled_from(sorted(_BASE_CONFIGS)).flatmap(lambda command: st.tuples(
    st.just(command), st.lists(st.one_of(
        *[st.sampled_from(cli._COMMANDS[command].flags + ("seed", "out")).flatmap(_entry)] * 5,
        st.tuples(st.text(max_size=6), JSON_VALUES)), max_size=3).map(dict)))

# Nesting depth around the document: none, shallow, or past the parser's recursion limit.
_DEPTHS = st.sampled_from([0] * 10 + [1, 100_000])
_CONFIG_FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@_CONFIG_FUZZ
@given(command_entries=_COMMAND_ENTRIES, replace=st.booleans(), depth=_DEPTHS)
def test_config_file_resolves_or_exits_with_data_or_contract_error(
        tmp_path, monkeypatch, command_entries, replace, depth):
    monkeypatch.chdir(tmp_path)  # fuzzed output file names land here
    command, entries = command_entries
    doc = entries if replace else {**_BASE_CONFIGS[command], **entries}
    path = tmp_path / "run.json"
    path.write_text("[" * depth + json.dumps(doc) + "]" * depth, encoding="utf-8")
    argv = [command, "--config", str(path)]
    try:
        loaded = _load_config_file(path)
        config = resolve_config(_build_parser().parse_args(argv))
    except (DataError, ContractError) as exc:
        assert main(argv) == (EXIT_DATA if isinstance(exc, DataError) else EXIT_CONTRACT)
        return
    assert depth == 0 and loaded.keys() == doc.keys()
    assert all(json.dumps(config.params[k]) == json.dumps(doc[k]) for k in config.params)
    assert main(argv) in (0, EXIT_DATA, EXIT_CONTRACT)


@_CONFIG_FUZZ
@given(pattern=st.text(max_size=6) | st.text("0123456789", max_size=5), modes=st.integers(1, 4),
       from_config=st.booleans())
def test_input_pattern_exits_by_its_fault(tmp_path, capsys, pattern, modes, from_config):
    argv = ["sample", "--modes", str(modes), "--shots", "2"]
    if from_config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"input": pattern}), encoding="utf-8")
        argv += ["--config", str(path)]
    else:
        argv += ["--input", pattern]
    if not (pattern.isascii() and pattern.isdigit()):
        expected = EXIT_DATA
    elif len(pattern) != modes or sum(map(int, pattern)) == 0:
        expected = EXIT_CONTRACT
    else:
        expected = EXIT_RESOURCE if sum(map(int, pattern)) > 6 else 0
    assert main(argv) == expected
    out = capsys.readouterr().out
    assert len(out.splitlines()) == (2 if expected == 0 else 0)
