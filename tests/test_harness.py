"""Tests for the experiment harness: config parsing/hashing, CSV tables, the
registry runner, determinism, and the command-line interface."""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

from qdlab.errors import NonConvergenceError
from qdlab.harness.cli import main
from qdlab.harness.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from qdlab.harness.experiments import (
    EXPERIMENTS,
    OutputSink,
    load_config,
    map_ordered,
    run_experiment,
    worker_count,
)
from qdlab.harness.tables import ResultTable, emit_table

# ---------------------------------------------------------------------------
# Config parsing and validation


def test_minimal_config_parses_for_every_experiment():
    for name in EXPERIMENTS:
        config = load_config(f"[run]\nexperiment = {name}\n")
        assert config.experiment == name
        assert config.output_dir == "qdlab-results"
        digest = config_hash(config)
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_shipped_configs_validate_and_cover_the_registry():
    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))
    configs = [load_config(p.read_text(encoding="utf-8")) for p in paths]
    assert {c.experiment for c in configs} == set(EXPERIMENTS)


def test_parse_serialize_round_trip():
    text = """
[run]
experiment = tk
output_dir = out

[lattice]
d = 1
L = 10
lambda = 0.37

[time]
s = 0.25
t = 1.125
k_max = 2

[sampling]
seed = 9
"""
    config = load_config(text)
    assert config["lattice.L"] == 10
    assert config["lattice.lambda"] == 0.37
    assert config["time.k_max"] == 2
    again = load_config(serialize_config(config))
    assert (again.experiment, again.params) == (config.experiment, config.params)
    assert config_hash(again) == config_hash(config)


def test_typo_suggestion_for_key():
    text = "[run]\nexperiment = figure1\n\n[lattice]\nlamda = 0.3\n"
    with pytest.raises(ConfigError) as err:
        load_config(text)
    joined = "\n".join(err.value.violations)
    assert "lattice.lamda: unknown key" in joined
    assert "did you mean 'lambda'" in joined


def test_typo_suggestion_for_section():
    text = "[run]\nexperiment = figure1\n\n[latice]\nL = 16\n"
    with pytest.raises(ConfigError) as err:
        load_config(text)
    joined = "\n".join(err.value.violations)
    assert "[latice]: unknown section" in joined
    assert "did you mean 'lattice'" in joined


def test_precondition_violation_names_key_and_bound():
    text = "[run]\nexperiment = theta\n\n[spectral]\neta = -0.1\n"
    with pytest.raises(ConfigError) as err:
        load_config(text)
    joined = "\n".join(err.value.violations)
    assert "spectral.eta" in joined
    assert "eta > 0" in joined
    assert "-0.1" in joined


def test_all_violations_reported_together():
    text = """
[run]
experiment = figure1

[lattice]
L = abc
lamda = 0.3

[time]
tolerance = -1
"""
    with pytest.raises(ConfigError) as err:
        load_config(text)
    joined = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 3
    assert "cannot parse 'abc' as an integer" in joined
    assert "did you mean 'lambda'" in joined
    assert "tolerance > 0" in joined


def test_missing_run_section():
    with pytest.raises(ConfigError, match="missing \\[run\\] section"):
        load_config("[lattice]\nL = 8\n")


def test_missing_experiment_key():
    with pytest.raises(ConfigError, match="run.experiment: required key missing"):
        load_config("[run]\noutput_dir = x\n")


def test_unknown_experiment_lists_registry():
    with pytest.raises(ConfigError) as err:
        load_config("[run]\nexperiment = fig1\n")
    joined = "\n".join(err.value.violations)
    assert "unknown experiment 'fig1'" in joined
    assert "figure1" in joined and "theta" in joined


def test_stray_run_key_suggestion():
    with pytest.raises(ConfigError) as err:
        load_config("[run]\nexperiment = tk\noutptu_dir = x\n")
    assert "did you mean 'output_dir'" in "\n".join(err.value.violations)


def test_ini_syntax_error_is_config_error():
    with pytest.raises(ConfigError, match="INI syntax"):
        load_config("experiment = tk without a section header\n")


def test_keys_are_case_sensitive():
    # lattice.L must not be folded to lattice.l
    config = load_config("[run]\nexperiment = tk\n\n[lattice]\nL = 12\n")
    assert config["lattice.L"] == 12


def test_int_list_parsing_and_seed_validation():
    config = load_config(
        "[run]\nexperiment = figure1\n\n[sampling]\nseeds = 3, 5 7\n"
    )
    assert config["sampling.seeds"] == (3, 5, 7)
    with pytest.raises(ConfigError, match="seeds non-empty"):
        load_config("[run]\nexperiment = figure1\n\n[sampling]\nseeds =\n")


def test_nonfinite_float_rejected():
    with pytest.raises(ConfigError, match="finite"):
        load_config("[run]\nexperiment = theta\n\n[spectral]\neta = inf\n")


def test_config_hash_ignores_output_dir_but_not_params():
    base = "[run]\nexperiment = tk\noutput_dir = {out}\n\n[time]\ns = {s}\n"
    a = load_config(base.format(out="here", s="0.5"))
    b = load_config(base.format(out="elsewhere", s="0.5"))
    c = load_config(base.format(out="here", s="0.75"))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert "output_dir" not in serialize_config(a)


def test_parse_config_rejects_unknown_registry_name():
    with pytest.raises(ConfigError):
        parse_config("[run]\nexperiment = nope\n", {})


# ---------------------------------------------------------------------------
# Result tables


def test_table_round_trips_full_precision(tmp_path):
    table = ResultTable([("t", "hops"), ("value", "1")])
    third = 1.0 / 3.0
    table.add_row(2.0, third)
    path = tmp_path / "t.csv"
    emit_table(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t (hops),value (1)"
    cells = lines[1].split(",")
    assert float(cells[1]) == third


def test_table_rejects_nonfinite_without_flag_column(tmp_path):
    table = ResultTable([("x", "1")])
    table.add_row(float("inf"))
    with pytest.raises(ValueError, match="non-finite"):
        emit_table(table, tmp_path / "bad.csv")
    nan_table = ResultTable([("x", "1")])
    nan_table.add_row(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        emit_table(nan_table, tmp_path / "bad2.csv")


def test_table_flag_column_permits_nonfinite(tmp_path):
    table = ResultTable([("x", "1"), ("flag", "")])
    table.add_row(float("nan"), "not-fitted")
    path = tmp_path / "flagged.csv"
    emit_table(table, path)
    assert "not-fitted" in path.read_text()


def test_table_schema_validation():
    with pytest.raises(ValueError, match="duplicate column"):
        ResultTable([("x", "1"), ("x", "2")])
    with pytest.raises(ValueError, match="at least one column"):
        ResultTable([])
    table = ResultTable([("a", ""), ("b", "")])
    with pytest.raises(ValueError, match="row has 1 values for 2 columns"):
        table.add_row(1)


def test_table_quotes_cells_with_commas(tmp_path):
    table = ResultTable([("label", ""), ("v", "")])
    table.add_row('a,"b"', 1)
    path = tmp_path / "q.csv"
    emit_table(table, path)
    assert '"a,""b"""' in path.read_text()


# ---------------------------------------------------------------------------
# Runner and manifests


def _run_config(text: str, tmp_path: Path, name: str = "out"):
    config = load_config(text)
    config.output_dir = str(tmp_path / name)
    return config, run_experiment(config)


def test_run_experiment_tk_smoke(tmp_path):
    config, manifest = _run_config("[run]\nexperiment = tk\n", tmp_path)
    assert manifest.files == ("tk_residuals.csv",)
    assert manifest.version
    assert "collision" in manifest.timings
    data = (Path(config.output_dir) / "tk_residuals.csv").read_text().splitlines()
    assert data[0] == "k,residual (1)"
    assert len(data) == 1 + 4  # k = 0..3
    residuals = [float(line.split(",")[1]) for line in data[1:]]
    assert all(r < 1e-3 for r in residuals)
    on_disk = json.loads(
        (Path(config.output_dir) / "manifest.json").read_text()
    )
    assert on_disk["config_hash"] == manifest.config_hash
    assert on_disk["files"] == list(manifest.files)


def test_run_experiment_unknown_name():
    bogus = ExperimentConfig(experiment="nope", output_dir="x")
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment(bogus)


def test_outputs_byte_identical_across_dirs_and_workers(tmp_path, monkeypatch):
    text = "[run]\nexperiment = figure1\n\n[sampling]\nseeds = 0, 1\n"
    monkeypatch.delenv("QDLAB_WORKERS", raising=False)
    config_a, manifest_a = _run_config(text, tmp_path, "a")
    monkeypatch.setenv("QDLAB_WORKERS", "3")
    config_b, manifest_b = _run_config(text, tmp_path, "b")
    assert manifest_a.config_hash == manifest_b.config_hash
    assert manifest_a.files == manifest_b.files
    for name in manifest_a.files:
        bytes_a = (Path(config_a.output_dir) / name).read_bytes()
        bytes_b = (Path(config_b.output_dir) / name).read_bytes()
        assert bytes_a == bytes_b, name


def test_partial_manifest_on_numerical_failure(tmp_path):
    # eta this small demands a momentum resolution beyond the hard cap, so the
    # run dies with NonConvergenceError -- after writing a partial manifest.
    config = load_config(
        "[run]\nexperiment = theta\n\n[spectral]\neta = 1e-12\n"
    )
    config.output_dir = str(tmp_path / "failed")
    with pytest.raises(NonConvergenceError):
        run_experiment(config)
    on_disk = json.loads((tmp_path / "failed" / "manifest.json").read_text())
    assert on_disk["files"] == []
    assert on_disk["config_hash"] == config_hash(config)


def test_output_sink_requires_bare_filenames(tmp_path):
    sink = OutputSink(tmp_path)
    table = ResultTable([("x", "")])
    table.add_row(1)
    with pytest.raises(ValueError, match="bare"):
        sink.write_table(table, "sub/dir.csv")


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("QDLAB_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("QDLAB_WORKERS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("QDLAB_WORKERS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("QDLAB_WORKERS", "abc")
    assert worker_count() == 1


def test_map_ordered_preserves_order(monkeypatch):
    monkeypatch.setenv("QDLAB_WORKERS", "4")

    def slow_square(i: int) -> int:
        time.sleep(0.002 if i % 3 == 0 else 0.0)
        return i * i

    assert map_ordered(slow_square, range(12)) == [i * i for i in range(12)]
    monkeypatch.setenv("QDLAB_WORKERS", "1")
    assert map_ordered(slow_square, range(4)) == [0, 1, 4, 9]


# ---------------------------------------------------------------------------
# Command-line interface


def run_cli(monkeypatch, *args):
    """The console script's exit code for ``qdlab args...``."""
    monkeypatch.setattr(sys, "argv", ["qdlab", *args])
    return main()


def test_cli_list(monkeypatch, capsys):
    assert run_cli(monkeypatch, "list") == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_validate_ok(tmp_path, monkeypatch, capsys):
    path = tmp_path / "good.ini"
    path.write_text("[run]\nexperiment = tk\n", encoding="utf-8")
    assert run_cli(monkeypatch, "validate", str(path)) == 0
    assert "ok: experiment 'tk'" in capsys.readouterr().out


def test_cli_validate_reports_all_errors(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[run]\nexperiment = figure1\n\n[lattice]\nlamda = 0.3\nL = x\n",
        encoding="utf-8",
    )
    assert run_cli(monkeypatch, "validate", str(path)) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") >= 2
    assert "did you mean 'lambda'" in err


def test_cli_missing_config_file(tmp_path, monkeypatch, capsys):
    assert run_cli(monkeypatch, "validate", str(tmp_path / "absent.ini")) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_run_success(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "results"
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nexperiment = inequalities\noutput_dir = "
        f"{outdir}\n\n[matrix]\nn = 5\n\n[sampling]\nn_trials = 20\n",
        encoding="utf-8",
    )
    assert run_cli(monkeypatch, "run", str(path)) == 0
    out = capsys.readouterr().out
    assert "wrote 1 file(s)" in out
    assert (outdir / "inequalities.csv").exists()
    assert (outdir / "manifest.json").exists()


def test_cli_run_numerical_failure(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "failing"
    path = tmp_path / "fail.ini"
    path.write_text(
        f"[run]\nexperiment = theta\noutput_dir = {outdir}\n\n"
        "[spectral]\neta = 1e-12\n",
        encoding="utf-8",
    )
    assert run_cli(monkeypatch, "run", str(path)) == 3
    assert "numerical failure:" in capsys.readouterr().err
    assert (outdir / "manifest.json").exists()


def test_cli_validate_rejects_kinetic_without_disorder(tmp_path, monkeypatch, capsys):
    # At lambda = 0 every deviation is 0, so the run's log-log slope is undefined.
    path = tmp_path / "free.ini"
    path.write_text(
        f"[run]\nexperiment = kinetic\noutput_dir = {tmp_path / 'out'}\n\n"
        "[lattice]\nlambda = 0\n",
        encoding="utf-8",
    )
    assert run_cli(monkeypatch, "validate", str(path)) == 2
    assert "config error: lattice.lambda: precondition violated: lambda > 0" in capsys.readouterr().err
    assert run_cli(monkeypatch, "run", str(path)) == 2


def test_cli_run_reports_runtime_precondition_as_config_error(tmp_path, monkeypatch, capsys):
    # eta = 0.1 is outside deloc's crossover window [0.02, 0.08] at lambda = 0.2,
    # which only the run checks.
    outdir = tmp_path / "deloc"
    path = tmp_path / "deloc.ini"
    path.write_text(
        f"[run]\nexperiment = deloc\noutput_dir = {outdir}\n\n"
        "[lattice]\nlambda = 0.2\n\n[spectral]\neta = 0.1\n",
        encoding="utf-8",
    )
    assert run_cli(monkeypatch, "validate", str(path)) == 0
    assert run_cli(monkeypatch, "run", str(path)) == 2
    err = capsys.readouterr().err
    assert "config error: eta=0.1 outside the crossover window" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Public exports


@pytest.mark.parametrize("module", ["qdlab", "qdlab.harness", "qdlab.random_matrix"])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    stale = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
