"""Self-tests of the benchmark's tracing and bookkeeping.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import child
import layers
import run
import workloads
from spans import Span, Tracer, layer_totals, self_times, top_level_covered

ROOT = Path(__file__).resolve().parent.parent


def qdlab_attributes() -> dict[tuple[str, str], object]:
    return {(m, k): v for m, mod in list(sys.modules.items())
            if m == "qdlab" or m.startswith("qdlab.") for k, v in vars(mod).items()}


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("d", 12.0, 13.0, -1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    totals = layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"] == pytest.approx({"calls": 2, "failed": 0, "self_s": 3.0, "total_s": 4.0})
    # Top-level spans cover 10 of [0, 15] plus 1 more; clipping to a window.
    assert top_level_covered(spans, 0.0, 15.0) == pytest.approx(11.0)
    assert top_level_covered(spans, 8.0, 12.5) == pytest.approx(2.5)


def test_overlapping_children_count_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_wrapper_records_failures_and_reraises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert layer_totals(tracer.spans)["boom"]["failed"] == 1


def test_install_wraps_every_alias_and_uninstall_restores_them():
    from qdlab import diffusion, spectral

    before = qdlab_attributes()
    original = spectral.resolvent_column
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert spectral.resolvent_column is not original
        assert diffusion.resolvent_column is spectral.resolvent_column
    finally:
        tracer.uninstall()
    assert qdlab_attributes() == before


class Tiny:
    """A one-call workload, so a child process runs in well under a second."""

    name = "tiny"

    def prepare(self, seed):
        from qdlab.diffusion import EnergyPoint

        return {"point": EnergyPoint(1.0, 1.0, 1.0, 2)}

    def run_pass(self, inp, passdir):
        from qdlab import diffusion

        return {"theta": diffusion.solve_theta(inp["point"])}

    def check(self, inp, out):
        return [workloads.gate("theta", out["theta"].residual <= 1e-12)]


@pytest.mark.parametrize("trace", [0, 1])
def test_child_leaves_the_package_as_it_found_it(trace, tmp_path, monkeypatch, capsys):
    import time

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", Tiny())
    before = qdlab_attributes()
    code = child.main(["--workload", "tiny", "--seed", "0", "--budget", "0", "--trace", str(trace),
                       "--oracle", "0", "--spawned", repr(time.monotonic()), "--workdir", str(tmp_path)])
    assert code == 0
    # Untraced: no wrapper was ever installed; traced: every original is back.
    assert qdlab_attributes() == before
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(g["ok"] for g in result["gates"])
    if trace:
        assert set(result["layers"]) == {name for name, _, _ in layers.METRICS}
        assert result["layers"]["diffusion.solve_theta.calls"] == 1
        assert result["layers"]["propagation.evolve.calls"] > 0  # from the warm-up
        assert [p["traced"] for p in result["passes"]] == [False, True]
    else:
        assert "layers" not in result
        assert [p["traced"] for p in result["passes"]] == [False]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
