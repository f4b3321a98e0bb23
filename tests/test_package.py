"""The package's public namespace, as callers and the benchmark tracer see it."""

from pathlib import Path

import invinsert
from invinsert import cli


def test_all_names_resolve_once():
    names = invinsert.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(invinsert, name)]
    assert missing == []


def test_benchmark_tracer_runs(monkeypatch, capsys):
    # perfbench/tracing.py wraps every public function of the layer modules
    # and files each span under the module that defines it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["compose", "--m", "2", "--k", "1", "--h", "2", "--all"])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    assert metrics["synth.synthesize_s"] > 0 and metrics["synth.factor_calls"] == 1
