"""The benchmark's tracer (bench/spans.py) rebinds every package function
its LAYERS table names. A renamed or deleted target must fail here, not only
in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

from shortcat import cli
from test_cli import _catalogue_text


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(modname, attr):
    owner = importlib.import_module(f"shortcat.{modname}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_layer_and_puts_it_back(tmp_path, capsys):
    spans = _spans_module()
    targets = [(layer, modname, attr) for layer, pairs in spans.LAYERS.items()
               for modname, attr in pairs]
    before = {t: _target(*t[1:]) for t in targets}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for t in targets:
            assert getattr(_target(*t[1:]), "__wrapped__", None) is before[t], t
        path = tmp_path / "z2.mon.skew-monoidal.txt"
        path.write_text(_catalogue_text("z2", "skew-monoidal"))
        assert cli.main(["roundtrip", str(path)]) == cli.EXIT_PASS
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {t: _target(*t[1:]) for t in targets} == before
    names = [span["name"] for span in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("induce.induce") == 1  # one induction per roundtrip
