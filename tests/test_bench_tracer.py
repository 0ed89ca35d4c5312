"""The benchmark's tracer still finds every name it hooks by string.

``bench/tracer.py`` rebinds package functions from the outside and attaches
its counters to a few of them by name; a rename in the package would leave
those counters silently at zero.  This installs the tracer, checks each hooked
name was wrapped and fires on a call, and uninstalls it again.
"""

import importlib.util
import inspect
from pathlib import Path

import thetacert
from thetacert import Enclosure
from thetacert.report import ReportDocument

_TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: module functions the tracer hooks by their "layer.name" key
_HOOKED_FUNCTIONS = [
    ("verifier", "f_eval"),
    ("verifier", "f_prime"),
    ("verifier", "f_second"),
    ("scanner", "f_a_second"),
    ("certify", "certify_sign"),
    ("report", "decimal_bounds"),
]
#: ReportDocument methods the tracer hooks or wraps by name
_HOOKED_METHODS = ["to_json", "add_witness"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_hooks_resolve_and_uninstall():
    modules = {name: getattr(thetacert, name) for name, _ in _HOOKED_FUNCTIONS}
    originals = {key: getattr(modules[key[0]], key[1]) for key in _HOOKED_FUNCTIONS}
    methods = {name: vars(ReportDocument)[name] for name in _HOOKED_METHODS}
    tracer = _load_tracer()(thetacert)
    tracer.install()
    try:
        for layer, name in _HOOKED_FUNCTIONS:
            wrapped = getattr(modules[layer], name)
            assert wrapped is not originals[(layer, name)], f"{layer}.{name} not wrapped"
            assert inspect.unwrap(wrapped) is originals[(layer, name)], f"{layer}.{name}"
        for name in _HOOKED_METHODS:
            wrapped = vars(ReportDocument)[name]
            assert wrapped is not methods[name], f"ReportDocument.{name} not wrapped"
            assert inspect.unwrap(wrapped) is methods[name], f"ReportDocument.{name}"
        thetacert.scanner.f_a_second(2, Enclosure(2))
        assert tracer.counts["scanner.refine_evals"] == 1
        thetacert.verifier.f_second(Enclosure(2))
        assert tracer.counts["verifier.dispatch_calls"] == 1
        # the bracket derivation reaches ExpPoly methods the tracer wraps by name
        thetacert.verifier.greek_bracket()
        assert tracer.entries["exppoly"] > 0
    finally:
        tracer.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(modules[layer], name) is fn
    assert all(vars(ReportDocument)[name] is fn for name, fn in methods.items())
