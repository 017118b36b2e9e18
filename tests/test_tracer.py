"""The benchmark's span tracer against the code it wraps: every function it
names still exists and is wrapped while it is active, and removing it puts
every original binding back."""

import importlib.util
import os
import sys

from rarepred import cli, tune

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "demo.ini")


def bindings() -> dict:
    """Every value the tracer may rebind, keyed by where it is held."""
    held = {
        (layer, attr): value
        for layer, module in tracer.MODULES.items()
        for attr, value in vars(module).items()
    }
    held.update({("tune._REGISTRY", kind): spec for kind, spec in tune._REGISTRY.items()})
    held.update({("cli._COMMANDS", step): fn for step, fn in cli._COMMANDS.items()})
    held.update({("cli.Workspace", name): vars(cli.Workspace)[name]
                 for name in ("record_artifact", "save")})
    return held


def wraps(value, original) -> bool:
    return getattr(value, "__wrapped__", None) is original


def test_tracer_wraps_every_traced_function_and_puts_it_back():
    before = bindings()
    traced = {before[(layer, name)] for layer, name, _, _ in tracer.TRACED}
    run = tracer.Tracer()
    with run.active("check"):
        for layer, name, sites, _ in tracer.TRACED:
            original = before[(layer, name)]
            held = [
                (site, attr, value)
                for site in sites or tracer.MODULES
                for attr, value in vars(tracer.MODULES[site]).items()
                if value is original or wraps(value, original)
            ]
            assert held, f"{layer}.{name} is bound nowhere it is traced"
            for site, attr, value in held:
                assert wraps(value, original), f"{site}.{attr} holds {layer}.{name} unwrapped"
        for kind, spec in tune._REGISTRY.items():
            predict = before[("tune._REGISTRY", kind)].predict
            if predict in traced:
                assert wraps(spec.predict, predict), kind
            else:
                assert spec.predict is predict, kind
        for step, fn in cli._COMMANDS.items():
            assert wraps(fn, before[("cli._COMMANDS", step)]), step
        for name in ("record_artifact", "save"):
            assert wraps(vars(cli.Workspace)[name], before[("cli.Workspace", name)]), name
        cli.load_config(DEMO_CONFIG)
    assert [span.name for span in run.spans] == ["config.load_config"]
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
