"""Every public callable of the library is one that a CLI run calls.

The CLI runs every preset, plots ``fig3`` and ``fig4``, runs one config
file and refuses one, under ``sys.setprofile``.  A public function, or a
public method, property or ``__init__`` of a public class that is not an
exception, that none of these calls is reached only by tests: its tests
pin an entry point that no run executes.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property

import uavsim
from uavsim import cli
from uavsim.experiment import PRESETS

# ``perfbench/tracer.py`` reads it; no run does.
UNREACHED = {"uavsim.relay.RelayRunResult.se_trace"}


def public_callables():
    """Qualified name -> code object of each public callable of uavsim."""
    codes = {}
    for module in [uavsim, *(importlib.import_module(info.name) for info in
                             pkgutil.iter_modules(uavsim.__path__,
                                                  "uavsim."))]:
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(
                    value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                codes[f"{module.__name__}.{name}"] = value.__code__
            elif inspect.isclass(value) and not issubclass(value,
                                                           BaseException):
                for attr, member in vars(value).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")):
                        codes[f"{module.__name__}.{name}.{attr}"] = \
                            member.__code__
    return codes


def test_every_public_callable_is_reached(tmp_path, capsys):
    codes = public_callables()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    config = tmp_path / "probe.json"
    config.write_text(json.dumps({"preset": "channel_probe"}))
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"preset": "fig3",
                                   "params": {"separation_m": -1}}))
    runs = [[*spec["scenario"].split("_"), "--preset", name,
             "--out", str(tmp_path / name)] for name, spec in PRESETS.items()]
    runs += [["plot", "--manifest", str(tmp_path / name / "manifest.json")]
             for name in ("fig3", "fig4")]
    runs += [["channel", "probe", "--config", str(config), "--out",
              str(tmp_path / "config")],
             ["relay", "trace", "--config", str(refused), "--out",
              str(tmp_path / "refused")]]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert exits == [0] * (len(runs) - 1) + [2]
    assert len(codes) > 30
    assert sorted(name for name, code in codes.items()
                  if code not in called) == sorted(UNREACHED)
