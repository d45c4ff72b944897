"""The README's "Python API" section stays true to the package: its example
runs as written, and every name it offers is exported."""

import importlib
import pkgutil
import re
from pathlib import Path

import wavemark

_API = re.search(r"^## Python API\n(.*?)(?=^## |\Z)",
                 (Path(__file__).parents[1] / "README.md").read_text(), re.S | re.M)[1]


def test_api_example_runs(capsys):
    exec(re.search(r"```python\n(.*?)```", _API, re.S)[1], {})
    assert capsys.readouterr().out.strip()


def test_building_blocks_are_exported():
    names = re.findall(r"`(\w+)`", re.search(r"building blocks \((.*?)\)", _API, re.S)[1])
    assert names and set(names) <= set(wavemark.__all__)


def test_every_name_in_an_all_resolves():
    modules = [wavemark] + [importlib.import_module(f"wavemark.{info.name}")
                            for info in pkgutil.iter_modules(wavemark.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
