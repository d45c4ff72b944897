"""The README stays true to the package: the "Python API" example runs as
written, every name it offers is exported, and the exit-code paragraph
names every error category ``main`` prints, with its code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import wavemark
import wavemark.cli

_README = (Path(__file__).parents[1] / "README.md").read_text()
_API = re.search(r"^## Python API\n(.*?)(?=^## |\Z)", _README, re.S | re.M)[1]


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


def test_every_error_category_is_in_the_exit_codes():
    # each _fail("<category>", exc, code) in main, read from its source
    tree = ast.parse(Path(wavemark.cli.__file__).read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    failures = [tuple(a.value for a in call.args[::2]) for call in ast.walk(main)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_fail"]
    assert ("memory", 4) in failures
    paragraph = re.search(r"^Exit codes: (.*?)\n\n", _README, re.S | re.M)[1]
    missing = [(category, code) for category, code in failures
               if not re.search(rf"`{code}`\s[^`]*\b{category}\b", paragraph)]
    assert missing == []
