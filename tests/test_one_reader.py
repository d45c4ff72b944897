"""One reader for every input.

``image_io._decode`` reads every raster and ``watermark.load_key`` every
key.  This parses every module and fails on any other way to read a file:
``open`` with a mode that reads (the default "r", any "r" or "+") or with a
mode that is not a literal, and the numpy and ``pathlib`` calls that read a
file, as methods or as names imported from a module.
"""

import ast

import pytest

from test_one_opener import SOURCES, _mode

READERS = {("image_io.py", "_decode"), ("watermark.py", "load_key")}
CALLS = {"fromfile", "read_bytes", "read_text", "load", "loadtxt", "genfromtxt", "memmap"}


def _reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, form) of every call or import that may read a file."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "open" and getattr(getattr(func, "value", None), "id", None) != "os":
                mode = _mode(node)
                if mode is None or set(mode) & set("r+"):
                    uses.append((node.lineno, f"open {mode!r}"))
            elif name in CALLS:
                uses.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in CALLS | {"open"}]
    return sorted(uses)


def _outside_the_readers(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    readers = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and (module, n.name) in READERS]
    inside = {use for node in readers for use in _reads(node)}
    return [use for use in _reads(tree) if use not in inside]


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(next(p for p in SOURCES if p.name == module).read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {module for module, _ in READERS} | {"cli.py", "bench.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_a_file_but_through_a_reader(path):
    assert _outside_the_readers(ast.parse(path.read_text(), str(path)), path.name) == []


def test_the_readers_read():
    assert [form for _, form in _reads(_function("image_io.py", "_decode"))] == [
        "open 'rb'", "fromfile"]
    assert [form for _, form in _reads(_function("watermark.py", "load_key"))] == ["open 'r'"]


def test_every_form_is_caught():
    source = """
open(p)
open(p, "rb")
open(p, mode="r", encoding="utf-8")
open(p, "r+b")
open(p, flags)
io.open(p, "rb")
np.fromfile(fh, np.uint8)
Path(p).read_bytes()
Path(p).read_text()
np.load(p)
from numpy import fromfile
from io import open as io_open
open(p, "wb")  # allowed: a writer
os.open(p, flags)  # allowed: the output opener's

def _decode(p):
    return open(p, "rb")  # allowed only in image_io.py
"""
    expected = [
        (2, "open 'r'"), (3, "open 'rb'"), (4, "open 'r'"), (5, "open 'r+b'"), (6, "open None"),
        (7, "open 'rb'"), (8, "fromfile"), (9, "read_bytes"), (10, "read_text"), (11, "load"),
        (12, "fromfile"), (13, "open"),
    ]
    assert _outside_the_readers(ast.parse(source), "image_io.py") == expected
    assert _outside_the_readers(ast.parse(source), "cli.py") == sorted(expected + [(18, "open 'rb'")])
