"""One opener for every output.

``image_io._open_output`` creates an output or opens it without truncating
it, and the writer cuts the file where its writing ends, so an existing
output is rewritten in the disk blocks it has.  This parses every module and
fails on any other way to open a file for writing: ``open`` with a mode that
writes, appends, creates or updates, or with a mode that is not a literal;
``os.open`` and ``os.fdopen``; and the ``pathlib``, ``tempfile`` and numpy
calls that write a file, as methods or as names imported from a module.
"""

import ast
from pathlib import Path

import pytest

from wavemark.image_io import _open_output, _write_all

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wavemark").glob("*.py"))
OPENER = "_open_output"
WRITERS = {"fdopen", "write_bytes", "write_text", "tofile", "save", "savez", "savez_compressed",
           "savetxt", "memmap", "mkstemp", "NamedTemporaryFile"}


def _mode(call: ast.Call):
    """The literal mode of an ``open`` call, "r" when none is given, else None."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    mode = given[0]
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _opens(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, form) of every call or import that may open a file for writing."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "open" and getattr(getattr(func, "value", None), "id", None) == "os":
                uses.append((node.lineno, "os.open"))
            elif name == "open":
                mode = _mode(node)
                if mode is None or set(mode) & set("wax+"):
                    uses.append((node.lineno, f"open {mode!r}"))
            elif name in WRITERS:
                uses.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in WRITERS | {"open"}]
    return sorted(uses)


def _outside_the_opener(tree: ast.Module) -> list[tuple[int, str]]:
    opener = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == OPENER]
    inside = {use for node in opener for use in _opens(node)}
    return [use for use in _opens(tree) if use not in inside]


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"cli.py", "image_io.py", "watermark.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_opens_an_output_but_through_the_opener(path):
    assert _outside_the_opener(ast.parse(path.read_text(), str(path))) == []


def test_the_opener_is_the_one_os_open():
    tree = ast.parse(next(p for p in SOURCES if p.name == "image_io.py").read_text())
    opener = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == OPENER)
    assert [form for _, form in _opens(opener)] == ["open 'wb'", "os.open"]


def test_every_form_is_caught():
    source = """
open(p, "wb")
open(p, mode="a")
open(p, "r+b")
open(p, flags)
os.open(p, os.O_WRONLY)
os.fdopen(fd, "wb")
Path(p).write_bytes(b"")
a.tofile(p)
np.save(p, a)
from os import fdopen
from io import open as io_open
open(p, "rb")  # allowed
open(p, "r", encoding="utf-8")  # allowed
open(p)  # allowed

def _open_output(p):
    return open(os.open(p, flags), "wb")  # allowed: the opener
"""
    assert _outside_the_opener(ast.parse(source)) == [
        (2, "open 'wb'"), (3, "open 'a'"), (4, "open 'r+b'"), (5, "open None"), (6, "os.open"),
        (7, "fdopen"), (8, "write_bytes"), (9, "tofile"), (10, "save"), (11, "fdopen"),
        (12, "open"),
    ]


def test_the_opener_truncates_nothing(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"0123456789")
    with _open_output(path) as fh:  # written from the start, the tail kept
        fh.write(b"ab")
    assert path.read_bytes() == b"ab23456789"
    with _open_output(path) as fh:  # cut where the writing ends
        _write_all(fh, b"xyz")
    assert path.read_bytes() == b"xyz"
    with _open_output(tmp_path / "new") as fh:  # created when missing
        _write_all(fh, b"new")
    assert (tmp_path / "new").read_bytes() == b"new"
