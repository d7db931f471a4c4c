"""Structural rules of the package source, checked on its syntax tree."""

import ast
from pathlib import Path

import dbnkit

SRC = Path(dbnkit.__file__).parent

# calls that read or write a file's raw bytes whatever their arguments
BYTE_CALLS = {"read_bytes", "write_bytes", "fromfile", "tofile"}


def _is_binary_mode(mode):
    # a mode that is not a literal might be binary
    return not (isinstance(mode, ast.Constant) and "b" not in str(mode.value))


def binary_file_access(tree):
    """Line numbers where a module imports struct or opens a file in binary mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # open(file, mode) or path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[position : position + 1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if name in BYTE_CALLS or (name == "open" and any(map(_is_binary_mode, modes))):
                yield node.lineno


def test_only_storage_reads_and_writes_binary_files():
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "storage.py"
        for line in binary_file_access(ast.parse(path.read_text()))
    }
    assert not found, f"binary file access outside storage.py: {sorted(found)}"


def test_the_rule_sees_each_form_of_binary_access():
    code = """
import struct
from struct import pack
open(p, "rb")
open(p, mode="wb")
p.open("rb")
p.read_bytes()
np.fromfile(p)
open(p)
open(p, "w", newline="")
p.open()
"""
    assert sorted(binary_file_access(ast.parse(code))) == [2, 3, 4, 5, 6, 7, 8]
