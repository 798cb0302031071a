"""Every backticked `module.name` of an entbase module in the docs names what exists."""

import importlib
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/schema.md")
MODULES = sorted(path.stem for path in (ROOT / "src" / "entbase").glob("*.py")
                 if path.stem != "__init__")
# `entbase.name...`, `module.name...` or `module.name(args)`: the dotted name alone
REFERENCE = re.compile(r"`((?:entbase|%s)(?:\.\w+)+)[^`]*`" % "|".join(MODULES))


def references() -> list:
    """(file:line, dotted name) of every reference in DOCS, in order."""
    return [(f"{doc}:{number}", match)
            for doc in DOCS
            for number, line in enumerate((ROOT / doc).read_text(encoding="utf-8").splitlines(), 1)
            for match in REFERENCE.findall(line)]


def resolve(dotted: str):
    """The object dotted names: its first part an entbase module (or entbase), then
    attributes by getattr, importing a submodule that is not yet an attribute."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module("entbase" if first == "entbase" else f"entbase.{first}")
    for part in rest:
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


REFERENCES = references()


def test_the_docs_hold_references():
    assert len(REFERENCES) >= 20


@pytest.mark.parametrize("where, dotted", REFERENCES,
                         ids=[f"{where}:{dotted}" for where, dotted in REFERENCES])
def test_reference_resolves(where, dotted):
    resolve(dotted)
