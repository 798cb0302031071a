"""The docs state what exists: each backticked `module.name` and each quoted exit-1 message."""

import importlib
import re
import types
from pathlib import Path

import pytest
from test_config_cli import MALFORMED

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


def test_quoted_exit_1_messages_are_malformed_rows():
    """Each `<key>: <message>` that the `1` item of docs/schema.md's "Exit codes" section
    quotes, line breaks read as spaces, is the stderr of a test_config_cli.MALFORMED row."""
    text = (ROOT / "docs/schema.md").read_text(encoding="utf-8").split("\n## Exit codes\n")[1]
    item = " ".join(text.split("\n- `1` ")[1].split("\n- `2` ")[0].split())
    quoted = re.findall(r"`((?:--)?[A-Za-z_][\w.\[\]-]*: [^`]+)`", item)
    bodies = {row.stderr.split(": ", 1)[1][:-1] for row in MALFORMED if not row.prefix}
    assert quoted and [message for message in quoted if message not in bodies] == []
