"""Lazy package exports, and the layers each command line run imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordspace

SRC = str(Path(ordspace.__file__).resolve().parents[1])
LAYERS = ("ordinal", "topology", "grasberg", "trees", "szlenk", "extract", "fuzz")


def loaded_by(code: str, *args: str) -> list:
    """Run code in a fresh interpreter and return the JSON line it prints.

    The code sees `before`, the set of modules loaded at start-up.
    """
    script = "import sys\nbefore = set(sys.modules)\n" + code
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout)


def test_every_export_is_its_layers_object():
    for name in ordspace.__all__:
        layer = importlib.import_module(f"ordspace.{ordspace._MODULE_OF[name]}")
        assert getattr(ordspace, name) is getattr(layer, name), name


def test_exports_are_unique_and_listed_by_dir():
    assert len(ordspace.__all__) == len(set(ordspace.__all__))
    assert set(ordspace.__all__) <= set(dir(ordspace))
    assert "__version__" in dir(ordspace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ordspace.nope
    assert not hasattr(ordspace, "to_json")


def test_version_unchanged():
    assert ordspace.__version__ == "0.1.0"


# name -> (old module, new module), for the names tests/test_acceptance.py imports from the old one
FORWARDED = {
    "random_ordinal": ("grasberg", "fuzz"),
    "random_step_function": ("grasberg", "fuzz"),
    "marching_indicators": ("trees", "extract"),
    "extract_small_combination": ("szlenk", "extract"),
}


@pytest.mark.parametrize("name", list(FORWARDED))
def test_moved_name_is_the_same_object_in_its_old_module(name):
    old, new = (importlib.import_module(f"ordspace.{m}") for m in FORWARDED[name])
    assert getattr(old, name) is getattr(new, name)


@pytest.mark.parametrize(
    "old, name",
    [
        ("trees", "family_from_table"),
        ("szlenk", "ExtractionCertificate"),
        ("grasberg", "shrink_step_function"),
    ],
)
def test_other_moved_names_are_not_forwarded(old, name):
    module = importlib.import_module(f"ordspace.{old}")
    with pytest.raises(AttributeError, match=f"module 'ordspace.{old}' has no attribute '{name}'"):
        getattr(module, name)


def test_package_import_loads_no_layer():
    added = loaded_by(
        "import json, ordspace\n"
        "first = sorted(m for m in set(sys.modules) - before if m.startswith('ordspace'))\n"
        "from ordspace import parse\n"
        "second = sorted(m for m in set(sys.modules) - before if m.startswith('ordspace'))\n"
        "print(json.dumps([first, second]))\n"
    )
    assert added == [["ordspace"], ["ordspace", "ordspace.ordinal"]]


RUN = (
    "import contextlib, io, json\n"
    "from ordspace.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = run(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
)


def command_footprint(argv):
    code, added = loaded_by(RUN, json.dumps(argv))
    return code, set(added)


def test_ord_loads_only_the_ordinal_layer():
    code, added = command_footprint(["ord", "eval", "w"])
    assert code == 0
    assert not {f"ordspace.{layer}" for layer in LAYERS[1:]} & added
    assert "dataclasses" not in added


@pytest.mark.parametrize("command", ["cb", "tree"])
def test_cb_and_tree_skip_grasberg_szlenk_and_dataclasses(tmp_path, command):
    tree = tmp_path / "t.txt"
    tree.write_text("a -\nb a\n")
    argv = ["cb", "w"] if command == "cb" else ["tree", "rank", "--file", str(tree)]
    code, added = command_footprint(argv)
    assert code == 0
    assert not {"ordspace.grasberg", "ordspace.szlenk", "dataclasses"} & added


def test_parse_error_loads_only_the_ordinal_layer():
    code, added = command_footprint(["cb", "w^("])
    assert code == 2
    assert {m for m in added if m.startswith("ordspace")} == {
        "ordspace",
        "ordspace.cli",
        "ordspace.ordinal",
    }


def test_szlenk_loads_only_the_index_layer():
    code, added = command_footprint(["szlenk", "w^(w)"])
    assert code == 0
    assert {m for m in added if m.startswith("ordspace")} == {
        "ordspace",
        "ordspace.cli",
        "ordspace.ordinal",
        "ordspace.topology",
        "ordspace.szlenk",
    }
    assert "dataclasses" not in added


# command -> (argv, layers it must not load); {tree} is a tree file
SKIPPED = {
    "check": (["check", "king", "--space", "w", "--trials", "3"], ("trees", "szlenk", "extract")),
    "extract": (["extract", "--space", "w", "--delta", "1/2"], ("fuzz", "szlenk", "trees")),
    "tree": (["tree", "rank", "--file", "{tree}"], ("topology", "grasberg")),
}


@pytest.mark.parametrize("command", list(SKIPPED))
def test_command_skips_the_layers_it_does_not_use(tmp_path, command):
    tree = tmp_path / "t.txt"
    tree.write_text("a -\nb a\n")
    argv, skipped = SKIPPED[command]
    code, added = command_footprint([arg.format(tree=tree) for arg in argv])
    assert code == 0
    assert not {f"ordspace.{layer}" for layer in skipped} & added
