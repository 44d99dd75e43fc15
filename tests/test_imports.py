"""Lazy exports: the package imports a module only when a name from it is first used.

Each import-graph case runs in a new interpreter, so that no module that
another test imported is loaded already.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import excess_kit

PACKAGE = pathlib.Path(excess_kit.__file__).parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

FAMILY = "ambient: s4\n[surface]\ngenus: 1\neuler_number: 2\nclass:\n"
VECTORS = "0101\n1100\n1001\n"


def loaded_after(tmp_path, code: str) -> tuple[str, set[str]]:
    """Run code in a new interpreter; its last stdout line, and the package modules then loaded.

    The code leaves its result in `result`, which becomes the first return value.
    """
    (tmp_path / "family.txt").write_text(FAMILY, encoding="utf-8")
    (tmp_path / "vectors.txt").write_text(VECTORS, encoding="utf-8")
    script = (
        f"import sys\nresult = None\n{code}\n"
        "print(result, *sorted(m for m in sys.modules if m.startswith('excess_kit')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=60, check=True,
    )
    result, *modules = done.stdout.splitlines()[-1].split()
    return result, set(modules)


def run_cli(argv: list[str]) -> str:
    return f"from excess_kit import cli\nresult = cli.run({argv!r})"


def test_a_bare_import_loads_no_submodule(tmp_path):
    assert loaded_after(tmp_path, "import excess_kit") == ("None", {"excess_kit"})


def test_a_name_loads_its_home_module_and_what_that_imports(tmp_path):
    code = "import excess_kit\nresult = excess_kit.rank is excess_kit.gf2.rank"
    assert loaded_after(tmp_path, code) == (
        "True", {"excess_kit", "excess_kit.errors", "excess_kit.gf2"}
    )


LIGHT_COMMANDS = {
    "massey": (["massey", "--genus", "3"], 0),
    "zerosum": (["zerosum", "--vectors", "vectors.txt"], 0),
    "zerosum-exact": (["zerosum", "--vectors", "vectors.txt", "--exact"], 0),
    "bound": (["bound", "--manifold", "s4"], 0),
    "catalog-list": (["catalog", "list"], 0),
    "tube": (["tube", "--family", "family.txt"], 0),
    "help": (["--help"], 0),
    "usage-error": (["check"], 2),
    "check-missing-family": (["check", "--manifold", "s4", "--family", "missing.txt"], 2),
}


@pytest.mark.parametrize("command", LIGHT_COMMANDS)
def test_light_commands_load_neither_engine_nor_covers(tmp_path, command):
    argv, expected = LIGHT_COMMANDS[command]
    code, loaded = loaded_after(tmp_path, run_cli(argv))
    assert code == str(expected)
    assert "excess_kit.cli" in loaded
    assert {"excess_kit.engine", "excess_kit.covers"}.isdisjoint(loaded)


def test_cover_loads_covers_but_not_engine(tmp_path):
    argv = ["cover", "--manifold", "s4", "--genus", "1", "--euler", "2"]
    code, loaded = loaded_after(tmp_path, run_cli(argv))
    assert code == "0"
    assert "excess_kit.covers" in loaded
    assert "excess_kit.engine" not in loaded


def test_check_loads_engine(tmp_path):
    # The control: the cases above would pass if nothing were measured.
    argv = ["check", "--manifold", "s4", "--family", "family.txt"]
    code, loaded = loaded_after(tmp_path, run_cli(argv))
    assert code == "0"
    assert {"excess_kit.engine", "excess_kit.covers", "excess_kit.reports"} <= loaded


@pytest.fixture
def unresolved(monkeypatch):
    """The package as a bare import leaves it: no exported name or submodule resolved yet."""
    for name in excess_kit.__all__[:-1] + SUBMODULES:
        monkeypatch.delattr(excess_kit, name, raising=False)
    return excess_kit


def test_every_export_is_its_home_modules_object(unresolved):
    for module, names in unresolved._EXPORTS.items():
        home = importlib.import_module(f"excess_kit.{module}")
        for name in names:
            assert getattr(unresolved, name) is getattr(home, name), name
            assert name in vars(unresolved), name  # kept, where a vars() walk finds it
    assert sorted(unresolved._HOME) == unresolved.__all__[:-1]


def test_dir_lists_every_export_before_first_use(unresolved):
    assert set(unresolved.__all__) <= set(dir(unresolved))


def test_star_import_binds_every_export(unresolved):
    namespace: dict = {}
    exec("from excess_kit import *", namespace)
    assert set(unresolved.__all__) <= set(namespace)


def test_submodules_resolve_as_attributes(unresolved):
    for name in SUBMODULES:
        assert getattr(unresolved, name) is sys.modules[f"excess_kit.{name}"]


@pytest.mark.parametrize("name", ["no_such_name", "no_such.name", "gf2.rank"])
def test_an_unknown_name_raises_attribute_error_naming_the_module(name):
    message = f"module 'excess_kit' has no attribute {name!r}"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        getattr(excess_kit, name)
