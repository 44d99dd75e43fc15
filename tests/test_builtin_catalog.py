"""The built-in catalog is a constant in fileio, not a file the package ships."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import excess_kit
from excess_kit.fileio import CATALOG_ENV_VAR, builtin_catalog, load_catalog
from excess_kit.manifolds import validate_profile

EXTRA = "[profile]\nname: extra\nsignature: 0\neuler_characteristic: 4\nb1_f2: 0\n"


def test_each_call_returns_a_new_dict():
    first = builtin_catalog()
    first["added"] = first["s4"]
    assert "added" not in builtin_catalog()


def test_env_catalog_leaves_nothing_behind(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text(EXTRA, encoding="utf-8")
    assert "extra" in load_catalog(env={CATALOG_ENV_VAR: str(path)})
    assert sorted(load_catalog(env={})) == ["s4"]


def test_every_builtin_profile_is_valid():
    for name, profile in builtin_catalog().items():
        assert profile.name == name
        assert validate_profile(profile) is profile


def test_package_sources_alone_list_the_catalog(tmp_path):
    """Only the .py files are needed: the catalog is in the source, not beside it."""
    package = tmp_path / "excess_kit"
    package.mkdir()
    for source in os.listdir(os.path.dirname(excess_kit.__file__)):
        if source.endswith(".py"):
            shutil.copy(os.path.join(os.path.dirname(excess_kit.__file__), source), package)
    env = {k: v for k, v in os.environ.items() if k != CATALOG_ENV_VAR}
    env["PYTHONPATH"] = str(tmp_path)
    # -S keeps site-packages, and any installed copy of the package, off the path.
    result = subprocess.run(
        [sys.executable, "-S", "-m", "excess_kit.cli", "catalog", "list"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "s4: signature 0, euler_characteristic 2, b1_f2 0, b2_f2 0, D 0, B 0\n"
    )
    assert result.stderr == ""
