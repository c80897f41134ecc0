"""The package's public face: the README's code runs, the export lists agree, and the version is written once."""

import ast
import importlib
import re
import warnings
from pathlib import Path

import pytest

import paclab

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["analysis", "cli", "distcsv", "empirics", "learners", "theory"]


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(readme_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(readme_python_blocks())))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_python_blocks()[index], f"README.md block {index}", "exec"), {})


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_name_of_all(module):
    namespace = {}
    exec(f"from paclab.{module} import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(importlib.import_module(f"paclab.{module}").__all__) <= namespace.keys()


def test_package_imports_only_names_its_modules_export():
    imports = [node for node in ast.parse(Path(paclab.__file__).read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"paclab.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == [], node.module


def test_pyproject_takes_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():  # older setuptools warns that [tool.setuptools] is beta
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(README.parent / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"] and project["version"] == paclab.__version__
