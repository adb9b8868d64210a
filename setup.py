"""Setuptools entry point and the package metadata.

The metadata lives here, in a plain ``setup.py`` with no ``pyproject.toml``,
so an in-place install works offline without the ``wheel`` package:

    python setup.py develop      # offline, no wheel needed
    pip install -e .             # needs ``wheel`` (PEP 660 or legacy path)

The version is read from ``src/repro/__init__.py`` as text, so building the
metadata never imports the package (or numpy).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "START: self-supervised trajectory representation learning with "
        "temporal regularities and travel semantics"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
