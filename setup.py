"""Package metadata for the ``repro`` toolkit (classic setuptools).

The execution environment has no ``wheel`` package and no network, so PEP 660
editable installs fail; ``pip install -e . --no-use-pep517`` takes the
classic ``setup.py develop`` path instead.  All metadata lives here; the
version is read from ``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="TrojanZero (DATE 2019) reproduction: zero-footprint hardware Trojans",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
