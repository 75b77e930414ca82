"""The setuptools metadata matches the package."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_declares_name_and_version(tmp_path):
    # Run from elsewhere: the shim must find its files relative to itself.
    out = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "--name", "--version"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == ["repro", repro.__version__]
