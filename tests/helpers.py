"""What every subprocess the suite starts shares."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
# What the installed ``ramseybench`` script runs.
CONSOLE = [sys.executable, "-c", "import sys; from ramseybench.cli import main; sys.exit(main())"]
# The other interpreters the package supports, by the name each has on PATH.
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the package under test from a fresh checkout.
    PYTHONUNBUFFERED is dropped: a child's stdout is block-buffered, as a
    user's is, so a flush missing before the console entry's exit shows."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _starts(exe) -> bool:
    return subprocess.run([exe, "-c", "pass"], capture_output=True).returncode == 0


def _pyenv_python(name: str):
    """``$PYENV_ROOT/versions/<minor>.<patch>/bin/<name>`` for the highest
    installed patch of the minor version ``name`` names, or None."""
    root = os.environ.get("PYENV_ROOT")
    minor = name.removeprefix("python")
    if not root or not minor:
        return None
    found = []
    for path in Path(root, "versions").glob(f"{minor}.*"):
        patch = path.name[len(minor) + 1:]
        if patch.isdigit() and (path / "bin" / name).is_file():
            found.append((int(patch), path / "bin" / name))
    return str(max(found)[1]) if found else None


def other_python(name: str) -> str:
    """The path of interpreter ``name``; skips the test where it is absent
    or does not start.  A version manager's shim is on PATH even where it
    cannot start (pyenv's starts only when PYENV_VERSION names it), so the
    interpreter pyenv installed is tried next."""
    exe = shutil.which(name)
    if exe is None or not _starts(exe):
        exe = _pyenv_python(name)
        if exe is None or not _starts(exe):
            pytest.skip(f"{name} is absent or does not start")
    return exe
