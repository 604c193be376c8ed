"""What every subprocess the suite starts shares."""

import os
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the package under test from a fresh checkout."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
