"""What every subprocess the suite starts shares."""

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# What the installed ``ramseybench`` script runs.
CONSOLE = [sys.executable, "-c", "import sys; from ramseybench.cli import main; sys.exit(main())"]


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the package under test from a fresh checkout.
    PYTHONUNBUFFERED is dropped: a child's stdout is block-buffered, as a
    user's is, so a flush missing before the console entry's exit shows."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("PYTHONUNBUFFERED", None)
    return env
