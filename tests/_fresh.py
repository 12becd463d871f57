"""Run test code in a new interpreter."""

import os
import subprocess
import sys

import bondkit


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this bondkit on its path, so no
    import state leaks between tests; return its stdout.  A run that hangs
    fails after two minutes."""
    src = os.path.dirname(os.path.dirname(bondkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout
