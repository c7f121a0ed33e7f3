"""Tier-1 guard: every source name the traced benchmark patches exists.

``perfbench/traced_serve.py`` wraps about twenty source attributes, each
read from its class's ``__dict__`` by ``install()``; a renamed or deleted
one makes ``install()`` raise ``KeyError`` and the benchmark's traced run
fail.  Running ``install()`` here turns such a rename into a failing unit
test instead of a failing benchmark job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_serve_install_finds_every_patch_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    # A fresh interpreter: install() patches classes process-wide.
    result = subprocess.run(
        [sys.executable, "-c", "import traced_serve; traced_serve.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
