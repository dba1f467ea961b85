"""The benchmark under perfbench/ traces triclt by replacing functions found
as module or class attributes; a refactor that renames or moves one of them
would break the traced runs, so every traced name must resolve."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_name_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owners, attr, _, _ in tracing._traced_names()
        for owner in owners
        if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []
