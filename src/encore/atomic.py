"""Whole-file writes that a reader never sees half done."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: Path, text: str) -> None:
    """Write text through a temporary file and a rename, so a reader sees
    the old file or the new one, never part of one; a failed write leaves
    no temporary file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
