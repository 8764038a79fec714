"""Atomic text outputs: a file appears with all of its bytes or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Open `path` for writing UTF-8 text with LF endings. The text goes to
    `.<name>.tmp` beside it, which replaces `path` only once the block ends
    without an exception; on an exception the temp file is removed and any
    earlier file at `path` is left as it was."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
