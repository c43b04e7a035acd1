"""Atomic file publication: the repository's one temp-file + rename writer.

Study-store entries, API job records, service checkpoints and
flight-recorder dumps are all published through :func:`write_atomic`,
so a reader sees either the previous file or the complete new one,
never a torn write. In-flight temp files live next to their target as
``.tmp-*.tmp``; directory readers skip them by name.

The module imports nothing from the package, so every layer (``obs``
included) can use it.
"""

from __future__ import annotations

import os
import tempfile

#: Name prefix of in-flight temp files.
TMP_PREFIX = ".tmp-"


def write_atomic(path: str, text: str) -> int:
    """Publish already-encoded ``text`` at ``path``; returns the bytes
    written.

    Creates the target's directory if needed, writes once to a temp
    file in it, then ``os.replace``s that over ``path``; on any failure
    the temp file is removed and the error propagates. No fsync: the
    publication is atomic against concurrent readers and crashes of
    this process, not against power loss.
    """
    data = text.encode("utf-8")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=TMP_PREFIX, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(data)
