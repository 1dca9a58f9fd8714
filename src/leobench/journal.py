"""Append-only JSONL journal, the one durable-state format of the daemons.

Each line is one JSON object whose "n" numbers the entries 1, 2, ... with no
gap or repeat. Opening a journal streams it through a caller's `apply` and
is strict: a final line with no newline is an append torn by a crash and is
cut off; any other line that does not parse or apply, or that breaks the
numbering, raises ValueError naming path:line and leaves the file as it was.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class Journal:
    def __init__(self, path, apply):
        """Replay `path` (a missing file is empty) through `apply(entry)`,
        which raises LookupError, TypeError, ValueError or AttributeError for
        an entry it cannot apply, then open it for appending."""
        self.path = Path(path)
        self._n = 0
        end = 0   # byte offset just past the last complete line
        if self.path.exists():
            with open(self.path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        break
                    try:
                        entry = json.loads(line)
                        if entry["n"] != self._n + 1:
                            raise ValueError(f"entry n={entry['n']!r}, "
                                             f"expected {self._n + 1}")
                        apply(entry)
                    except (AttributeError, LookupError, TypeError, ValueError) as exc:
                        raise ValueError(f"{self.path}:{lineno}: bad entry: "
                                         f"{type(exc).__name__}: {exc}") from None
                    self._n += 1
                    end += len(line)
            if end < self.path.stat().st_size:
                os.truncate(self.path, end)
        self._file = open(self.path, "a", buffering=1)

    def append(self, entry: dict) -> None:
        if self._file is None:   # removed: this entry starts a new file
            self._file = open(self.path, "a", buffering=1)
        self._n += 1
        self._file.write(json.dumps({"n": self._n, **entry}, sort_keys=True) + "\n")

    def remove(self) -> None:
        """Delete the file; the next append starts a new one at n=1."""
        if self._file is not None:
            self.close()
            self.path.unlink(missing_ok=True)
            self._n = 0

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
