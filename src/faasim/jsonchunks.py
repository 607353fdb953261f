"""JSON text files read a chunk at a time, for the long arrays of objects faasim reads.

Trace entries and graph tasks and edges are long arrays of small objects.
`Chunks` reads a file `chunk` characters at a time or more and parses each
run of whole array items in one `raw_decode` call, so its caller holds one
run of parsed items beside what it builds from them, never the file's text.
A run is cut after a `}` followed by a comma and a `{`. A cut inside a
string or a nested value leaves the string or a bracket open, so that
run's parse fails. Text that is not JSON, or not laid out as the caller
expects, raises ValueError; the caller then reads the file another way.
"""

from __future__ import annotations

import json
import re

CHUNK = 1 << 16  # characters read at a time, at least
_WS = " \t\n\r"  # JSON's whitespace; `str.split()` and `\s` also take characters JSON refuses
_GAP = re.compile(f"[{_WS}]*,[{_WS}]*" + r"\{")  # from the `}` that closes an item to the `{` that opens the next
_decode = json.JSONDecoder().raw_decode


def _cut(text: str) -> tuple[int, int] | None:
    """Where the last run of whole items in `text` ends, and where the item after it starts."""
    end = len(text)
    while (end := text.rfind("}", 0, end)) >= 0:
        if gap := _GAP.match(text, end + 1):
            return end + 1, gap.end() - 1
    return None


class Chunks:
    """A JSON text file, consumed in order by `skip`, `array`, `value` and `close`."""

    def __init__(self, file, chunk: int):
        self.read, self.chunk, self.text = file.read, chunk, ""

    def _more(self) -> bool:
        """Read on, at least as much again as is held, so that a long stretch with no cut takes linear time."""
        more = self.read(max(self.chunk, len(self.text)))
        self.text += more
        return bool(more)

    def skip(self, *tokens: str) -> None:
        """Consume `tokens`, each after any whitespace."""
        while tokens[-1] not in self.text and self._more():
            pass
        for token in tokens:
            self.text = self.text.lstrip(_WS)
            if not self.text.startswith(token):
                raise ValueError(f"expected {token}")
            self.text = self.text[len(token):]

    def array(self, add) -> None:
        """Consume the array whose `[` was just skipped, passing `add` each run of its items as a list."""
        while True:
            more = self._more()
            cut = _cut(self.text) if more else (len(self.text),) * 2
            if cut is None:
                continue
            end, start = cut
            run, tail, self.text = f"[{self.text[:end]}]", self.text[end:], ""
            items, stop = _decode(run)
            add(items)
            del items  # before the next run is parsed
            if stop < len(run):  # the array ended in this run
                self.text = run[stop:-1] + tail
                return
            if not more:
                raise ValueError("the file ends inside an array")
            self.text = tail[start - end:]

    def value(self):
        """Consume the JSON value that comes next, reading the rest of the file."""
        self.text = (self.text + self.read()).lstrip(_WS)
        value, end = _decode(self.text)
        self.text = self.text[end:]
        return value

    def close(self, closing: str = "") -> None:
        """Consume the rest of the file, which must be `closing` with any whitespace around it."""
        if (self.text + self.read()).strip(_WS) != closing:
            raise ValueError(f"expected {closing or 'nothing'} at the end")
