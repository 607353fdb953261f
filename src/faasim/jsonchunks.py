"""JSON text files read once, a chunk at a time, for the long arrays of objects faasim reads.

Trace entries and graph tasks and edges are long arrays of small objects. `Chunks.document` hands each run of whole
items of such an array, parsed in one `raw_decode` call, to the array's `add`, so its caller holds one run of parsed
items beside what it builds from them, never the file's text. A run is cut after a `}` followed by a comma and a `{`;
a cut inside a string or a nested value makes the run's parse fail at its end or in its last string, and the run is
cut again further on. Text that is not JSON raises json's own error at the file's line, column and character.
"""

from __future__ import annotations

import codecs
import io
import json
import re

CHUNK = 1 << 16  # bytes read at a time, at least
_WS = " \t\n\r"  # JSON's whitespace; `str.split()` and `\s` also take characters JSON refuses
_SPACE = re.compile(f"[{_WS}]*")
_GAP = re.compile(f"[{_WS}]*,[{_WS}]*" + r"\{")  # from the `}` that closes an item to the `{` that opens the next
_decode = json.JSONDecoder().raw_decode
# Text that puts json's parser where a walk of an object is: after `{`, a name, a value that ends, and a comma.
_OPEN, _NAMED, _VALUED, _NEXT = "{", '{""', '{"":""', '{"":"",'


def _cut(text: str) -> tuple[int, int] | None:
    """Where the last run of whole items in `text` ends, and where the item after it starts."""
    end = len(text)
    while (end := text.rfind("}", 0, end)) >= 0:
        if gap := _GAP.match(text, end + 1):
            return end + 1, gap.end() - 1
    return None


class _FileDecodeError(UnicodeDecodeError):
    """Bytes that are not UTF-8, `object`, at `start` in the file, worded as decoding the whole file words them."""

    def __str__(self) -> str:
        where = (f"bytes in position {self.start}-{self.end - 1}" if len(self.object) > 1
                 else f"byte 0x{self.object[0]:02x} in position {self.start}")
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


class Chunks:
    """A JSON file opened in binary mode, read once by `document`. The held text starts where the reading has got to."""

    def __init__(self, file, chunk: int):
        self.read, self.chunk, self.text, self.utf8 = file.read, chunk, "", codecs.getincrementaldecoder("utf-8")()
        self.decode = io.IncrementalNewlineDecoder(self.utf8, translate=True).decode
        # Bytes read; characters and newlines before the held text, and where the last of those newlines is.
        self.bytes, self.at, self.lines, self.line_end = 0, 0, 0, -1

    def _more(self) -> bool:
        """Read on, at least as much again as is held, so that a long stretch with no cut takes linear time."""
        data = self.read(max(self.chunk, len(self.text)))
        try:
            text = self.decode(data, not data)  # at the end, a `\r` held back to see if a `\n` follows
        except UnicodeDecodeError as exc:  # `exc.object` is the bytes the decoder held, then `data`
            at = self.bytes - len(self.utf8.buffer)
            raise _FileDecodeError(exc.encoding, exc.object[exc.start:exc.end], at + exc.start, at + exc.end,
                                   exc.reason) from None
        self.text, self.bytes = self.text + text, self.bytes + len(data)
        return bool(data or text)  # False once all the file's text is held

    def _drop(self, end: int) -> None:
        """Consume the held text up to `end`."""
        if (newline := self.text.rfind("\n", 0, end)) >= 0:
            self.lines, self.line_end = self.lines + self.text.count("\n", 0, end), self.at + newline
        self.at, self.text = self.at + end, self.text[end:]

    def _error(self, msg: str, at: int) -> json.JSONDecodeError:
        """json's error `msg` at `at` in the held text, placed in the file."""
        exc = json.JSONDecodeError(msg, self.text, at)  # its line and column count from the held text
        exc.colno += self.at - self.line_end - 1 if exc.lineno == 1 else 0
        exc.pos, exc.lineno = self.at + at, self.lines + exc.lineno
        exc.args = (f"{msg}: line {exc.lineno} column {exc.colno} (char {exc.pos})",)
        return exc

    def _token(self, token: str = "", context: str = "") -> str:
        """The character after any whitespace, "" at the end; where it is not `token`, json's error after `context`."""
        while (at := _SPACE.match(self.text).end()) == len(self.text) and self._more():
            pass
        if token and self.text[at:at + 1] != token:
            try:
                _decode(context + self.text)
            except json.JSONDecodeError as exc:
                raise self._error(exc.msg, exc.pos - len(context)) from None
        return self.text[at:at + 1]

    def _skip(self, token: str = "", context: str = "") -> None:
        """Consume any whitespace and the next character, as `_token` checks it."""
        self._token(token, context)
        self._drop(_SPACE.match(self.text).end() + 1)

    def _value(self):
        """Consume the JSON value that comes next, once a character follows it (`0.` may go on) or the file ends."""
        while True:
            try:
                value, end = _decode(self.text, _SPACE.match(self.text).end())
                if end < len(self.text) and self.text[end] not in "+-.0123456789eE" or not self._more():
                    self._drop(end)
                    return value
            except json.JSONDecodeError as exc:
                if not self._more():
                    raise self._error(exc.msg, exc.pos) from None

    def _stream(self, add) -> list:
        """Consume the array that comes next, passing `add` each run of its items as a list; then it reads as []."""
        self._skip()
        while True:
            if (cut := (len(self.text),) * 2 if (ended := not self._more()) else _cut(self.text)) is None:
                continue
            end, start = cut
            run = "[" + self.text[:end] + ("" if ended else "]")  # at the end of the file, json words a missing `]`
            try:
                items, stop = _decode(run)
            except json.JSONDecodeError as exc:
                if not ended and (exc.pos >= len(run) - 1 or exc.msg.startswith("Unterminated string")):
                    continue  # cut inside a string or a nested value
                raise self._error(exc.msg, exc.pos - 1) from None
            add(items)
            del items  # before the next run is parsed
            self._drop(start if (going := stop == len(run) and not ended) else stop - 1)
            if not going:  # the array ended in this run
                return []

    def document(self, streams: dict):
        """The document in the file, an array that `streams` names read as [] once its runs went to the `add` it maps
        the name to: None names the top-level array, a name the top-level object's member once the names before it
        in `streams` are streamed (met before, it is read whole). A streamed name that comes twice is refused."""
        if (token := self._token()) and self.text.startswith("\ufeff"):
            raise self._error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        if token != "{":
            doc = self._stream(streams[None]) if token == "[" and None in streams else self._value()
        else:
            doc, order, context = {}, [*streams], _OPEN
            self._skip()
            while self._token() != "}" or context != _OPEN:
                self._token('"', context)
                if (name := self._value()) in streams and name in doc:  # a later copy cannot replace the first
                    raise self._error(f"{name!r} is named twice", 0)
                self._skip(":", _NAMED)
                take = order[:1] == [name] and self._token() == "["
                doc[name] = self._stream(streams[order.pop(0)]) if take else self._value()
                if self._token() == "}":
                    break
                self._skip(",", _VALUED)
                context = _NEXT
            self._skip()
        if self._token():
            raise self._error("Extra data", _SPACE.match(self.text).end())
        return doc
