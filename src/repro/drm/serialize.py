"""Canonical byte serialization for DRM objects and ROAP messages.

OMA DRM 2 signs and MACs XML structures (with X.509 certificates in ASN.1).
The paper's model explicitly excludes XML-parsing overhead from its cost
accounting, so this reproduction replaces the wire syntax with a compact
canonical encoding that keeps what the cost model *does* depend on: every
signed/hashed object is a concrete, deterministic byte string of realistic
size.

The encoding is a typed netstring format:

* ``s<len>:<utf-8 bytes>`` — string
* ``b<len>:<raw bytes>`` — bytes
* ``i<len>:<decimal>`` — integer
* ``n0:`` — None
* ``t1:0|1`` — bool
* ``l<len>:<concatenated items>`` — list/tuple
* ``d<len>:<key item pairs, sorted by key>`` — mapping

Mappings serialize with sorted keys, so two structurally equal objects
always produce identical bytes — the property signatures and MACs need.

Every signed object (certificate, OCSP response, signed ROAP message,
trigger) is a frozen dataclass with a ``tbs_bytes()`` body and a
``signature`` field; :class:`Signed` gives all of them one transport
envelope and one way to sign and verify that body.

Decoding is hardened against hostile input: a blob arriving off a lossy
or adversarial bearer may be truncated, bit-flipped, over-length or
arbitrarily garbled, and every such failure raises the single typed
:class:`~repro.drm.errors.WireDecodeError` — never a bare ``IndexError``,
``KeyError`` or ``UnicodeDecodeError`` that would leak decoder internals
into protocol logic.
"""

import dataclasses
from typing import Any

from .errors import WireDecodeError

#: Maximum nesting depth accepted by the decoder — deeper input is
#: hostile (no DRM object nests beyond a handful of levels) and would
#: otherwise turn a small blob into deep recursion.
MAX_DEPTH = 32


def _frame(tag: str, payload: bytes) -> bytes:
    return tag.encode("ascii") + str(len(payload)).encode("ascii") \
        + b":" + payload


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` (str/bytes/int/bool/None/list/dict)."""
    # bool must precede int: bool is an int subclass.
    if isinstance(value, bool):
        return _frame("t", b"1" if value else b"0")
    if isinstance(value, str):
        return _frame("s", value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _frame("b", bytes(value))
    if isinstance(value, int):
        return _frame("i", str(value).encode("ascii"))
    if value is None:
        return _frame("n", b"")
    if isinstance(value, (list, tuple)):
        payload = b"".join(encode(item) for item in value)
        return _frame("l", payload)
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("canonical mappings require string keys")
            parts.append(encode(key))
            parts.append(encode(value[key]))
        return _frame("d", b"".join(parts))
    raise TypeError("cannot canonically encode %r" % type(value).__name__)


class Signed:
    """Mixin for a frozen dataclass signed over its ``tbs_bytes()`` body.

    The class provides ``tbs_bytes()`` and a ``signature`` field; this
    mixin adds the ``{tbs, signature}`` transport envelope and the
    RSASSA-PSS sign/verify pair over that body. ``label`` tags the
    metered records, so each caller keeps the label it is priced under.
    """

    def to_bytes(self) -> bytes:
        """Transport bytes: the signed body plus its signature."""
        return encode({"tbs": self.tbs_bytes(),
                       "signature": self.signature})

    def signed(self, crypto, key, label: str = "pss-sign"):
        """A copy carrying a signature by ``key`` over ``tbs_bytes()``."""
        return dataclasses.replace(
            self, signature=crypto.pss_sign(key, self.tbs_bytes(),
                                            label=label))

    def verify(self, crypto, public_key,
               label: str = "pss-verify") -> None:
        """Check the signature; raises ``SignatureError`` on failure."""
        crypto.pss_verify(public_key, self.tbs_bytes(), self.signature,
                          label=label)


class _Reader:
    """Sequential decoder over one canonical byte string."""

    def __init__(self, data: bytes, depth: int = 0) -> None:
        self._data = data
        self._pos = 0
        self._depth = depth

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def read_value(self) -> Any:
        tag, payload = self._read_frame()
        if tag == "s":
            try:
                return payload.decode("utf-8")
            except UnicodeDecodeError:
                raise WireDecodeError(
                    "invalid UTF-8 in canonical string") from None
        if tag == "b":
            return payload
        if tag == "i":
            try:
                return int(payload.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise WireDecodeError(
                    "malformed canonical integer") from None
        if tag == "n":
            if payload:
                raise WireDecodeError("non-empty None payload")
            return None
        if tag == "t":
            if payload not in (b"0", b"1"):
                raise WireDecodeError("malformed canonical bool")
            return payload == b"1"
        if tag == "l":
            return self._read_items(payload)
        if tag == "d":
            items = self._read_items(payload)
            if len(items) % 2:
                raise WireDecodeError(
                    "dangling key in canonical mapping")
            keys = items[::2]
            if any(not isinstance(key, str) for key in keys):
                raise WireDecodeError(
                    "canonical mapping key is not a string")
            return dict(zip(keys, items[1::2]))
        raise WireDecodeError("unknown canonical tag %r" % tag)

    def _read_frame(self) -> tuple:
        data = self._data
        if self._pos >= len(data):
            raise WireDecodeError("truncated canonical value")
        tag = chr(data[self._pos])
        self._pos += 1
        colon = data.find(b":", self._pos)
        if colon < 0:
            raise WireDecodeError("missing length separator")
        digits = data[self._pos:colon]
        # isdigit() accepts only ASCII digits on bytes, so this rejects
        # empty, signed, non-ASCII and fractional lengths in one check.
        if not digits.isdigit():
            raise WireDecodeError("malformed canonical length")
        length = int(digits)
        start = colon + 1
        end = start + length
        if end > len(data):
            raise WireDecodeError("truncated canonical payload")
        self._pos = end
        return tag, data[start:end]

    def _read_items(self, payload: bytes) -> list:
        if self._depth >= MAX_DEPTH:
            raise WireDecodeError("canonical value nests too deeply")
        reader = _Reader(payload, depth=self._depth + 1)
        items = []
        while not reader.at_end():
            items.append(reader.read_value())
        return items


def decode(data: bytes) -> Any:
    """Decode one canonical value; rejects trailing garbage.

    Raises :class:`~repro.drm.errors.WireDecodeError` for any malformed
    input, including inputs that are not byte strings at all.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise WireDecodeError(
            "canonical decoding requires bytes, got %r"
            % type(data).__name__)
    reader = _Reader(bytes(data))
    value = reader.read_value()
    if not reader.at_end():
        raise WireDecodeError("trailing bytes after canonical value")
    return value
