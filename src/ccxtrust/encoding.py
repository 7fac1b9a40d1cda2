"""Canonical tag-length-value byte encoding.

Every structure that gets signed, hashed, or put on the wire is serialized
the same way: a little-endian u16 field tag, a little-endian u32 payload
length, then the payload. Integers inside payloads are little-endian too.

Each structure declares its layout once, as a Spec: ordered (tag,
attribute, kind) entries. One encode path writes the attributes in that
order and one decode path reads them back. A kind is RAW bytes (raw()
adds a fixed width or a maximum length), U16, U64, F64, STR (utf-8),
FLAG (one byte, 0 or 1), a Kind made from an encode/decode pair (such as
the PCR bitmap), nested() for a structure inside a field, a Spec for a
nested record, or Many for a record repeated under one tag. A Signed
structure's last entry is its signature, and its signed body is the
encoding of every entry before it.

Canonical-encoding rule: decode rejects a missing, reordered or extra
field, trailing bytes, a payload of the wrong width or over its limit, a
flag other than 0 or 1, and invalid utf-8. So any bytes that decode are
exactly the encoding of the value they decode to: each structure has one
byte representation, and a signature over it commits to one value.
"""

from __future__ import annotations

import base64
import struct

from .errors import DecodeError

_HEADER = struct.Struct("<HI")


def encode_field(tag: int, payload: bytes) -> bytes:
    return _HEADER.pack(tag, len(payload)) + payload


class FieldWriter:
    """Accumulates TLV fields in a fixed order."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def put(self, tag: int, payload: bytes) -> "FieldWriter":
        self._parts.append(encode_field(tag, payload))
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class FieldReader:
    """Strict sequential reader: fields must appear in the expected order."""

    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0

    def take(self, tag: int) -> bytes:
        if self._pos + _HEADER.size > len(self._buf):
            raise DecodeError(f"truncated field header at offset {self._pos}")
        got, length = _HEADER.unpack_from(self._buf, self._pos)
        if got != tag:
            raise DecodeError(f"expected tag 0x{tag:04x}, found 0x{got:04x}")
        start = self._pos + _HEADER.size
        end = start + length
        if end > len(self._buf):
            raise DecodeError(f"field 0x{tag:04x} runs past end of buffer")
        self._pos = end
        return self._buf[start:end]

    def peek_tag(self) -> int:
        if self._pos + _HEADER.size > len(self._buf):
            raise DecodeError(f"truncated field header at offset {self._pos}")
        return _HEADER.unpack_from(self._buf, self._pos)[0]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._buf)

    def finish(self) -> None:
        if not self.exhausted:
            raise DecodeError(f"{len(self._buf) - self._pos} trailing bytes")


# ---------------------------------------------------------------------------
# field kinds and specs
# ---------------------------------------------------------------------------

class Kind:
    """How one field's value becomes its payload, and back.

    decode must raise DecodeError on any payload that encode cannot
    produce; that is what keeps every encoding canonical.
    """

    def __init__(self, encode, decode) -> None:
        self.encode = encode
        self.decode = decode


def _same(payload: bytes) -> bytes:
    return payload


def raw(width: int | None = None, max_len: int | None = None) -> Kind:
    """Bytes, optionally of exactly `width` or at most `max_len` bytes."""

    def decode(payload: bytes) -> bytes:
        if width is not None and len(payload) != width:
            raise DecodeError(f"field must be {width} bytes, got {len(payload)}")
        if max_len is not None and len(payload) > max_len:
            raise DecodeError(f"field exceeds its {max_len}-byte limit")
        return payload

    return Kind(_same, decode)


def _packed(fmt: str) -> Kind:
    packer = struct.Struct(fmt)

    def decode(payload: bytes):
        if len(payload) != packer.size:
            raise DecodeError(f"field has wrong width for {fmt!r}")
        return packer.unpack(payload)[0]

    return Kind(packer.pack, decode)


def _decode_str(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("field is not valid utf-8") from exc


_FLAG_VALUES = {b"\x00": False, b"\x01": True}


def _decode_flag(payload: bytes) -> bool:
    try:
        return _FLAG_VALUES[payload]
    except KeyError:
        raise DecodeError("flag field must be one byte, 0 or 1") from None


RAW = Kind(_same, _same)
U16 = _packed("<H")
U64 = _packed("<Q")
F64 = _packed("<d")
STR = Kind(str.encode, _decode_str)
FLAG = Kind(lambda value: b"\x01" if value else b"\x00", _decode_flag)


def nested(cls) -> Kind:
    """A Record (or any class with to_bytes/from_bytes) inside a field."""
    return Kind(cls.to_bytes, cls.from_bytes)


class Many:
    """A field repeated zero or more times in a row under one tag; each
    occurrence's payload is one `item`."""

    def __init__(self, item: Kind) -> None:
        self.item = item


class Spec(Kind):
    """The ordered (tag, attribute, kind) fields of one structure.

    encode takes a mapping from attribute to value and decode returns
    one; a Spec is itself a kind, for a record nested in a field.
    """

    def __init__(self, *fields: tuple) -> None:
        self.fields = fields

    def encode(self, values) -> bytes:
        writer = FieldWriter()
        for tag, attr, kind in self.fields:
            if type(kind) is Many:
                for value in values[attr]:
                    writer.put(tag, kind.item.encode(value))
            else:
                writer.put(tag, kind.encode(values[attr]))
        return writer.getvalue()

    def decode(self, raw_bytes: bytes) -> dict:
        reader = FieldReader(raw_bytes)
        values = {}
        for tag, attr, kind in self.fields:
            if type(kind) is Many:
                items = values[attr] = []
                while not reader.exhausted and reader.peek_tag() == tag:
                    items.append(kind.item.decode(reader.take(tag)))
            else:
                values[attr] = kind.decode(reader.take(tag))
        reader.finish()
        return values


class Record:
    """Base for a dataclass whose bytes are declared by its class-level
    SPEC, one entry per dataclass field."""

    SPEC: Spec

    def to_bytes(self) -> bytes:
        return self.SPEC.encode(vars(self))

    @classmethod
    def from_bytes(cls, raw_bytes: bytes):
        return cls(**cls.SPEC.decode(raw_bytes))


class Signed(Record):
    """A Record whose last field is a signature over all the others."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.BODY = Spec(*cls.SPEC.fields[:-1])

    def body_bytes(self) -> bytes:
        return self.BODY.encode(vars(self))


def b64url_encode(data: bytes) -> str:
    """Base64url without padding, as used by the token format."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64url_decode(text: str) -> bytes:
    pad = -len(text) % 4
    try:
        return base64.urlsafe_b64decode(text + "=" * pad)
    except (ValueError, TypeError) as exc:
        raise DecodeError("invalid base64url segment") from exc
