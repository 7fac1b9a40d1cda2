"""Canonical tag-length-value byte encoding.

Every structure that gets signed, hashed, or put on the wire is serialized
the same way: a little-endian u16 field tag, a little-endian u32 payload
length, then the payload. Integers inside payloads are little-endian too.

Each structure declares its layout once, as a Spec: ordered (tag,
attribute, kind) entries. A kind is RAW bytes (raw() adds a fixed width
or a maximum length), U16, U64, STR (utf-8), a Kind made from an
encode/decode pair (such as the PCR bitmap), or nested() for a record
inside a field.

Spec.encode and Spec.unpack are one loop each over the fields; encode
reads a mapping by key and a Record by attribute, and unpack makes
FieldReader's checks, in its order, with its errors. FieldWriter
and FieldReader are the one-field-at-a-time form of the same rules.

Canonical-encoding rule: decode rejects a missing, reordered or extra
field, trailing bytes, a payload of the wrong width or over its limit,
and invalid utf-8. So any bytes that decode are exactly the encoding of
the value they decode to: each structure has one byte representation,
and a signature over it commits to one value.
"""

from __future__ import annotations

import base64
import inspect
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
        buf, pos = self._buf, self._pos
        start = pos + _HEADER.size
        if start <= len(buf):
            got, length = _HEADER.unpack_from(buf, pos)
            end = start + length
            if got == tag and end <= len(buf):
                self._pos = end
                return buf[start:end]
        raise _field_error(buf, pos, tag)

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._buf)

    def finish(self) -> None:
        if not self.exhausted:
            raise _field_error(self._buf, self._pos)


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


class Raw(Kind):
    """Bytes, optionally of exactly `width` or at most `max_len` bytes."""

    def __init__(self, width: int | None = None,
                 max_len: int | None = None) -> None:
        unchecked = width is None and max_len is None
        super().__init__(_same, _same if unchecked else self._check)
        self.width = width
        self.max_len = max_len

    def _check(self, payload: bytes) -> bytes:
        if self.width is not None and len(payload) != self.width:
            raise DecodeError(
                f"field must be {self.width} bytes, got {len(payload)}")
        if self.max_len is not None and len(payload) > self.max_len:
            raise DecodeError(f"field exceeds its {self.max_len}-byte limit")
        return payload


def raw(width: int | None = None, max_len: int | None = None) -> Raw:
    return Raw(width, max_len)


class Packed(Kind):
    """One fixed-width number, packed by `struct`."""

    def __init__(self, fmt: str) -> None:
        self.struct = struct.Struct(fmt)
        super().__init__(self.struct.pack, self._unpack)

    def _unpack(self, payload: bytes):
        if len(payload) != self.struct.size:
            raise DecodeError(
                f"field has wrong width for {self.struct.format!r}")
        return self.struct.unpack(payload)[0]


def _decode_str(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("field is not valid utf-8") from exc


RAW = Raw()
U16 = Packed("<H")
U64 = Packed("<Q")
STR = Kind(str.encode, _decode_str)


def nested(cls) -> Kind:
    """A Record (or any class with to_bytes/from_bytes) inside a field."""
    return Kind(cls.to_bytes, cls.from_bytes)


def _field_error(buf, pos: int, tag: int | None = None) -> DecodeError:
    """The error for bad bytes at `pos`, shared by FieldReader and
    Spec.unpack: trailing bytes when no field is expected there (tag
    None), else the first fault of the field's header, checked in the
    reader's order: header, tag, then length."""
    if tag is None:
        return DecodeError(f"{len(buf) - pos} trailing bytes")
    if pos + _HEADER.size > len(buf):
        return DecodeError(f"truncated field header at offset {pos}")
    got, length = _HEADER.unpack_from(buf, pos)
    if got != tag:
        return DecodeError(f"expected tag 0x{tag:04x}, found 0x{got:04x}")
    if pos + _HEADER.size + length > len(buf):
        return DecodeError(f"field 0x{tag:04x} runs past end of buffer")
    raise AssertionError(f"field 0x{tag:04x} at offset {pos} is well formed")


class Spec:
    """The ordered (tag, attribute, kind) fields of one structure.

    encode takes a mapping from attribute to value, or a Record, whose
    fields it reads as attributes: a record is a slotted dataclass, with
    no __dict__ for vars() to read. unpack returns the values as a tuple
    in field order and decode as a dict.
    """

    def __init__(self, *fields: tuple) -> None:
        self.fields = fields
        self.attrs = tuple(attr for _tag, attr, _kind in fields)
        # each field's kind functions, None where one is the identity, so
        # the loops skip the call for plain bytes
        self._steps = tuple(
            (tag, attr, None if kind.encode is _same else kind.encode,
             None if kind.decode is _same else kind.decode)
            for tag, attr, kind in fields)

    def encode(self, values) -> bytes:
        parts, pack = [], _HEADER.pack
        record = isinstance(values, Record)
        for tag, attr, encode, _decode in self._steps:
            value = getattr(values, attr) if record else values[attr]
            payload = value if encode is None else encode(value)
            parts += (pack(tag, len(payload)), payload)
        return b"".join(parts)

    def unpack(self, buf: bytes) -> tuple:
        values, pos, n = [], 0, len(buf)
        size, header = _HEADER.size, _HEADER.unpack_from
        for tag, _attr, _encode, decode in self._steps:
            if pos + size > n:
                raise _field_error(buf, pos, tag)
            got, length = header(buf, pos)
            start = pos + size
            end = start + length
            if got != tag or end > n:
                raise _field_error(buf, pos, tag)
            payload = buf[start:end]
            values.append(payload if decode is None else decode(payload))
            pos = end
        if pos != n:
            raise _field_error(buf, pos)
        return tuple(values)

    def decode(self, raw_bytes: bytes) -> dict:
        return dict(zip(self.attrs, self.unpack(raw_bytes)))


class Record:
    """Base for a dataclass whose bytes are declared by its class-level
    SPEC, one entry per dataclass field, in field order."""

    __slots__ = ()
    SPEC: Spec

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        spec = vars(cls).get("SPEC")
        # from_bytes passes the decoded values positionally
        if spec is not None and tuple(inspect.get_annotations(cls)) != spec.attrs:
            raise TypeError(f"{cls.__name__} fields are not its SPEC entries "
                            f"{spec.attrs} in order")

    def to_bytes(self) -> bytes:
        return self.SPEC.encode(self)

    @classmethod
    def from_bytes(cls, raw_bytes: bytes):
        return cls(*cls.SPEC.unpack(raw_bytes))


def b64url_encode(data: bytes) -> str:
    """Base64url without padding, as used by the token format."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64url_decode(text: str) -> bytes:
    pad = -len(text) % 4
    try:
        return base64.urlsafe_b64decode(text + "=" * pad)
    except (ValueError, TypeError) as exc:
        raise DecodeError("invalid base64url segment") from exc
