"""Canonical tag-length-value byte encoding.

Every structure that gets signed, hashed, or put on the wire is serialized
the same way: a little-endian u16 field tag, a little-endian u32 payload
length, then the payload. Integers inside payloads are little-endian too.

Each structure declares its layout once, as a Spec: ordered (tag,
attribute, kind) entries. A kind is RAW bytes (raw() adds a fixed width
or a maximum length), U16, U64, STR (utf-8), a Kind made from an
encode/decode pair (such as the PCR bitmap), nested() for a structure
inside a field, or a Spec for a nested record.

When a Spec is built it generates, with exec, one straight-line encode
and one decode function for its fields, as dataclasses and namedtuple do
for their methods. The generated code is a cache of the Spec, not a
second statement of the layout: read it as `spec.source`; tracebacks
name it `<Spec ClassName>`. FieldWriter and FieldReader are the
one-field-at-a-time form of the same rules.

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
        super().__init__(_same, self._check)
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


def _field_error(buf, pos: int, tag: int | None = None,
                 kind: Kind = RAW) -> DecodeError:
    """The error for bad bytes at `pos`, shared by FieldReader and the
    generated decoders: trailing bytes when no field is expected there
    (tag None), else the first fault of the field, checked in the reader's
    order: header, tag, length, then the kind's own payload check."""
    if tag is None:
        return DecodeError(f"{len(buf) - pos} trailing bytes")
    if pos + _HEADER.size > len(buf):
        return DecodeError(f"truncated field header at offset {pos}")
    got, length = _HEADER.unpack_from(buf, pos)
    if got != tag:
        return DecodeError(f"expected tag 0x{tag:04x}, found 0x{got:04x}")
    start = pos + _HEADER.size
    if start + length > len(buf):
        return DecodeError(f"field 0x{tag:04x} runs past end of buffer")
    try:
        kind.decode(buf[start:start + length])
    except DecodeError as exc:
        return exc
    raise AssertionError(f"field 0x{tag:04x} at offset {pos} is well formed")


def _generate(fields) -> tuple[str, dict]:
    """Source of a factory `generated(**names)` that returns one encode and
    one decode function for `fields`, and the names to call it with.
    encode takes a mapping from attribute to value; decode returns the
    values as a tuple in field order."""
    names = {"pack": _HEADER.pack, "header": _HEADER.unpack_from,
             "bad": _field_error}
    size = _HEADER.size
    enc = ["def encode(values):"]
    dec = ["def decode(buf):", "    n = len(buf)", "    p = 0"]
    parts: list[str] = []   # the pieces of the output, in order
    for i, (tag, attr, kind) in enumerate(fields):
        # encode: `call` names the function making a value's payload (none
        # for bytes), `head` is the header when the payload's width is
        # fixed; decode: `check` adds the width test to the header's, and
        # `value` reads the payload at buf[s:p]
        call, head, check, err = "", None, "", ""
        if isinstance(kind, Raw):
            value = "buf[s:p]"
            if kind.width is not None:
                check += f" or m != {kind.width}"
            if kind.max_len is not None:
                check += f" or m > {kind.max_len}"
        else:
            call = f"e{i}"
            names[call] = kind.encode
            if isinstance(kind, Packed):
                head = repr(_HEADER.pack(tag, kind.struct.size))
                names[f"d{i}"] = kind.struct.unpack_from
                value = f"d{i}(buf, s)[0]"
                check = f" or m != {kind.struct.size}"
            else:
                names[f"d{i}"] = kind.decode
                value = f"d{i}(buf[s:p])"
        if check:
            names[f"k{i}"] = kind
            err = f", k{i}"
        enc.append(f"    x{i} = {call}(values[{attr!r}])")
        parts += [head or f"pack({tag}, len(x{i}))", f"x{i}"]
        dec += [f"    if p + {size} > n: raise bad(buf, p, {tag}{err})",
                "    t, m = header(buf, p)",
                f"    s = p + {size}",
                "    p = s + m",
                f"    if t != {tag} or p > n{check}:"
                f" raise bad(buf, s - {size}, {tag}{err})",
                f"    v{i} = {value}"]
    enc.append(f"    return b''.join([{', '.join(parts)}])")
    dec += ["    if p != n: raise bad(buf, p)",
            f"    return ({''.join(f'v{i}, ' for i in range(len(fields)))})"]
    # one factory takes the names as arguments, so the two functions read
    # them from closure cells and not from a globals dict
    lines = [f"def generated({', '.join(names)}):"]
    lines += ["    " + line for line in enc + dec]
    lines.append("    return encode, decode")
    return "\n".join(lines) + "\n", names


class Spec(Kind):
    """The ordered (tag, attribute, kind) fields of one structure.

    encode takes a mapping from attribute to value; unpack returns the
    values as a tuple in field order and decode as a dict. Both run the
    code generated from the fields. A Spec is itself a kind, for a record
    nested in a field.
    """

    def __init__(self, *fields: tuple) -> None:
        self.fields = fields
        self.attrs = tuple(attr for _tag, attr, _kind in fields)
        source, names = _generate(fields)
        namespace: dict = {}
        exec(compile(source, f"<Spec {','.join(self.attrs)}>", "exec"),
             namespace)
        # popped, so the factory and its code do not outlive this call
        self.encode, self.unpack = namespace.pop("generated")(**names)

    @property
    def source(self) -> str:
        """The code the two functions were compiled from, for readers."""
        return _generate(self.fields)[0]

    def __set_name__(self, owner, name: str) -> None:
        # a spec declared on a class is named after it in tracebacks
        label = owner.__name__ if name == "SPEC" else f"{owner.__name__}.{name}"
        for function in (self.encode, self.unpack):
            function.__code__ = function.__code__.replace(
                co_filename=f"<Spec {label}>")

    def decode(self, raw_bytes: bytes) -> dict:
        return dict(zip(self.attrs, self.unpack(raw_bytes)))


class Record:
    """Base for a dataclass whose bytes are declared by its class-level
    SPEC, one entry per dataclass field, in field order."""

    SPEC: Spec

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        spec = vars(cls).get("SPEC")
        # from_bytes passes the decoded values positionally
        if spec is not None and tuple(inspect.get_annotations(cls)) != spec.attrs:
            raise TypeError(f"{cls.__name__} fields are not its SPEC entries "
                            f"{spec.attrs} in order")

    def to_bytes(self) -> bytes:
        return self.SPEC.encode(vars(self))

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
