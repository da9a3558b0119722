"""The serving wire codec (``repro.serve.codec``).

One frame format shared by every process boundary in the serving stack
— the asyncio TCP frontend, the blocking :class:`ServeClient`, and the
shard IPC links (:mod:`repro.serve.shard`)::

    frame   := u32_be header_len | header_json | u32_be payload_len | payload
    header  := JSON object (utf-8)
    payload := numpy ``.npy`` bytes (may be empty)

Both segments are bounded by :data:`MAX_SEGMENT` (64 MiB) in *both*
directions: a reader rejects an oversized length prefix before
allocating, and :func:`encode_frame` refuses to emit one — either way
the failure is a typed :class:`~repro.errors.ServeError`, never a
silent truncation.

``encode_payload`` takes the single-copy path for C-contiguous arrays:
the ``.npy`` header is rendered directly and the array's buffer is
joined in without the ``np.save``-into-``BytesIO`` round trip (which
copies the data twice — once into the stream, once out of it).
Non-contiguous or otherwise unusual arrays fall back to ``np.save``.
``decode_payload`` mirrors it without ``np.load``: it parses the version
1.0 header of a numeric or boolean array strictly, with a regular
expression, and copies the data out with ``np.frombuffer``.  Any other
payload is rejected with a ``ValueError``.  (``np.load`` parses headers
with ``ast.literal_eval``, which CPython 3.11 does not support on two
threads at once.)

Control messages that carry *several* arrays (shard registry sync,
recorded-batch shipping) use :func:`encode_arrays` — a flat sequence of
length-prefixed ``name | npy`` records, so state-dict keys with dots
survive where ``np.savez``'s kwargs would not.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import re
import socket
import struct
from typing import Mapping

import numpy as np

from repro.errors import ServeError

__all__ = [
    "MAX_SEGMENT",
    "decode_arrays",
    "decode_payload",
    "encode_arrays",
    "encode_frame",
    "encode_payload",
    "read_frame",
    "read_frame_sync",
    "recv_exactly",
]

_LEN = struct.Struct(">I")

#: Largest accepted header or payload, a sanity bound against garbage
#: frames (64 MiB covers any realistic batch of image samples here).
MAX_SEGMENT = 64 * 1024 * 1024


def encode_payload(array: np.ndarray | None) -> bytes:
    """``.npy`` bytes for ``array`` (empty bytes for ``None``).

    C-contiguous arrays render the ``.npy`` header directly and join
    the array's own buffer — one copy, into the returned bytes —
    instead of round-tripping through ``np.save`` on a ``BytesIO``.
    """
    if array is None:
        return b""
    array = np.asarray(array)
    if array.flags.c_contiguous and not array.dtype.hasobject:
        try:
            head = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                head, np.lib.format.header_data_from_array_1_0(array)
            )
            return b"".join((head.getvalue(), memoryview(array).cast("B")))
        except (TypeError, ValueError):
            pass  # 0-d and zero-size views cannot cast; np.save handles them
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER_LEN = struct.Struct("<H")
#: np.load's default ``max_header_size``; longer headers are rejected.
_NPY_MAX_HEADER = 10000
#: The header ``np.lib.format`` writes for a numeric or boolean dtype.
_NPY_HEADER = re.compile(
    r"\{'descr': '([<>|][biufc]\d+)', 'fortran_order': (True|False), "
    r"'shape': (\(\)|\(\d+,\)|\(\d+(?:, \d+)+\)), \} *\n"
)


def decode_payload(payload: bytes) -> np.ndarray | None:
    """Inverse of :func:`encode_payload` for numeric and boolean arrays.

    Raises ``ValueError`` for anything else: a bad magic string, an
    oversized or unparsable header, a non-numeric dtype (object dtypes
    included), or data that is truncated or runs past the array.
    """
    if not payload:
        return None
    start = len(_NPY_MAGIC) + _NPY_HEADER_LEN.size
    if len(payload) < start or not payload.startswith(_NPY_MAGIC):
        raise ValueError("payload is not a version 1.0 .npy array")
    (header_len,) = _NPY_HEADER_LEN.unpack_from(payload, len(_NPY_MAGIC))
    if header_len > _NPY_MAX_HEADER:
        raise ValueError(f".npy header of {header_len} bytes is too long")
    match = _NPY_HEADER.fullmatch(payload[start : start + header_len].decode("latin-1"))
    if match is None:
        raise ValueError(".npy header is not that of a numeric array")
    descr, fortran_order, shape_text = match.groups()
    try:
        dtype = np.dtype(descr)
    except TypeError as exc:
        raise ValueError(f"unknown .npy dtype {descr!r}") from exc
    shape = tuple(int(dim) for dim in shape_text[1:-1].split(",") if dim)
    count = math.prod(shape)
    offset = start + header_len
    if len(payload) != offset + count * dtype.itemsize:
        raise ValueError(
            f".npy data is {len(payload) - offset} bytes, "
            f"expected {count * dtype.itemsize}"
        )
    # Copied so the array owns writable memory, as np.load returns it.
    flat = np.frombuffer(payload, dtype, count=count, offset=offset).copy()
    return flat.reshape(shape, order="F" if fortran_order == "True" else "C")


def encode_arrays(arrays: "Mapping[str, np.ndarray]") -> bytes:
    """Pack named arrays into one payload (state dicts, batch shipments)."""
    parts: list[bytes] = []
    for name, array in arrays.items():
        label = name.encode("utf-8")
        blob = encode_payload(np.asarray(array))
        parts.extend((_LEN.pack(len(label)), label, _LEN.pack(len(blob)), blob))
    return b"".join(parts)


def decode_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_arrays`, preserving insertion order."""
    view = memoryview(payload)
    offset = 0
    arrays: dict[str, np.ndarray] = {}
    while offset < len(view):
        if offset + _LEN.size > len(view):
            raise ServeError("array payload truncated mid-record")
        (length,) = _LEN.unpack_from(view, offset)
        offset += _LEN.size
        if offset + length > len(view):
            raise ServeError("array payload truncated mid-record")
        name = bytes(view[offset : offset + length]).decode("utf-8")
        offset += length
        if offset + _LEN.size > len(view):
            raise ServeError("array payload truncated mid-record")
        (length,) = _LEN.unpack_from(view, offset)
        offset += _LEN.size
        if offset + length > len(view):
            raise ServeError("array payload truncated mid-record")
        arrays[name] = decode_payload(bytes(view[offset : offset + length]))
        offset += length
    return arrays


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """One wire frame: length-prefixed JSON header + length-prefixed payload."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    for segment, what in ((head, "header"), (payload, "payload")):
        if len(segment) > MAX_SEGMENT:
            raise ServeError(
                f"frame {what} of {len(segment)} bytes exceeds {MAX_SEGMENT}"
            )
    return b"".join((_LEN.pack(len(head)), head, _LEN.pack(len(payload)), payload))


def _checked_length(raw: bytes, what: str) -> int:
    (length,) = _LEN.unpack(raw)
    if length > MAX_SEGMENT:
        raise ServeError(f"frame {what} of {length} bytes exceeds {MAX_SEGMENT}")
    return length


def _parse_header(head: bytes) -> dict:
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ServeError(f"frame header must be a JSON object, got {header!r}")
    return header


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict, bytes] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        raw = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError("connection closed mid-frame") from exc
    try:
        head = await reader.readexactly(_checked_length(raw, "header"))
        header = _parse_header(head)
        raw = await reader.readexactly(_LEN.size)
        payload = await reader.readexactly(_checked_length(raw, "payload"))
    except asyncio.IncompleteReadError as exc:
        raise ServeError("connection closed mid-frame") from exc
    return header, payload


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ServeError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> tuple[dict, bytes]:
    head = recv_exactly(sock, _checked_length(recv_exactly(sock, _LEN.size), "header"))
    header = _parse_header(head)
    payload = recv_exactly(
        sock, _checked_length(recv_exactly(sock, _LEN.size), "payload")
    )
    return header, payload
