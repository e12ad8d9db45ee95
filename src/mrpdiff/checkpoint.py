"""Binary tensor container ("MRPC" format).

Layout: magic bytes "MRPC", format version as 4-byte little-endian
unsigned int, 8-byte little-endian header length, UTF-8 JSON header
listing tensor records (name, shape, dtype "f32", byte offset into the
payload section), then raw little-endian float32 payloads in header
order. Loading restores float64 compute copies.

Small config scalars ride along as ordinary single-element tensor
records (e.g. "backbone.config.d_model"), keeping checkpoints
self-describing without a second file format.

A parameter set (backbone or correction head) is saved as its config
fields in field order, then the tensors its ``named_tensors()`` lists, and
is loaded by filling a skeleton built from the config with those records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np

from .errors import InvalidConfigError, MissingArtifactError

MAGIC = b"MRPC"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length


def save_tensors(path: str, named: list[tuple[str, np.ndarray]]) -> None:
    records = []
    payloads = []
    offset = 0
    for name, arr in named:
        arr32 = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
        records.append(
            {"name": name, "shape": list(arr32.shape), "dtype": "f32", "offset": offset}
        )
        payloads.append(arr32.tobytes())
        offset += arr32.nbytes
    header = json.dumps(records, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
        f.write(header)
        for chunk in payloads:
            f.write(chunk)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read an MRPC file into {name: float64 array}.

    A file that is cut short, or whose header does not describe records
    that lie inside the payload, raises InvalidConfigError.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise MissingArtifactError(f"checkpoint not found: {path}") from None
    with f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise InvalidConfigError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < _PREAMBLE.size:
        raise InvalidConfigError(f"{path}: truncated before the header length")
    _, version, hlen = _PREAMBLE.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise InvalidConfigError(f"{path}: unsupported format version {version}")
    payload = _PREAMBLE.size + hlen
    if payload > len(raw):
        raise InvalidConfigError(f"{path}: {hlen}-byte header runs past the end of the file")
    try:
        records = [(rec["name"], [*rec["shape"]], rec["dtype"], rec["offset"])
                   for rec in json.loads(raw[_PREAMBLE.size:payload])]
    except (ValueError, KeyError, TypeError) as e:
        raise InvalidConfigError(f"{path}: malformed header: {e}") from None
    out = {}
    for name, shape, dtype, start in records:
        if dtype != "f32":
            raise InvalidConfigError(f"{path}: unsupported dtype {dtype!r}")
        if not all(isinstance(v, int) and v >= 0 for v in [start, *shape]):
            raise InvalidConfigError(f"{path}: record {name!r} has a malformed shape or offset")
        count = math.prod(shape)
        if payload + start + 4 * count > len(raw):
            raise InvalidConfigError(f"{path}: record {name!r} runs past the end of the file")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=payload + start)
        out[name] = arr.reshape(shape).astype(np.float64)
    return out


def _record(blob: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    arr = blob.get(name)
    if arr is None:
        raise InvalidConfigError(f"checkpoint has no record {name!r}")
    if arr.shape != shape:
        raise InvalidConfigError(
            f"checkpoint record {name!r} has shape {arr.shape}, expected {shape}"
        )
    return arr


def save_params(path: str, params) -> None:
    """Write `params.config` as one record per field, in field order, under
    `<params.PREFIX>.config.`, then every tensor `params.named_tensors()`
    lists. A field with "choices" metadata is stored as its value's index."""
    named = []
    for f in dataclasses.fields(params.config):
        value = getattr(params.config, f.name)
        if "choices" in f.metadata:
            value = f.metadata["choices"].index(value)
        named.append((f"{params.PREFIX}.config.{f.name}", np.asarray([value])))
    named += [(name, t.data) for name, t in params.named_tensors()]
    save_tensors(path, named)


def read_config(blob: dict[str, np.ndarray], prefix: str, cls):
    """Rebuild and validate the config dataclass `cls` that save_params wrote."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        name = f"{prefix}.config.{f.name}"
        (value,) = _record(blob, name, (1,))
        choices = f.metadata.get("choices")
        if not np.isfinite(value) or (choices and value not in range(len(choices))):
            raise InvalidConfigError(f"checkpoint record {name!r} holds invalid value {value}")
        if choices:
            kwargs[f.name] = choices[int(value)]
        elif isinstance(f.default, float):
            # config scalars are stored as f32 records; snap floats to 6
            # significant digits so values like 1e-6 round-trip exactly
            kwargs[f.name] = float(f"{value:.6g}")
        elif value != int(value):
            raise InvalidConfigError(f"checkpoint record {name!r} holds non-integral value {value}")
        else:
            kwargs[f.name] = int(value)
    cfg = cls(**kwargs)
    cfg.validate()
    return cfg


def check_shapes(blob: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """Raise InvalidConfigError unless each named record exists with its
    shape. A loader checks the sizes its config asks the skeleton to
    allocate this way before building it: a corrupt config record could
    otherwise ask for any amount of memory."""
    for name, shape in shapes.items():
        _record(blob, name, shape)


def check_layer_count(blob: dict[str, np.ndarray], prefix: str, n: int) -> None:
    """Raise InvalidConfigError unless the records under `<prefix>.<i>.`
    belong to exactly n layers i (the config's layer count, checked before
    a skeleton of that many layers is built)."""
    head = prefix + "."
    found = {name[len(head):].split(".", 1)[0] for name in blob if name.startswith(head)}
    if len(found) != n:
        raise InvalidConfigError(
            f"checkpoint config asks for {n} layers, but it holds records of "
            f"{len(found)} under {prefix!r}"
        )


class _Unfilled:
    """Stands in for a Generator when building a skeleton to load into:
    nothing is drawn, since `fill` replaces every tensor."""

    def normal(self, loc, scale, size):
        return np.empty(size)


UNFILLED = _Unfilled()


def fill(params, blob: dict[str, np.ndarray]):
    """Replace every tensor `params.named_tensors()` lists with its record;
    a missing record or one whose shape differs raises InvalidConfigError."""
    for name, t in params.named_tensors():
        t.data = _record(blob, name, t.data.shape)
    return params


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except FileNotFoundError:
        raise MissingArtifactError(f"file not found: {path}") from None
    return h.hexdigest()
