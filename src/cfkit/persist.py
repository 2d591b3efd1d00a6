"""Versioned binary model container with an embedded textual header.

Layout: the magic line ``CFKIT-MODEL 1``, an 8-byte little-endian header
length, a canonical JSON header (sorted keys, no whitespace), then the
raw little-endian float64 array payload.  Arrays are restored bit for bit,
so a loaded model reproduces scores exactly; two saves of the same model
produce identical bytes (no timestamps are stored).
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .christoffel import ChristoffelEvaluator, ThresholdPolicy
from .classifier import ClassifierModel
from .datasets import AffineTransform
from .errors import DataError
from .multiindex import enumerate_basis

_MAGIC = b"CFKIT-MODEL 1\n"


def save_model(model: ClassifierModel, path, metadata: dict | None = None) -> None:
    """Serialize a fitted model; ``metadata`` lands in the header as-is."""
    arrays: list[tuple[str, np.ndarray]] = [
        ("transform_center", model.transform.center),
        ("transform_scale", model.transform.scale),
        ("train_score_floor", model.train_score_floor),
    ]
    classes = []
    for k, ev in enumerate(model.evaluators, start=1):
        arrays.append((f"eigenvalues_{k}", ev.eigenvalues))
        arrays.append((f"eigenvectors_{k}", ev.eigenvectors))
        classes.append(
            {"threshold": ev.threshold, "mass": ev.mass, "rank": ev.rank}
        )
    manifest = []
    offset = 0
    blobs = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        raw = arr.tobytes()
        manifest.append(
            {"name": name, "shape": list(arr.shape), "offset": offset}
        )
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format": 1,
        "n": model.n,
        "m": model.m,
        "degree": model.degree,
        "basis": {"kind": "plain", "n": model.n, "t": model.degree},
        "policy": {"mode": model.policy.mode, "value": model.policy.value},
        "class_prior_weights": model.class_prior_weights,
        "reject_threshold": model.reject_threshold,
        "classes": classes,
        "arrays": manifest,
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(header_bytes)
        for raw in blobs:
            handle.write(raw)


def load_model(path) -> ClassifierModel:
    """Reconstruct a model saved by :func:`save_model`."""
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
        payload = handle.read()
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + 8 * count > len(payload):
            raise DataError(f"{path}: truncated model file")
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        arrays[entry["name"]] = data.reshape(shape).copy()
    policy = ThresholdPolicy(
        mode=header["policy"]["mode"], value=header["policy"]["value"]
    )
    basis = enumerate_basis(header["n"], header["degree"])
    evaluators = []
    for k, info in enumerate(header["classes"], start=1):
        evaluators.append(
            ChristoffelEvaluator(
                basis=basis,
                eigenvalues=arrays[f"eigenvalues_{k}"],
                eigenvectors=arrays[f"eigenvectors_{k}"],
                threshold=info["threshold"],
                mass=info["mass"],
                policy=policy,
            )
        )
    transform = AffineTransform(
        center=arrays["transform_center"], scale=arrays["transform_scale"]
    )
    return ClassifierModel(
        m=header["m"],
        degree=header["degree"],
        evaluators=evaluators,
        transform=transform,
        policy=policy,
        class_prior_weights=header["class_prior_weights"],
        reject_threshold=header["reject_threshold"],
        train_score_floor=arrays["train_score_floor"],
    )


def load_metadata(path) -> dict:
    """Read only the JSON header of a model file."""
    with open(path, "rb") as handle:
        return _read_header(handle, path)


def _read_header(handle, path) -> dict:
    """Read the magic line, the header length and the JSON header."""
    if handle.read(len(_MAGIC)) != _MAGIC:
        raise DataError(f"{path}: not a cfkit model file")
    try:
        (header_len,) = struct.unpack("<Q", handle.read(8))
        return json.loads(handle.read(header_len).decode())
    except (struct.error, ValueError):
        raise DataError(f"{path}: truncated model file") from None


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
