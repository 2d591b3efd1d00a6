"""Versioned binary model container with an embedded textual header.

Layout: the magic line ``CFKIT-MODEL 1``, an 8-byte little-endian header
length, a canonical JSON header (sorted keys, no whitespace), then the
raw little-endian float64 array payload.  Each class is stored in its
evaluator's form: ``eigenvalues_<k>`` and ``eigenvectors_<k>`` for the
eigen form, or ``factor_<k>``, the upper-triangular ridge factor at the
model's degree, for the ridge form.  Arrays are restored bit for bit,
so a loaded model reproduces scores exactly; two saves of the same model
produce identical bytes (no timestamps are stored).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .christoffel import ChristoffelEvaluator, RidgeEvaluator, ThresholdPolicy
from .classifier import ClassifierModel
from .datasets import AffineTransform
from .errors import DataError
from .multiindex import basis_dimension, enumerate_basis

_MAGIC = b"CFKIT-MODEL 1\n"


def save_model(model: ClassifierModel, path, metadata: dict | None = None) -> None:
    """Serialize a fitted model; ``metadata`` lands in the header as-is.

    The model must carry its training-score floors, as every model from
    ``fit`` does; one without them raises ValueError before any file is
    opened, since :func:`load_model` could not read it back.
    """
    floor = model.train_score_floor
    if floor is None:
        raise ValueError("model has no train_score_floor to save")
    arrays: list[tuple[str, np.ndarray]] = [
        ("transform_center", model.transform.center),
        ("transform_scale", model.transform.scale),
        ("train_score_floor", floor),
    ]
    classes = []
    for k, ev in enumerate(model.evaluators, start=1):
        if ev.factor is None:
            arrays.append((f"eigenvalues_{k}", ev.eigenvalues))
            arrays.append((f"eigenvectors_{k}", ev.eigenvectors))
        else:
            arrays.append((f"factor_{k}", ev.scoring))
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
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()
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
    try:
        return _model_from(header, payload, path)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise DataError(f"{path}: malformed model header") from None


def _model_from(header: dict, payload: bytes, path) -> ClassifierModel:
    """The model a header describes; a missing key or an ill-typed or
    out-of-range value raises KeyError, TypeError, ValueError or OverflowError."""
    n, m, degree = header["n"], header["m"], header["degree"]
    if not all(type(v) is int and v > 0 for v in (n, m, degree)):
        raise TypeError("n, m and degree must be positive integers")
    if len(header["classes"]) != m:
        raise ValueError("one class entry per class")
    if type(header["class_prior_weights"]) is not bool:
        raise TypeError("class_prior_weights must be a bool")
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
    transform = AffineTransform(
        center=arrays["transform_center"], scale=arrays["transform_scale"]
    )
    floor = arrays["train_score_floor"]
    if transform.center.shape != (n,) or transform.scale.shape != (n,):
        raise ValueError("transform shape does not match n")
    if floor.shape != (m,):
        raise ValueError("score floor shape does not match m")
    if not (np.isfinite(transform.center).all() and _positive(np.abs(transform.scale))):
        raise ValueError("transform must be finite with nonzero scales")
    if not (np.isfinite(floor).all() and (floor >= 0).all()):
        raise ValueError("score floor must be finite and >= 0")
    # Every shape is checked before the basis is built.  Each class has rank
    # >= 1 (M[0, 0] is its mass), so the basis size is bounded by stored
    # bytes.  That size C(n + degree, n) is above max(n, degree) and at least
    # 2 ** min(n, degree), so the first test keeps math.comb from running
    # long on a crafted header.
    factored = "factor_1" in arrays
    rows = len(arrays["factor_1" if factored else "eigenvectors_1"])
    if not (max(n, degree) < rows and min(n, degree) < rows.bit_length()):
        raise ValueError("n or degree is too large for the stored rows")
    if factored and policy.mode != "tikhonov":
        raise ValueError("a ridge factor needs a tikhonov policy")
    size = basis_dimension(n, degree)
    if factored:
        forms = [arrays[f"factor_{k}"] for k in range(1, m + 1)]
        for factor in forms:
            if factor.shape != (size, size) or not np.isfinite(factor).all():
                raise ValueError("factor must be a finite basis-size square")
            if np.tril(factor, -1).any() or not _positive(np.diag(factor)):
                raise ValueError("factor must be upper triangular with a diagonal > 0")
            factor.flags.writeable = False
    else:
        forms = [
            (arrays[f"eigenvalues_{k}"], arrays[f"eigenvectors_{k}"])
            for k in range(1, m + 1)
        ]
        for eigenvalues, eigenvectors in forms:
            expected = (size, eigenvalues.size)
            if eigenvalues.ndim != 1 or not eigenvalues.size or eigenvectors.shape != expected:
                raise ValueError("eigenvector shape does not match the basis")
            if not (_positive(eigenvalues) and np.isfinite(eigenvectors).all()):
                raise ValueError("eigenvalues must be finite and > 0, eigenvectors finite")
    basis = enumerate_basis(n, degree)
    evaluators = []
    for form, info in zip(forms, header["classes"]):
        threshold, mass = info["threshold"], info["mass"]
        if not (_number(threshold) and threshold >= 0 and _number(mass) and mass > 0):
            raise ValueError("class threshold must be a number >= 0, mass one > 0")
        if factored:
            if threshold != 0.0:
                raise ValueError("a ridge class has no threshold")
            evaluators.append(RidgeEvaluator(basis, form, mass))
        else:
            evaluators.append(ChristoffelEvaluator(basis, *form, threshold, mass))
    reject = header["reject_threshold"]
    if reject is not None and not _number(reject):
        raise ValueError("reject threshold must be a finite number")
    return ClassifierModel(
        m=m,
        degree=degree,
        evaluators=evaluators,
        transform=transform,
        policy=policy,
        class_prior_weights=header["class_prior_weights"],
        reject_threshold=None if reject is None else float(reject),
        train_score_floor=floor,
    )


def _number(value) -> bool:
    """Whether ``value`` is a finite JSON number; a bool is not one."""
    return type(value) in (int, float) and math.isfinite(value)


def _positive(values) -> bool:
    """Whether every entry of ``values`` is finite and > 0."""
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all((values > 0) & (values < np.inf)))


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
        header = json.loads(handle.read(header_len).decode())
    except (struct.error, ValueError):
        raise DataError(f"{path}: truncated model file") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: malformed model header")
    return header


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
