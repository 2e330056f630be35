"""Dense double-precision numeric primitives shared by every other module.

Conventions used throughout the package:

* all numeric containers are C-contiguous ``float64`` numpy arrays
  (vectors are 1-D, matrices 2-D, row-major);
* randomness always flows through a seeded ``numpy.random.Generator``
  backed by PCG64, created via :func:`make_rng`, so every experiment is
  reproducible from its recorded seed;
* JSON persistence stores matrices as ``{"rows", "cols", "values"}`` with
  values listed in row-major order.  Python's ``json`` round-trips float64
  exactly (repr-based encoding), so save/load is bit-exact.  Documents are
  written with sorted keys, indented (reports) or on one line (programs;
  see :func:`dump_json`).
"""

from __future__ import annotations

import json
import math

import numpy as np

# Identifier of the RNG algorithm, recorded in reports so a rerun can verify
# it is replaying the same stream.
RNG_ALGORITHM = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide deterministic RNG for a given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def as_vector(values) -> np.ndarray:
    """Coerce to a 1-D float64 array (copies only when needed)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return np.ascontiguousarray(v)


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 row-major array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


def softmax(v) -> np.ndarray:
    """Numerically safe softmax over the last axis of a vector or matrix
    (each row of a matrix normalized independently).

    Implemented with max-subtraction, which makes the result invariant under
    adding a constant to every entry and keeps ``exp`` away from overflow:
    entries of 1e4 are fine even though ``exp(1e4)`` itself would overflow.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError(f"softmax needs a non-empty last axis of a vector "
                         f"or matrix, got shape {v.shape}")
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def flatten_raster(m) -> np.ndarray:
    """Flatten a matrix to a vector in raster (row-major) order."""
    return np.ascontiguousarray(as_matrix(m).ravel(order="C"))


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def leaky_relu(x, slope: float = 0.2) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, slope * x)


def elu(x) -> np.ndarray:
    """Exponential linear unit: x for x >= 0, exp(x) - 1 below."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0)))


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "identity": lambda x: np.asarray(x, dtype=np.float64),
}


def activation_fn(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None


def gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of iid standard normal entries drawn from the given generator."""
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    return rng.standard_normal((rows, cols))


def spectral_norm(m) -> float:
    """Largest singular value (operator 2-norm)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def binom(n: int, k: int) -> int:
    """Exact integer binomial coefficient."""
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# JSON weight encoding, shared by the mlp / attention / mpnnvn persistence.
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"cannot encode array of ndim {m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "values": m.ravel(order="C").tolist(),
    }


def require_object(blob, what: str) -> dict:
    """``blob``, which must be a JSON object (``ValueError`` if not)."""
    if not isinstance(blob, dict):
        raise ValueError(
            f"{what} payload must be an object, got {type(blob).__name__}")
    return blob


def require_keys(blob, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``blob``; ``ValueError``
    names ``what`` when ``blob`` is no object, and every key it lacks."""
    missing = [key for key in keys if key not in require_object(blob, what)]
    if missing:
        raise ValueError(f"{what} payload has no {', '.join(missing)}")
    return [blob[key] for key in keys]


# the JSON values a scalar of each type accepts (a bool is no int here)
_JSON_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string")}


def scalar_from_json(value, tp, what: str = "value"):
    """A JSON scalar read as ``tp`` (int, float or str); ``ValueError``
    names ``what`` and the value when it is anything else or not finite."""
    accepted, name = _JSON_SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{what} must be {name}, got {value!r}")
    try:
        value = tp(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{what} {value!r} is out of range") from None
    if tp is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def seed_from_json(blob: dict, what: str) -> int | None:
    """The provenance ``seed`` of a weight blob: an integer >= 0 or null.

    The seed means something only under the generator it was drawn with,
    so an ``rng_algorithm`` other than ``RNG_ALGORITHM`` is refused rather
    than re-saved under the wrong name.
    """
    algorithm = blob.get("rng_algorithm", RNG_ALGORITHM)
    if algorithm != RNG_ALGORITHM:
        raise ValueError(f"{what} rng_algorithm must be {RNG_ALGORITHM!r}, "
                         f"got {algorithm!r}")
    seed = blob.get("seed")
    if seed is None:
        return None
    seed = scalar_from_json(seed, int, f"{what} seed")
    if seed < 0:
        raise ValueError(f"{what} seed must be at least 0, got {seed}")
    return seed


def matrix_from_json(d: dict) -> np.ndarray:
    """Read a blob written by :func:`matrix_to_json`; a malformed one (not
    an object, a key missing, a non-integer size, non-list values, a value
    that is not finite) raises ``ValueError``, naming the first bad value."""
    rows, cols, values = require_keys(d, "matrix", "rows", "cols", "values")
    if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 0
               for k in (rows, cols)):
        raise ValueError(f"matrix payload size must be two non-negative "
                         f"integers, got rows={rows!r}, cols={cols!r}")
    if not isinstance(values, list):
        raise ValueError(f"matrix payload values must be a list, got "
                         f"{type(values).__name__}")
    values = np.asarray(values, dtype=np.float64)
    if values.size != rows * cols:
        raise ValueError(
            f"matrix payload has {values.size} values, expected {rows}x{cols}"
        )
    return check_finite(values.reshape(rows, cols), "matrix payload")


def vector_to_json(v: np.ndarray) -> dict:
    return matrix_to_json(np.asarray(v, dtype=np.float64).reshape(1, -1))


def vector_from_json(d: dict) -> np.ndarray:
    m = matrix_from_json(d)
    if m.shape[0] != 1:
        raise ValueError("vector payload must have a single row")
    return np.ascontiguousarray(m[0])


def dump_json(obj, path, *, compact: bool = False) -> None:
    """Write a JSON document with sorted keys, so equal values give equal bytes.

    The caller picks the layout.  By default the document is indented by two
    spaces, which is how every CLI report is written.  ``compact=True``
    writes it on one line with no space after ``,`` or ``:``; ``json`` then
    encodes it in C rather than in Python, which is what makes saving a
    long program cheap.  Either layout ends with a newline, and
    :func:`load_json` reads both.

    The document is encoded before ``path`` is opened, so a value ``json``
    cannot encode raises without creating or truncating the file.
    """
    if compact:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def max_abs_diff(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def check_finite(arr, label: str = "array") -> np.ndarray:
    """``arr`` as float64; a non-finite entry raises ``ValueError`` naming
    the first one (in row-major order) by its (row, column), or its index
    in a vector."""
    arr = np.asarray(arr, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{label} contains non-finite entries, the first "
                         f"{arr[at]} at {at[0] if arr.ndim == 1 else at}")
    return arr
