"""Pluggable array backend for the compiled simulation engine.

The compiled form of a circuit is "a ``(n_nets, n_words)`` uint64 matrix plus
a levelized group schedule" — a shape that maps 1:1 onto GPU tensor
libraries.  This module abstracts the array namespace behind a tiny
:class:`ArrayBackend` protocol so one flag moves bit-parallel simulation,
sequential stepping, toggle tensors, and the trace-matmul path onto a
different array library:

* :class:`NumpyBackend` — the default; every call is a plain NumPy op, so
  the default path is *bit-identical* to the pre-shim engine (asserted by
  the backend-parity tests).
* :class:`CupyBackend` — auto-detected, import-guarded.  Value matrices
  live on the GPU; NumPy's ``__array_ufunc__``/``__array_function__``
  protocols dispatch the group-schedule ufuncs to CuPy kernels, and the
  only host<->device traffic is the packed pattern words in and the packed
  watched rows out (packing/unpacking itself stays on the host, where
  ``np.packbits`` is already memory-bound).

Selection
---------
``get_backend(None)`` resolves, in order: an explicit
``set_default_backend`` call, the ``REPRO_ARRAY_BACKEND`` environment
variable, then ``"numpy"``.  :func:`repro.sim.compiled.compile_circuit`
accepts a ``backend=`` override per compile; everything downstream
(simulators, fault engines, trace generation) inherits the backend of the
compiled form it runs on.

Word-level constants
--------------------
This module is also the single home of the 64-bit word constants that were
historically re-declared per module; :mod:`repro.sim.bitsim` re-exports
them as the stable public import point (``WORD_BITS``, ``ALL_ONES``,
``FULL_MASK``).

Enforcement
-----------
This module is the declared backend boundary for ``repro lint``'s routing
rules (RPR301/RPR302): kernel packages may use ``np.<attr>`` only from the
frozen host-side surface (dtypes, pack/unpack, staging, host stats), and
device compute must reach arrays through this shim.  Inside this file the
whitelist does not apply — it *is* the numpy side of the boundary.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

import numpy as np

#: Patterns per simulation word (one uint64 per 64 patterns).
WORD_BITS = 64

#: All 64 bits set, as the uint64 scalar used in vectorized inversions.
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: All 64 bits set, as a Python int (for arbitrary-precision word walks).
FULL_MASK = (1 << WORD_BITS) - 1

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_ARRAY_BACKEND"


class ArrayBackend:
    """Array-namespace + transfer protocol the compiled engine runs on.

    ``xp`` is the numpy-like module (``numpy``/``cupy``); value matrices are
    allocated through it.  ``asarray`` moves host data *to* the backend,
    ``to_numpy`` brings backend data back to host memory.  For the NumPy
    backend both transfers are identity (no copies), which is what keeps the
    default path bit-identical to the pre-shim engine.
    """

    name: str = "abstract"
    xp = None

    def asarray(self, array, dtype=None):
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrayBackend {self.name}>"


class NumpyBackend(ArrayBackend):
    """The default backend: plain NumPy, zero-copy transfers."""

    name = "numpy"
    xp = np

    def asarray(self, array, dtype=None):
        return np.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)


class CupyBackend(ArrayBackend):
    """CuPy-on-GPU backend; constructed only when ``import cupy`` succeeds."""

    name = "cupy"

    def __init__(self) -> None:
        import cupy  # guarded by available_backends() / get_backend()

        self.xp = cupy

    def asarray(self, array, dtype=None):
        return self.xp.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return self.xp.asnumpy(array)


_BACKENDS: Dict[str, ArrayBackend] = {}
_DEFAULT: Optional[ArrayBackend] = None


def _cupy_importable() -> bool:
    try:
        import cupy  # noqa: F401
    except Exception:  # ImportError, and CUDA driver failures at import time
        return False
    return True


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend` on this machine."""
    names = ["numpy"]
    if _cupy_importable():
        names.append("cupy")
    return names


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve a backend by name (``None`` = the process default).

    Unknown or unavailable names raise ``ValueError`` with the available
    choices, so a missing CuPy install fails loudly at selection time rather
    than deep inside a simulation.
    """
    if name is None:
        return get_default_backend()
    cached = _BACKENDS.get(name)
    if cached is not None:
        return cached
    if name == "numpy":
        backend: ArrayBackend = NumpyBackend()
    elif name == "cupy":
        if not _cupy_importable():
            raise ValueError(
                "array backend 'cupy' requested but cupy is not importable "
                f"here; available: {available_backends()}"
            )
        backend = CupyBackend()
    else:
        raise ValueError(
            f"unknown array backend {name!r}; available: {available_backends()}"
        )
    _BACKENDS[name] = backend
    return backend


def get_default_backend() -> ArrayBackend:
    """The process-wide default: ``set_default_backend`` > env var > numpy."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = get_backend(os.environ.get(ENV_VAR) or "numpy")
    return _DEFAULT


def set_default_backend(backend: Union[str, ArrayBackend, None]) -> None:
    """Override the process default (``None`` re-reads the environment)."""
    global _DEFAULT
    if backend is None or isinstance(backend, ArrayBackend):
        _DEFAULT = backend
    else:
        _DEFAULT = get_backend(backend)


def resolve_backend(
    backend: Union[str, ArrayBackend, None]
) -> ArrayBackend:
    """Normalize a ``backend=`` argument: name, instance, or None (default)."""
    if backend is None:
        return get_default_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)
