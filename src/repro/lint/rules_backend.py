"""R3 — backend discipline (RPR301..RPR302).

PR 7 put the compiled engine behind :mod:`repro.sim.backend`: one flag
moves bitsim, seqsim, fault simulation's good-value pass, toggle tensors,
and the trace matmul onto CuPy, and the numpy path stays bit-identical
(pinned CI leg).
That only holds while kernels obtain the array namespace from the compiled
form (``compiled.backend.xp``) instead of hard-wiring numpy.  Direct
``np.`` use in kernel packages is confined to the *host side*: dtype
constants and annotations, pack/unpack (packing is deliberately host-bound
— ``np.packbits`` is memory-bound there), schedule/index plumbing, and
statistics on arrays already brought back via ``backend.to_numpy``.

* **RPR301** — import shape: kernel modules must spell numpy exactly
  ``import numpy as np``.  ``from numpy import ...`` and other aliases
  hide numpy touchpoints from this analyzer and from reviewers.
* **RPR302** — ``np.<attr>`` outside the explicit host-side surface
  (:data:`~repro.lint.config.HOST_SIDE_NP_ATTRS`).  ``np.matmul`` /
  ``einsum`` / ``linalg`` / file I/O are the canonical violations: that
  work must ride the backend namespace so the GPU flag keeps meaning
  something.  The backend shim itself (``repro.sim.backend``) is the one
  declared boundary module and is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .config import (
    BACKEND_BOUNDARY_MODULES,
    HOST_SIDE_NP_ATTRS,
    KERNEL_PACKAGES,
)
from .context import ModuleContext, dotted_name
from .findings import Finding
from .registry import rule


def _in_kernel_scope(ctx: ModuleContext) -> bool:
    return (
        ctx.in_package(*KERNEL_PACKAGES)
        and ctx.module not in BACKEND_BOUNDARY_MODULES
    )


def _finding(ctx: ModuleContext, node: ast.AST, code: str, msg: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=msg,
        snippet=ctx.snippet(node),
    )


@rule(
    "RPR301",
    "numpy import shape in kernel modules",
    "backend bit-identity (PR 7): every numpy touchpoint in a kernel must "
    "be visible as `np.<attr>` to reviewers and to RPR302",
)
def check_numpy_import_shape(ctx: ModuleContext) -> Iterator[Finding]:
    if not _in_kernel_scope(ctx):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "numpy":
                    continue
                if alias.name == "numpy" and alias.asname == "np":
                    continue
                yield _finding(
                    ctx, node, "RPR301",
                    f"kernel modules import numpy exactly as `import numpy "
                    f"as np`, not `import {alias.name}"
                    + (f" as {alias.asname}`" if alias.asname else "`"),
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "numpy":
                yield _finding(
                    ctx, node, "RPR301",
                    "`from numpy import ...` hides numpy touchpoints in a "
                    "kernel module; use `import numpy as np` and qualify",
                )


@rule(
    "RPR302",
    "non-host-side numpy use in kernel modules",
    "backend bit-identity / GPU routing (PR 7): device-path work must "
    "obtain its array namespace from repro.sim.backend (compiled.backend.xp)",
)
def check_host_side_surface(ctx: ModuleContext) -> Iterator[Finding]:
    if not _in_kernel_scope(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
            continue
        if node.attr in HOST_SIDE_NP_ATTRS:
            continue
        yield _finding(
            ctx, node, "RPR302",
            f"`np.{node.attr}` is outside the host-side numpy surface for "
            "kernel modules; route it through the compiled form's backend "
            "namespace (`compiled.backend.xp`) or, if it is genuinely "
            "host-side, extend HOST_SIDE_NP_ATTRS in review",
        )
