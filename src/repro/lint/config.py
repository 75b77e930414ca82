"""Rule configuration: scopes, known-boundary sets, and the allowlist.

Two very different kinds of "allow" live here and must not be confused:

* **Structural boundaries** — frozen constants below that *define* the
  invariants (which calls are nondeterministic, which record fields are
  payload, which service module is the declared numeric boundary).
  These are part of the rules themselves: changing them is changing the
  repo's contract and belongs in review.
* **The suppression :class:`Allowlist`** — per-site escape hatches loaded
  from ``--allow`` files or inline ``# lint: allow[CODE]`` comments.  The
  shipped tree carries an **empty** allowlist: ``repro lint src/`` passes
  with zero suppressions, and CI keeps it that way.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Set, Tuple, Union

from .findings import Finding

# --------------------------------------------------------------------------
# R1 — seed discipline (protects PR 3's parallel==serial payload-bit-parity
# and PR 8's spec-hash cache soundness: every payload is a pure function of
# the spec because all randomness flows from derive_seed).
# --------------------------------------------------------------------------

#: The legacy module-level numpy RandomState API: process-global hidden
#: state, unseedable per-experiment, banned everywhere in library code.
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "bytes", "shuffle", "permutation", "normal",
    "uniform", "standard_normal", "binomial", "poisson", "exponential",
    "gamma", "beta", "lognormal", "laplace", "get_state", "set_state",
})

#: Names treated as RNG handles for the truthiness check.
RNG_NAME_RE = re.compile(r"^(rng|.*_rng)$")

# --------------------------------------------------------------------------
# R2 — payload purity (protects the same guarantees from the record side:
# nothing nondeterministic may reach ExperimentRecord payload fields).
# --------------------------------------------------------------------------

#: Dotted call names whose results differ between two runs of the same
#: spec.  Prefix entries ending in ``.`` match a whole namespace.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
    "os.getenv", "os.environ.get", "os.getpid", "os.getcwd", "os.uname",
    "socket.gethostname", "socket.getfqdn",
    "uuid.uuid1", "uuid.uuid4",
    "platform.", "secrets.",
})

#: Attribute/subscript keys that mark the *non-payload* diagnostics
#: sections of a record; copying them into payload fields is a violation.
RUNTIME_SECTION_KEYS = frozenset({"runtime", "traces"})

#: Record constructors and which of their arguments are the sanctioned
#: non-payload sinks.  ``cls`` covers classmethod bodies inside the record
#: class itself.  Positional indices are 0-based over the visible args.
RECORD_CONSTRUCTORS = {
    "ExperimentRecord": {"kwargs": {"runtime", "traces"}, "positions": set()},
    "ExperimentRecord.from_run": {"kwargs": {"runtime"}, "positions": {3}},
    "ExperimentRecord.failed": {"kwargs": set(), "positions": set()},
    "cls": {"kwargs": {"runtime", "traces"}, "positions": set()},
}

#: ``cls(...)`` only counts as a record construction inside these classes.
RECORD_CLASSES = frozenset({"ExperimentRecord"})

# --------------------------------------------------------------------------
# R4 — service hygiene (protects PR 8's deployability story — the fleet
# service runs on a bare interpreter — and its job-table consistency under
# the ThreadingHTTPServer handler threads).
# --------------------------------------------------------------------------

SERVICE_PACKAGE = "repro.service"

#: The columnar result store is the service's declared numeric boundary:
#: the only service module allowed to import numpy (per-column ``.npy``
#: compaction).  Everything else — server, client, protocol, cache — must
#: import stdlib and repro only, so ``repro serve`` deploys anywhere.
SERVICE_NUMERIC_BOUNDARY = frozenset({"repro.service.store"})

#: Third-party roots the numeric-boundary module may import.
SERVICE_BOUNDARY_IMPORTS = frozenset({"numpy"})

#: Method names that mutate their receiver in place (lock discipline
#: treats ``x.attr.append(...)`` as a store to ``attr``).
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "pop",
    "popleft", "popitem", "remove", "clear", "update", "setdefault",
    "add", "discard", "sort", "reverse",
})

#: Functions whose bodies run before any thread can see the object.
LOCK_EXEMPT_FUNCTIONS = frozenset({"__init__", "__post_init__", "__new__"})

#: Stdlib roots, for the service import rule.
STDLIB_MODULES = frozenset(sys.stdlib_module_names)


# --------------------------------------------------------------------------
# Suppression allowlist (ships empty)
# --------------------------------------------------------------------------

#: Inline escape hatch: ``some_code()  # lint: allow[RPR401]``.
INLINE_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Z0-9_,\s]+)\]")


@dataclass
class Allowlist:
    """Per-site suppressions: ``(path-suffix, code)`` pairs, optionally
    pinned to a line.  Loaded from a file of ``path:CODE`` /
    ``path:line:CODE`` lines (``#`` comments and blanks ignored)."""

    entries: Set[Tuple[str, str, int]] = field(default_factory=set)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Allowlist":
        entries: Set[Tuple[str, str, int]] = set()
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(":", 2)
            if len(parts) == 3 and parts[1].isdigit():
                entries.add((parts[0], parts[2], int(parts[1])))
            elif len(parts) >= 2:
                file_part = ":".join(parts[:-1])
                entries.add((file_part, parts[-1], 0))
            else:
                raise ValueError(
                    f"{path}:{lineno}: allowlist lines are path:CODE or "
                    f"path:line:CODE, got {line!r}"
                )
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def allows(self, finding: Finding) -> bool:
        norm = finding.path.replace("\\", "/")
        for file_part, code, line in self.entries:
            if code != finding.code:
                continue
            if line not in (0, finding.line):
                continue
            if norm == file_part or norm.endswith("/" + file_part):
                return True
        return False


def inline_allowed(finding: Finding, source_line: str) -> bool:
    """True when the finding's own line carries ``# lint: allow[CODE]``."""
    match = INLINE_ALLOW_RE.search(source_line)
    if not match:
        return False
    codes = {c.strip() for c in match.group(1).split(",")}
    return finding.code in codes
