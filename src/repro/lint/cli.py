"""``repro lint`` / ``python -m repro.lint`` — the CLI reporter.

Walks the given paths (default ``src/``), parses every ``*.py`` file,
runs the registered rules, filters the suppression allowlist (``--allow``
file plus inline ``# lint: allow[CODE]`` comments), and reports:

* default: one ``file:line: CODE message`` line per finding (the format
  CI consumes), a summary line, exit status 1 on any finding;
* ``--json``: a machine-readable document (rule, path, line, col,
  message, snippet) for pre-commit hooks and future tooling;
* ``--list-rules``: every rule code with the guarantee it protects.

A file that does not parse is itself a finding (``RPR000``) — the linter
gates CI and must never silently skip unreadable code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .config import Allowlist, inline_allowed
from .context import ModuleContext
from .findings import Finding
from .registry import RULES, run_rules

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub


def lint_file(
    path: Path, select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], Optional[ModuleContext]]:
    """All raw findings for one file (allowlist filtering is the caller's)."""
    source = path.read_text(encoding="utf-8")
    try:
        ctx = ModuleContext(source, path=path)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=str(path),
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    code="RPR000",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            None,
        )
    return run_rules(ctx, select=select), ctx


def lint_paths(
    paths: Sequence[Path],
    allowlist: Optional[Allowlist] = None,
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """(surviving findings, files checked) over a path set."""
    allowlist = allowlist if allowlist is not None else Allowlist()
    findings: List[Finding] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        file_findings, ctx = lint_file(path, select=select)
        for finding in file_findings:
            if allowlist.allows(finding):
                continue
            if ctx is not None and 1 <= finding.line <= len(ctx.lines):
                if inline_allowed(finding, ctx.lines[finding.line - 1]):
                    continue
            findings.append(finding)
    return sorted(findings), n_files


def _default_paths() -> List[Path]:
    src = Path("src")
    return [src] if src.is_dir() else [Path(".")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker: seed discipline, payload "
        "purity, service lock/import hygiene",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories (default: src/)"
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable findings (rule, path, line, snippet)",
    )
    parser.add_argument(
        "--allow", metavar="FILE", default=None,
        help="suppression allowlist (path:CODE or path:line:CODE lines); "
        "the shipped tree needs none",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code, name, and the guarantee it protects",
    )
    return parser


def run_lint(
    paths: Sequence[str],
    as_json: bool = False,
    allow: Optional[str] = None,
    select: Optional[str] = None,
    out=None,
) -> int:
    out = out if out is not None else sys.stdout
    allowlist = Allowlist.from_file(allow) if allow else Allowlist()
    selected = (
        [c.strip() for c in select.split(",") if c.strip()] if select else None
    )
    if selected:
        unknown = [c for c in selected if c not in RULES and c != "RPR000"]
        if unknown:
            print(f"error: unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    resolved = [Path(p) for p in paths] if paths else _default_paths()
    missing = [p for p in resolved if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2
    findings, n_files = lint_paths(resolved, allowlist=allowlist, select=selected)
    if as_json:
        out.write(json.dumps(
            {
                "version": 1,
                "checked_files": n_files,
                "findings": [f.to_dict() for f in findings],
            },
            indent=2, sort_keys=True,
        ) + "\n")
    else:
        for finding in findings:
            out.write(finding.format() + "\n")
        out.write(
            f"repro lint: {len(findings)} finding(s) in {n_files} file(s)\n"
        )
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rl in RULES.values():
            print(f"{rl.code}  {rl.name}")
            print(f"        {rl.rationale}")
        return 0
    return run_lint(
        args.paths, as_json=args.as_json, allow=args.allow, select=args.select
    )
