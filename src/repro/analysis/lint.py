"""Repo-specific AST lint (``python -m repro lint``).

Generic tooling cannot express the invariants this codebase actually
depends on; these rules can:

``R001`` — **no recursive apply-style kernels in** ``repro/bdd/``.
    PR 2 rewrote every apply-style kernel onto explicit stacks so deep
    circuits cannot blow the Python recursion limit mid-image.  A
    self-recursive function reappearing in the kernel modules silently
    reintroduces the depth ceiling.

``R002`` — **no nondeterminism sources in byte-identical output paths.**
    The scheduler / journal / report layers promise byte-identical
    merged output across ``--jobs`` levels.  Wall-clock reads
    (``time.time``), the ``random`` module, unsorted directory listings
    (``os.listdir`` / ``os.scandir`` / ``glob``), mtime-keyed selection
    (``os.path.getmtime``) and iteration over unordered sets all break
    that promise in ways no generic linter flags.

``R003`` — **no node handles held across** ``collect_garbage``
    **without protection.**  A local bound to a BDD operation result and
    used after a ``collect_garbage`` call that neither lists it as a
    root nor increfs it is a stale handle: the slot can be freed and
    reused, corrupting whatever reads it next (the runtime counterpart
    is the sanitizer's ``bdd.mark_freed`` audit).

``R004`` — **no bare** ``except:`` **in** ``repro/harness/``.
    The harness must distinguish engine failures from
    ``KeyboardInterrupt`` / ``SystemExit``; a bare except swallows
    supervisor cancellation.

``R005`` — **one loop owner in** ``repro/reach/`` **and**
    ``repro/backends/``.  Only ``reach/driver.py`` may construct a
    ``RunMonitor``, call ``monitor.restore`` or catch
    ``ResourceLimitError`` / ``RecursionError``: a second copy of the
    fix-point loop is where resume-path pin leaks and dropped
    partial-progress statistics lived.

Suppression: a ``# noqa: R00X`` comment on the flagged line disarms that
rule for the line (a bare ``# noqa`` disarms all five); use it only with
a justification comment.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple


class Finding(NamedTuple):
    """One lint violation."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return "%s:%d: %s %s" % (self.path, self.line, self.rule, self.message)


#: Rule catalog: code -> one-line description (the full rationale lives
#: in docs/analysis.md).
RULES: Dict[str, str] = {
    "R001": "no recursive apply-style kernels in repro/bdd/",
    "R002": "no nondeterminism sources in byte-identical output paths",
    "R003": "no node handles held across collect_garbage without incref/roots",
    "R004": "no bare except in repro/harness/",
    "R005": "only reach/driver.py runs the fix-point loop in reach/, backends/",
}

#: Apply-style kernel modules covered by R001.
_KERNEL_MODULES = frozenset(
    ["operations.py", "quantify.py", "cofactor.py", "substitute.py", "manager.py"]
)

#: Files whose serialized output must stay byte-identical across
#: ``--jobs`` levels (plus the fault injector, whose firing points must
#: be reproducible) — the R002 scope.  ``serve/cache.py`` is included
#: because cache entries are content-addressed: any nondeterminism in
#: what gets hashed or listed breaks entry identity across runs.
_DETERMINISTIC_SUFFIXES = (
    "repro/harness/scheduler.py",
    "repro/harness/journal.py",
    "repro/harness/checkpoint.py",
    "repro/harness/faults.py",
    "repro/obs/report.py",
    "repro/serve/cache.py",
)

#: Directories under the R002 scope (backend payloads must be
#: byte-stable too — they are embedded in checkpoints and cache keys).
_DETERMINISTIC_DIRS = ("repro/backends/",)

#: BDD-manager methods whose result is a node handle (R003).
_NODE_OPS = frozenset(
    [
        "not_",
        "and_",
        "or_",
        "xor",
        "equiv",
        "implies",
        "diff",
        "ite",
        "conjoin",
        "disjoin",
        "exists",
        "forall",
        "and_exists",
        "compose",
        "vector_compose",
        "rename",
        "cofactor",
        "cofactor_cube",
        "constrain",
        "restrict",
        "var",
        "nvar",
        "cube",
        "to_characteristic",
    ]
)

_WALL_CLOCK = frozenset(["time.time", "time.time_ns"])
_DIR_LISTERS = frozenset(
    ["os.listdir", "os.scandir", "glob.glob", "glob.iglob"]
)
_MTIME_FAMILY = frozenset(["getmtime", "getatime", "getctime"])


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _in_scope_r001(path: str) -> bool:
    p = _posix(path)
    return "repro/bdd/" in p and os.path.basename(p) in _KERNEL_MODULES


def _in_scope_r002(path: str) -> bool:
    p = _posix(path)
    if p.endswith(_DETERMINISTIC_SUFFIXES):
        return True
    return any(d in p for d in _DETERMINISTIC_DIRS)


def _in_scope_r003(path: str) -> bool:
    return "repro/" in _posix(path)


def _in_scope_r004(path: str) -> bool:
    return "repro/harness/" in _posix(path)


def _in_scope_r005(path: str) -> bool:
    p = _posix(path)
    if p.endswith("repro/reach/driver.py"):
        return False
    return "repro/reach/" in p or "repro/backends/" in p


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted-name string of a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parent: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
    return parent


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ----------------------------------------------------------------------
# R001 — recursive kernels
# ----------------------------------------------------------------------


def check_recursive_kernels(tree: ast.AST, path: str) -> List[Finding]:
    """Flag functions in kernel modules that call themselves."""
    findings: List[Finding] = []

    def visit(node: ast.AST, enclosing: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing + (node.name,)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = None
                if isinstance(child.func, ast.Name):
                    callee = child.func.id
                elif isinstance(child.func, ast.Attribute) and isinstance(
                    child.func.value, ast.Name
                ) and child.func.value.id == "self":
                    callee = child.func.attr
                if callee is not None and callee in enclosing:
                    findings.append(
                        Finding(
                            path,
                            child.lineno,
                            "R001",
                            "recursive call to %r in an apply-style kernel "
                            "module (kernels must run on explicit stacks)"
                            % callee,
                        )
                    )
            visit(child, enclosing)

    visit(tree, ())
    return findings


# ----------------------------------------------------------------------
# R002 — nondeterminism sources
# ----------------------------------------------------------------------


def check_nondeterminism(tree: ast.AST, path: str) -> List[Finding]:
    """Flag wall-clock, randomness and unordered-iteration sources."""
    findings: List[Finding] = []
    parent = _parents(tree)

    def flag(node: ast.AST, message: str) -> None:
        findings.append(Finding(path, node.lineno, "R002", message))

    def is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    flag(node, "import of the 'random' module in a "
                         "deterministic-output path")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                flag(node, "import from the 'random' module in a "
                     "deterministic-output path")
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is None:
                continue
            if chain in _WALL_CLOCK:
                flag(node, "wall-clock read %r feeds deterministic output "
                     "(stamp at a boundary, or suppress with a "
                     "justification)" % chain)
            elif (
                node.attr in _MTIME_FAMILY
                and chain.startswith(("os.path.", "posixpath.", "ntpath."))
            ):
                flag(node, "file-timestamp selection (%s) is not "
                     "reproducible; key on content (e.g. the encoded "
                     "iteration number) instead" % chain)
            elif chain.startswith("random."):
                flag(node, "use of %r in a deterministic-output path"
                     % chain)
        elif isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain in _DIR_LISTERS:
                up = parent.get(node)
                wrapped = (
                    isinstance(up, ast.Call)
                    and isinstance(up.func, ast.Name)
                    and up.func.id == "sorted"
                )
                if not wrapped:
                    flag(node, "directory listing %r is OS-order dependent; "
                         "wrap it in sorted(...)" % chain)
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if is_set_expr(it):
                flag(it, "iteration over an unordered set; sort before "
                     "anything that serializes")
    return findings


# ----------------------------------------------------------------------
# R003 — handles across GC
# ----------------------------------------------------------------------


def check_gc_handles(tree: ast.AST, path: str) -> List[Finding]:
    """Flag node-handle locals used after an unprotecting GC call.

    Per function: a local assigned from a node-producing manager method,
    then a ``collect_garbage`` call that does not mention it in its
    roots, then a later use of the same (un-reassigned, never
    incref'ed) local.  Conservative by construction — only simple
    ``name = obj.node_op(...)`` bindings are tracked.
    """
    findings: List[Finding] = []

    def scan_function(fn: ast.AST) -> None:
        node_stores: Dict[str, List[int]] = {}
        all_stores: Dict[str, List[int]] = {}
        loads: Dict[str, List[int]] = {}
        increfed: Set[str] = set()
        gc_calls: List[Tuple[int, Set[str]]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                func = node.value.func
                if isinstance(func, ast.Attribute) and func.attr in _NODE_OPS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            node_stores.setdefault(target.id, []).append(
                                node.lineno
                            )
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    all_stores.setdefault(node.id, []).append(node.lineno)
                elif isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id, []).append(node.lineno)
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr == "incref":
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            increfed.add(arg.id)
                elif node.func.attr in ("collect_garbage", "maybe_collect"):
                    rooted: Set[str] = set()
                    for arg in node.args:
                        rooted |= _names_in(arg)
                    for kw in node.keywords:
                        rooted |= _names_in(kw.value)
                    gc_calls.append((node.lineno, rooted))
        if not gc_calls:
            return
        for name, store_lines in node_stores.items():
            if name in increfed:
                continue
            stores = sorted(all_stores.get(name, []))
            for gc_line, rooted in gc_calls:
                if name in rooted:
                    continue
                before = [s for s in store_lines if s < gc_line]
                if not before:
                    continue
                for use in loads.get(name, []):
                    if use <= gc_line:
                        continue
                    last_store = max(
                        (s for s in stores if s <= use), default=None
                    )
                    if (
                        last_store is not None
                        and last_store < gc_line
                        and last_store in store_lines
                    ):
                        findings.append(
                            Finding(
                                path,
                                use,
                                "R003",
                                "node handle %r (bound at line %d) used "
                                "after collect_garbage at line %d without "
                                "incref or being passed as a root"
                                % (name, last_store, gc_line),
                            )
                        )
                        break
        return

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node)
    return findings


# ----------------------------------------------------------------------
# R004 — bare except
# ----------------------------------------------------------------------


def check_bare_except(tree: ast.AST, path: str) -> List[Finding]:
    """Flag ``except:`` clauses (swallow SystemExit/KeyboardInterrupt)."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "R004",
                    "bare 'except:' in the harness swallows supervisor "
                    "cancellation; catch Exception (or narrower)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# R005 — a second fix-point loop
# ----------------------------------------------------------------------

_LOOP_ERRORS = frozenset(["ResourceLimitError", "RecursionError"])


def check_loop_owner(tree: ast.AST, path: str) -> List[Finding]:
    """Flag loop-owner code outside ``reach/driver.py``."""
    findings: List[Finding] = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                path,
                node.lineno,
                "R005",
                "%s outside reach/driver.py; plug a SetAlgebra into "
                "drive() instead" % what,
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if name.split(".")[-1] == "RunMonitor":
                flag(node, "RunMonitor construction")
            elif name.endswith("monitor.restore"):
                flag(node, "monitor.restore()")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [
                node.type
            ]
            for exc in caught:
                name = (_dotted(exc) or "").split(".")[-1]
                if name in _LOOP_ERRORS:
                    flag(node, "catching %s" % name)
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

_SCOPED_RULES = (
    ("R001", _in_scope_r001, check_recursive_kernels),
    ("R002", _in_scope_r002, check_nondeterminism),
    ("R003", _in_scope_r003, check_gc_handles),
    ("R004", _in_scope_r004, check_bare_except),
    ("R005", _in_scope_r005, check_loop_owner),
)


def _noqa_codes(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule codes (None = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        marker = line.find("# noqa")
        if marker < 0:
            continue
        rest = line[marker + len("# noqa"):]
        if rest.lstrip().startswith(":"):
            codes = {
                code.strip().upper()
                for code in rest.lstrip()[1:].split(",")
                if code.strip()
            }
            out[lineno] = codes
        else:
            out[lineno] = None
    return out


def remap_decorator_lines(
    findings: Sequence[Finding], tree: ast.AST
) -> List[Finding]:
    """Reattribute decorator-line findings to the decorated ``def`` line.

    ``@decorator`` lines cannot legally carry a trailing ``# noqa`` in
    some formatters' output, and users reasonably put the suppression on
    the ``def``/``class`` statement itself — the *suppressible statement
    line*.  Findings inside a decorator expression are therefore moved
    to the decorated statement's line (innermost decoration wins).
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node.decorator_list:
            start = min(d.lineno for d in node.decorator_list)
            spans.append((start, node.lineno))
    if not spans:
        return list(findings)
    # Innermost (latest-starting) decoration wins for nested defs.
    spans.sort(key=lambda s: s[0], reverse=True)
    out: List[Finding] = []
    for finding in findings:
        for start, def_line in spans:
            if start <= finding.line < def_line:
                finding = finding._replace(line=def_line)
                break
        out.append(finding)
    return out


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's source; applies every rule whose scope matches."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 1, "R000", "syntax error: %s" % exc.msg)
        ]
    findings: List[Finding] = []
    for rule, in_scope, check in _SCOPED_RULES:
        if in_scope(path):
            findings.extend(check(tree, path))
    if not findings:
        return findings
    findings = remap_decorator_lines(findings, tree)
    noqa = _noqa_codes(source)
    kept = []
    for finding in findings:
        codes = noqa.get(finding.line, ())
        if codes is None or finding.rule in codes:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def lint_file(path: str) -> List[Finding]:
    """Lint one file from disk."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def default_paths() -> List[str]:
    """The installed ``repro`` package tree (what CI lints)."""
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def run_lint(paths: Sequence[str] = ()) -> List[Finding]:
    """Lint ``paths`` (default: the repro package); returns findings."""
    findings: List[Finding] = []
    for path in iter_python_files(list(paths) or default_paths()):
        findings.extend(lint_file(path))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro lint`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific static checks (R001-R005)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print("%s  %s" % (code, RULES[code]))
        return 0
    findings = run_lint(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            "%d finding%s" % (len(findings), "" if len(findings) == 1 else "s"),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro lint
    sys.exit(main())
