#!/usr/bin/env python3
"""AST lint: no nondeterminism in the deterministic-output paths.

Usage (from the repository root)::

    python tools/lint_determinism.py            # lint the declared paths
    python tools/lint_determinism.py FILE...    # lint specific files

Every byte-gated committed artifact (the ``ARTIFACTS`` table in
``tools/artifacts.py``) carries a byte-identical reproducibility
contract, enforced by ``make check`` re-running its producer.  The gate
catches drift *after* it lands; this lint catches the usual causes at
review time, in every module that holds a producer or feeds one:

* **wall-clock reads** — ``time.time()``, ``time.monotonic()``,
  ``perf_counter``, ``datetime.now()``: any of these in a report value
  makes two runs differ by definition;
* **global-RNG draws** — module-level ``random.random()`` and friends
  (versus an explicitly seeded ``random.Random(seed)`` instance),
  ``os.urandom``, ``uuid.uuid4``: unseeded entropy in a supposedly
  reproducible pipeline;
* **unordered iteration** — looping over a set display, set
  comprehension, or ``set(...)``/``frozenset(...)`` call: string hash
  randomisation reorders these across interpreter invocations, so any
  output assembled from such a loop is run-dependent;
* **directory-order dependence** — ``os.listdir``/``glob.glob``/
  ``Path.iterdir``/``Path.glob`` results used without an immediate
  ``sorted(...)``: filesystem enumeration order is unspecified.

The gate loop itself (its per-artifact timing line) legitimately reads
the clock, as does the host-timed ``BENCH_simspeed.json`` producer, so
the lint covers every module under ``src/repro`` except that producer,
and none of ``tools/``.  A true positive that is actually
fine (e.g. a seeded draw the lint cannot see) can be suppressed by
putting ``det: allow`` in a comment on the offending line.

Exit status 1 if any finding survives, 2 if a named file does not
exist (``--help`` included), 0 otherwise.
"""

from __future__ import annotations

import ast
import glob as globmod
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The modules whose output must be byte-reproducible: the whole
#: package, so a new module is linted too ...
DETERMINISTIC_GLOB = "src/repro/**/*.py"
#: ... except the host-timed ``BENCH_simspeed.json`` producer, which
#: reads the clock by design.
HOST_TIMED = "src/repro/analysis/simspeed.py"

SUPPRESS_MARKER = "det: allow"

_WALLCLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_LISTING_OS_ATTRS = {"listdir", "scandir"}
_LISTING_GLOB_ATTRS = {"glob", "iglob"}
_LISTING_PATH_ATTRS = {"iterdir", "glob", "rglob"}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _attr_chain(node: ast.AST) -> "tuple[str, ...]":
    """``a.b.c`` -> ("a", "b", "c"); empty tuple if not a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.lines = source.splitlines()
        self.findings: "list[Finding]" = []
        #: names bound by ``from random import x`` / ``from time import x``
        self.random_names: "set[str]" = set()
        self.time_names: "set[str]" = set()
        #: parents of every Call node, to allow ``sorted(os.listdir(..))``
        self.parents: "dict[ast.AST, ast.AST]" = {}

    def lint(self, tree: ast.AST) -> "list[Finding]":
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.visit(tree)
        return self.findings

    def _suppressed(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return SUPPRESS_MARKER in self.lines[line - 1]
        return False

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._suppressed(node):
            self.findings.append(
                Finding(self.path, getattr(node, "lineno", 0), rule, message)
            )

    # -- imports feed the name tables ---------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self.random_names.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_ATTRS:
                    self.time_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls: clocks, entropy, directory listings -------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            self._check_call_chain(node, chain)
        self.generic_visit(node)

    def _check_call_chain(
        self, node: ast.Call, chain: "tuple[str, ...]"
    ) -> None:
        head, tail = chain[0], chain[-1]
        if head == "time" and len(chain) == 2 and tail in _WALLCLOCK_TIME_ATTRS:
            self._report(
                node,
                "wall-clock",
                f"time.{tail}() in a deterministic path — derive values "
                "from the seed/plan, not the clock",
            )
        elif len(chain) == 1 and head in self.time_names:
            self._report(
                node,
                "wall-clock",
                f"{head}() (imported from time) in a deterministic path",
            )
        elif (
            tail in _WALLCLOCK_DATETIME_ATTRS
            and len(chain) >= 2
            and chain[-2] in ("datetime", "date")
        ):
            self._report(
                node,
                "wall-clock",
                f"{'.'.join(chain)}() reads the wall clock — timestamps "
                "do not belong in reproducible artifacts",
            )
        elif head == "random" and len(chain) == 2 and tail != "Random":
            self._report(
                node,
                "global-rng",
                f"random.{tail}() uses the unseeded module-global RNG — "
                "draw from an explicit random.Random(seed)",
            )
        elif len(chain) == 1 and head in self.random_names:
            self._report(
                node,
                "global-rng",
                f"{head}() (imported from random) uses the module-global "
                "RNG — draw from an explicit random.Random(seed)",
            )
        elif chain == ("os", "urandom") or chain == ("uuid", "uuid4"):
            self._report(
                node,
                "global-rng",
                f"{'.'.join(chain)}() is unseeded entropy",
            )
        elif self._is_listing_call(chain):
            if not self._inside_sorted(node):
                self._report(
                    node,
                    "dir-order",
                    f"{'.'.join(chain)}(...) enumerates in filesystem "
                    "order — wrap the call in sorted(...)",
                )

    def _is_listing_call(self, chain: "tuple[str, ...]") -> bool:
        if len(chain) == 2 and chain[0] == "os" and chain[1] in _LISTING_OS_ATTRS:
            return True
        if len(chain) == 2 and chain[0] == "glob" and chain[1] in _LISTING_GLOB_ATTRS:
            return True
        # ``something.iterdir()`` / ``something.rglob(...)`` — pathlib
        # idiom; ``.glob`` alone would also catch the glob module, which
        # is already handled above.
        return len(chain) >= 2 and chain[-1] in ("iterdir", "rglob")

    def _inside_sorted(self, node: ast.Call) -> bool:
        parent = self.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
        )

    # -- iteration over sets ------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iter(self, node: ast.AST) -> None:
        self._check_iterable(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _check_iterable(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            self._report(
                node,
                "set-iteration",
                "iterating a set literal/comprehension — hash "
                "randomisation makes the order run-dependent; use "
                "sorted(...)",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            self._report(
                node,
                "set-iteration",
                f"iterating {node.func.id}(...) — hash randomisation "
                "makes the order run-dependent; use sorted(...)",
            )


def lint_file(path: str) -> "list[Finding]":
    with open(path) as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "parse", str(exc))]
    return _Linter(os.path.relpath(path, REPO), source).lint(tree)


def declared_files() -> "list[str]":
    paths = globmod.glob(os.path.join(REPO, DETERMINISTIC_GLOB), recursive=True)
    return sorted(set(paths) - {os.path.join(REPO, HOST_TIMED)})


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    for arg in args:
        if not os.path.isfile(arg):
            print(
                f"lint_determinism: {arg}: no such file "
                "(usage: lint_determinism.py [FILE...])",
                file=sys.stderr,
            )
            return 2
    files = [os.path.abspath(a) for a in args] or declared_files()
    findings = []
    for path in files:
        findings.extend(lint_file(path))
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(
            f"lint_determinism: {len(findings)} finding(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_determinism: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
