"""The functions of the package that one `glsmx verify` run never enters.

    python3 tools/verify_coverage.py

Run from the root of a checkout.  It imports glsmx from ./src and runs
`glsmx verify` once, in this process and from cold caches, with a
`sys.settrace` hook that records the code object of every call.  Then it
compiles each module under ./src/glsmx and walks its code objects: every
function or method (lambdas and comprehensions aside) whose code object no
call started is listed as path:line qualified.name, in file and line
order, followed by a count.  The trace sees calls only, not lines, so a
function entered once counts as covered however little of it ran, and on
Python 3.11 a generator function counts once called, iterated or not.

A function that only the other commands reach is a blind spot of
`verify`: a mutant there passes every criterion.  Standard library only,
and the package imports nothing from here.
"""

from __future__ import annotations

import inspect
import os
import sys


def defined_functions(path):
    """(first line, qualified name, code key) of every function or method
    compiled from the file at path; class bodies, lambdas and comprehensions
    are left out."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), os.path.realpath(path), "exec")
    out = []
    stack = [code]
    while stack:
        for const in stack.pop().co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
                # a class body is not optimized; a function body is
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    name = getattr(const, "co_qualname", const.co_name)
                    out.append((const.co_firstlineno, name, _key(const)))
    return sorted(out)


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def unentered(paths, body):
    """Run body() under a call trace and return (path, line, qualified name)
    for each function defined in paths that no call entered."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)
        return None  # no line events: calls are all this needs

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        body()
    finally:
        sys.settrace(previous)
    keys = {_key(code) for code in entered}
    return [
        (path, line, name)
        for path in paths
        for line, name, key in defined_functions(path)
        if key not in keys
    ]


def main(argv=None):
    src = os.path.join(os.getcwd(), "src")
    package = os.path.join(src, "glsmx")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print("error: no glsmx sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    paths = sorted(os.path.join(package, f) for f in os.listdir(package) if f.endswith(".py"))
    report = {}

    def verify():
        from glsmx.cli import run

        report.update(run("verify", {}))

    missed = unentered(paths, verify)
    total = sum(len(defined_functions(path)) for path in paths)
    for path, line, name in missed:
        print(f"{os.path.relpath(path)}:{line} {name}")
    passed = all(c["status"] == "pass" for c in report["checks"])
    print(f"{len(missed)} of {total} functions never entered; verify passed: {passed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
