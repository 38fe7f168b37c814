#!/usr/bin/env python3
"""List exported values that nothing outside their own module refers to.

Usage: python3 .github/scripts/unused_exports.py [--summary]

Scans every `val` of the .mli files under lib/, bin/, bench/, perfbench/
and examples/, and looks for a reference to it in the .ml files of those
directories other than the module's own.  A value of a submodule
(`module Quarantine : sig ... end`) is looked up under the submodule's
name.  A file that opens the module (`open M`, `M.(...)`, `let open M`)
counts a bare use of the name, and one that passes it whole to a
functor (`Set.Make (Data.Path)`) counts its compare, equal and hash.
An interface that re-exports another (`include module type of struct
include Stats end`) makes that module's values reachable under its own
name too.  Values referred to from test/ only are listed separately.
The match is textual, comments and strings removed, so a shared name can
hide an unused value.  Exits 1 when some value has no reference outside
its module; the test-only list is a report and never fails the run.
"""
import os
import re
import sys

ROOTS = ["lib", "bin", "bench", "perfbench", "examples"]
CHAR = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|.)|[^\\'])'")


def strip(text):
    """Drop comments (nested) and string literals."""
    out, i, depth, n = [], 0, 0, len(text)
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth:
            i += 1
        elif text[i] == "'" and CHAR.match(text, i):
            i = CHAR.match(text, i).end()
        elif text[i] == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append('""')
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def sources(dirs, ext):
    for d in dirs:
        for base, _, files in os.walk(d):
            if "_build" in base:
                continue
            for f in sorted(files):
                if f.endswith(ext):
                    yield os.path.join(base, f)


def exports(path):
    """(qualifier, name) of each val; the qualifier is the innermost
    module: the file's, or a `module X : sig` block's."""
    top = os.path.basename(path)[:-4].capitalize()
    stack, found = [top], []
    for line in strip(open(path).read()).splitlines():
        m = re.match(r"\s*module\s+(\w+)\s*:\s*sig\b", line)
        if m:
            stack.append(m.group(1))
        m = re.match(r"\s*val\s+([a-z_][\w']*)", line)
        if m:
            found.append((stack[-1], m.group(1)))
        if re.match(r"\s*end\b", line) and len(stack) > 1:
            stack.pop()
    return top, found


def reexports(mlis):
    """Module name -> the modules whose interface includes it whole."""
    found = {}
    for mli in mlis:
        top = os.path.basename(mli)[:-4].capitalize()
        text = strip(open(mli).read())
        for m in re.finditer(
                r"include\s+module\s+type\s+of\s+struct\s+include\s+(\w+)\s+end",
                text):
            found.setdefault(m.group(1), []).append(top)
    return found


def referenced(files, texts, own, qual, name):
    qualified = re.compile(r"\b%s\.%s\b" % (qual, re.escape(name)))
    opened = re.compile(r"\bopen!?\s+(\w+\.)*%s\b|\b%s\.\(" % (qual, qual))
    bare = re.compile(r"(?<![\w.'])%s\b" % re.escape(name))
    whole = re.compile(r"\(\s*(\w+\.)*%s\s*\)" % qual)
    for f in files:
        if f in own:
            continue
        t = texts[f]
        if qualified.search(t) or (opened.search(t) and bare.search(t)):
            return True
        if name in ("compare", "equal", "hash") and whole.search(t):
            return True
    return False


def main():
    texts = {}
    code = list(sources(ROOTS, ".ml"))
    tests = list(sources(["test"], ".ml"))
    for f in code + tests:
        texts[f] = strip(open(f).read())
    unused, test_only = [], []
    mlis = list(sources(ROOTS, ".mli"))
    aliases = reexports(mlis)
    for mli in mlis:
        top, vals = exports(mli)
        own = {mli[:-1], mli}
        for qual, name in vals:
            label = "%s: %s" % (mli, name if qual == top else qual + "." + name)
            quals = [qual] + aliases.get(qual, [])
            if any(referenced(code, texts, own, q, name) for q in quals):
                continue
            if any(referenced(tests, texts, own, q, name) for q in quals):
                test_only.append(label)
            else:
                unused.append(label)
    print("exported vals with no reference outside their module: %d" % len(unused))
    for label in unused:
        print("  " + label)
    print("exported vals referenced from test/ only: %d" % len(test_only))
    for label in test_only:
        print("  " + label)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
