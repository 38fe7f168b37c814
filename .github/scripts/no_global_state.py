#!/usr/bin/env python3
"""Fail on process-wide mutable state in lib/.

Usage: python3 .github/scripts/no_global_state.py [DIR ...]

Scans the .ml files under lib/ (or the given directories) for a top-level
value binding -- a `let` or `and` at column 0, or at the first column of a
`module M = struct ... end` body, that takes no parameters -- whose
right-hand side makes a mutable value: `ref`, `Hashtbl.create`,
`Array.make`, `Atomic.make`, `Queue.create` or `Buffer.create`.  Such a
value lives as long as the process, so state in it outlives the
simulation run that wrote it and is shared by every domain.  A binding
whose right-hand side is a function (`fun`, `function`) and `let () =` /
`let _ =` are skipped: what they create is local to each call.  Comments
and string literals are ignored.  Prints each hit as FILE:LINE: TEXT and
exits 1 when there is any.
"""
import os
import re
import sys

CHAR = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|.)|[^\\'])'")
BINDING = re.compile(r"(?:let|and)\s+(?:rec\s+)?([a-z_][\w']*)\s*(?::[^=]*)?=(?!=)")
MUTABLE = re.compile(
    r"(?<![\w.])ref\b|\b(?:Hashtbl|Queue|Buffer)\.create\b"
    r"|\b(?:Array|Atomic)\.make\b")


def strip(text):
    """Blank out comments (nested) and string literals, keeping newlines."""
    out, i, depth, n = [], 0, 0, len(text)
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif depth:
            out.append("\n" if text[i] == "\n" else " ")
            i += 1
        elif text[i] == "'" and CHAR.match(text, i):
            end = CHAR.match(text, i).end()
            out.append(" " * (end - i))
            i = end
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + "".join(
                "\n" if c == "\n" else " " for c in text[i + 1:j]) + '"')
            i = j + 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


STRUCT = re.compile(r"module\s+[A-Z][\w']*[^=]*=\s*struct\s*$")


def items(lines, first=1):
    """Module-level items as (line number, text), split at the tokens of
    the lowest column; a `module M = struct` item is split in turn."""
    starts = [k for k, line in enumerate(lines) if line[:1].strip()]
    for i, k in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(lines)
        if STRUCT.match(lines[k]):
            body = lines[k + 1:end]
            indent = min((len(l) - len(l.lstrip()) for l in body if l.strip()),
                         default=0)
            yield from items([l[indent:] for l in body], first + k + 1)
        else:
            yield first + k, "\n".join(lines[k:end])


def hits(path):
    with open(path, encoding="utf-8") as f:
        text = strip(f.read())
    for line, item in items(text.split("\n")):
        m = BINDING.match(item)
        if not m or m.group(1) == "_":
            continue
        body = item[m.end():].lstrip()
        if re.match(r"(fun|function)\b", body):
            continue
        if MUTABLE.search(body):
            yield line, item.split("\n", 1)[0].strip()


def main(dirs):
    found = 0
    for d in dirs:
        for base, _, files in sorted(os.walk(d)):
            if "_build" in base:
                continue
            for f in sorted(files):
                if f.endswith(".ml"):
                    path = os.path.join(base, f)
                    for line, text in hits(path):
                        print("%s:%d: %s" % (path, line, text))
                        found += 1
    print("top-level mutable values: %d" % found)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["lib"]))
