#!/usr/bin/env python3
"""Orphan-module guard: every file under src/ must be reachable from a binary.

Starts from every .cpp under tools/, bench/, examples/ and perfbench/ and
follows #include "..." (resolved against the including file's directory, then
src/). A reached header pulls in its sibling .cpp. Exits 1 naming each src/
file never reached, and each pending entry below that is reachable or gone.

    python3 scripts/check_orphans.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_DIRS = ("tools", "bench", "examples", "perfbench")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# Known orphans, each waiting for its own deletion (ROADMAP item 7).
PENDING = {"cache/switched_cache.hpp", "cache/switched_cache.cpp"}


def reachable():
    todo = [p for d in ENTRY_DIRS for p in (ROOT / d).rglob("*.cpp")]
    seen = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text()):
            target = next((base / name for base in (path.parent, SRC)
                           if (base / name).is_file()), None)
            if target is None:
                continue
            todo.append(target.resolve())
            if target.suffix == ".hpp" and target.with_suffix(".cpp").is_file():
                todo.append(target.with_suffix(".cpp").resolve())
    return {p.relative_to(SRC).as_posix() for p in seen if p.is_relative_to(SRC)}


def main():
    sources = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*")
               if p.suffix in (".hpp", ".cpp")}
    orphans = sources - reachable()
    errors = [f"src/{f}: no binary reaches it" for f in sorted(orphans - PENDING)]
    for f in sorted(PENDING - orphans):
        state = "is reachable now" if f in sources else "no longer exists"
        errors.append(f"src/{f}: listed as pending but {state}; update PENDING")
    for e in errors:
        print(f"check_orphans: {e}", file=sys.stderr)
    if not errors:
        print(f"check_orphans: {len(sources) - len(orphans)} src files reached, "
              f"{len(PENDING)} pending")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
