#!/usr/bin/env python3
"""Compare two output trees of run_full_suite.py file by file.

Usage: python scripts/compare_outputs.py A B

Prints every file that differs between the trees or is present in only one
of them, and exits 1 if there is any such file (0 if none, 2 on bad usage).
Files are compared byte for byte, except that the value of "out_dir" in
each manifest.json is ignored: each run records its own output directory.
"""
import re
import sys
from pathlib import Path

_OUT_DIR = re.compile(rb'"out_dir": "(?:[^"\\]|\\.)*"')


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _OUT_DIR.sub(b'"out_dir": null', data)
    return data


def compare(a: Path, b: Path) -> list[str]:
    """One line per file that differs or exists in only one tree."""
    files_a, files_b = _files(a), _files(b)
    lines = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    lines += [f"differs: {p}" for p in sorted(files_a & files_b)
              if _content(a / p) != _content(b / p)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py A B  (two output directories)", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    lines = compare(a, b)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"identical: {len(_files(a))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
