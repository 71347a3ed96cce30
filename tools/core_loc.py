#!/usr/bin/env python3
"""Count each workspace crate's non-test source lines.

A file counts from its first line up to (not including) its first
`#[cfg(test)]` attribute that opens a module (`mod name {` or
`mod name;`); the `#[cfg(test)]` items before that point, such as a
test-only method, count as source. `parallel/rank_tests.rs` and
`parallel/tests.rs` are test modules kept in files of their own, so
they are left out whole. Every line counts, blank and comment lines
included.

Usage: python3 tools/core_loc.py [REPO_ROOT]

Prints one line per crate under `crates/` and a total. Informational
only: no check reads it.
"""

import pathlib
import re
import sys

TEST_FILES = {("parallel", "rank_tests.rs"), ("parallel", "tests.rs")}
MOD_LINE = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*[;{]")


def non_test_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        # Skip further attributes and doc comments between the cfg and
        # the item it gates.
        j = i + 1
        while j < len(lines) and lines[j].strip().startswith(("#[", "///")):
            j += 1
        if j < len(lines) and MOD_LINE.match(lines[j]):
            return i
    return len(lines)


def crate_lines(src):
    total = 0
    for path in sorted(src.rglob("*.rs")):
        if tuple(path.relative_to(src).parts[-2:]) in TEST_FILES:
            continue
        total += non_test_lines(path)
    return total


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir())
    if not crates:
        sys.exit(f"no crates under {root / 'crates'}")
    total = 0
    for crate in crates:
        n = crate_lines(crate / "src")
        total += n
        print(f"{crate.name:10} {n:6}")
    print(f"{'total':10} {total:6}")


if __name__ == "__main__":
    main()
