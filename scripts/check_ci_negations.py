#!/usr/bin/env python3
"""Every `!` command in a CI step can fail that step.

GitHub runs a `run:` block under `bash -e`, which ignores the status of
a pipeline that starts with `!` unless it is the block's last command:
`! grep pattern files` in the middle of a block passes whatever grep
finds. Fails on each `!`-led command in `.github/workflows/*.yml` that
is neither the last command of its block nor ends in `|| exit 1` (write
such a check as `if grep ...; then exit 1; fi`). Run from the
repository root with no arguments.
"""

import glob
import re
import sys

RUN = re.compile(r"^(\s*)(?:- )?run:\s*(\|)?")


def blocks(lines):
    """Yields (line number, commands) of each multi-line `run: |` block,
    one command per logical line (continuations joined, comments and
    blank lines left out)."""
    i = 0
    while i < len(lines):
        m = RUN.match(lines[i])
        i += 1
        if not m or not m.group(2):
            continue
        start, indent, commands = i, len(m.group(1)), []
        while i < len(lines) and (not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent):
            line = lines[i].strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            if commands and commands[-1][1].endswith("\\"):
                commands[-1] = (commands[-1][0], commands[-1][1][:-1] + " " + line)
            else:
                commands.append((i, line))
        yield start, commands


def main():
    errors = []
    for path in sorted(glob.glob(".github/workflows/*.yml")):
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        for _, commands in blocks(lines):
            for number, command in commands[:-1]:
                if command.startswith("!") and not command.endswith("|| exit 1"):
                    errors.append(f"{path}:{number}: `{command[:60]}` is not the block's last command: its status is ignored")
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
