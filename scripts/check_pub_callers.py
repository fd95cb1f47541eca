#!/usr/bin/env python3
"""Every public item has a caller (DESIGN.md, "Public surface").

Fails on each `pub` item of the non-test part of `crates/*/src` that no
non-test code outside its crate names (the other crates' `src/`, `src/`,
`examples/`, `bench/src`) and that `pub_callers_allow.txt`, beside this
script, does not list as `crate::path::Name  # reason`; also on an entry
without a reason, or whose item is gone or has found a caller.

Also fails on each `#[cfg(test)]` item, field or statement of
`crates/*/src` that is not a module of tests, unless the allowlist lists
it after its `[compiled for tests only]` line, and on such an entry
whose item is gone. Run from the repository root with no arguments.
"""

import glob
import os
import re
import sys

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pub_callers_allow.txt")
TESTS_ONLY = "[compiled for tests only]"  # the allowlist line that starts that section
CALLERS = ["src", "examples", "bench/src"]  # besides the other crates' `src/`

# Comments, string literals and char literals (a lifetime is neither).
LITERAL = re.compile(
    r'//[^\n]*|/\*.*?\*/|\bb?r(#*)".*?"\1|b?"(?:\\.|[^"\\])*"'
    r"|b?'(?:\\(?:u\{\w*\}|.)|[^\\'])'",
    re.S,
)
USE = re.compile(r"(?m)^[ \t]*(pub(?:\([^)]*\))?\s+)?use\s[^;]*;")
ITEM = re.compile(
    r'\bpub\s+(?:(?:const|async|unsafe|extern)\s+)*(fn)\s+(\w+)'
    r"|\bpub\s+(struct|enum|trait|type|const|static|mod|union)\s+(?:mut\s+)?(\w+)"
)
TOKEN = re.compile(ITEM.pattern + r"|\bmod\s+(\w+)\s*\{|\bimpl\b|\btrait\b|\bfn\b|[{};]")
IDENT = re.compile(r"[A-Za-z_]\w*")
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
# What a `#[cfg(test)]` target is named by: its owner frames come from
# `impl` blocks and type declarations, its name from what it declares.
OWNER_TOKEN = re.compile(
    CFG_TEST.pattern + r"|\bimpl\b|\b(?:struct|enum|union|trait)\s+(\w+)|[{};]"
)
DECLARES = re.compile(
    r"(?:pub(?:\([^)]*\))?\s+)?(?:(?:const|async|unsafe|extern)\s+)*"
    r"(?:fn|struct|enum|union|trait|type|const|static|macro_rules!)\s+(\w+)"
)
NOT_A_NAME = {"if", "let", "else", "match", "return", "self", "Self", "mut", "ref", "pub", "crate"}


def blank(text):
    """`text` with every character but newlines made a space, so offsets
    and line numbers stay put."""
    return re.sub(r"[^\n]", " ", text)


def item_end(text, i):
    """Where the item or field starting at `i` ends: after its first
    `;` or `,` at depth 0 or its first block, or at the closing brace
    of the block it sits in."""
    depth = 0
    for j in range(i, len(text)):
        c = text[j]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "{" and depth == 0:
            level = 0
            for k in range(j, len(text)):
                level += {"{": 1, "}": -1}.get(text[k], 0)
                if level == 0:
                    return k + 1
        elif c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return j
            depth -= 1
        elif c in ";," and depth == 0:
            return j + 1
    return len(text)


def load(path):
    """The non-test code of `path`, blanked as above, and the modules it
    declares `#[cfg(test)] mod name;` (whose files are test code)."""
    with open(path, encoding="utf-8") as f:
        text = LITERAL.sub(lambda m: blank(m.group(0)), f.read())
    test_mods = []
    while m := re.search(r"#\[cfg\(test\)\]", text):
        end = item_end(text, m.end())
        test_mods += re.findall(r"^\s*(?:pub\S*\s+)?mod\s+(\w+)\s*;", text[m.end():end])
        text = text[: m.start()] + blank(text[m.start():end]) + text[end:]
    return text, test_mods


def names_in(text):
    """The identifiers `text` names outside `use` statements, and those
    its plain (not `pub`) `use` statements name."""
    uses = " ".join(m.group(0) for m in USE.finditer(text) if not m.group(1))
    rest = USE.sub(lambda m: blank(m.group(0)), text)
    return set(IDENT.findall(rest)), set(IDENT.findall(uses))


def impl_type(header):
    """`Foo` for `impl<T> Foo<T> where ..` (trait impls hold no `pub fn`)."""
    while re.search(r"<[^<>]*>", header):
        header = re.sub(r"<[^<>]*>", " ", header)
    header = re.split(r"\bfor\b", header.split(" where ")[0])[-1]
    names = [w for w in IDENT.findall(header) if w not in ("dyn", "mut", "unsafe")]
    return names[-1] if names else "?"


def scan_items(text, module):
    """Yields (path, kind, line) of each `pub` item at module level or
    in an inherent impl block."""
    stack, pending = [], None  # frames: ("mod" | "impl" | "other", name)
    for m in TOKEN.finditer(text):
        tok = m.group(0)
        at_item_level = all(kind != "other" for kind, _ in stack)
        if tok == "{":
            stack.append(pending or ("other", None))
            pending = None
        elif tok in "};":
            if tok == "}" and stack:
                stack.pop()
            pending = None
        elif tok == "impl":
            prev = text[: m.start()].rstrip()
            if at_item_level and (not prev or prev[-1] in ";{}]" or prev.endswith("unsafe")):
                pending = ("impl", impl_type(text[m.end():text.find("{", m.end())]))
        elif tok in ("fn", "trait"):
            if not pending or pending[0] != "impl":
                pending = ("other", None)
        elif m.group(5):
            pending = ("mod", m.group(5))
        else:
            kind, name = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
            if at_item_level:
                line = text.count("\n", 0, m.start()) + 1
                yield module + [n for _, n in stack] + [name], kind, line
            pending = ("mod", name) if kind == "mod" else ("other", None)


def attrs_end(text, i):
    """Where the attributes starting at `i` end (nested `[..]` allowed)."""
    while m := re.match(r"\s*#!?\[", text[i:]):
        depth, j = 0, i + m.end() - 1
        for j in range(j, len(text)):
            depth += {"[": 1, "]": -1}.get(text[j], 0)
            if depth == 0:
                break
        i = j + 1
    return i


def test_only_items(text, module):
    """Yields (path, line) of each `#[cfg(test)]` target in `text` that
    is not a `mod`: an item, a field or a statement, named by the owner
    (`impl` or type) it sits in and the name it declares — an `impl`
    block its type, a `use` the last name it imports, anything else
    its first identifier that is not a keyword."""
    stack, pending = [], None
    for m in OWNER_TOKEN.finditer(text):
        tok = m.group(0)
        if tok == "{":
            stack.append(pending)
            pending = None
        elif tok in "};":
            if tok == "}" and stack:
                stack.pop()
            pending = None
        elif tok == "impl":
            prev = text[: m.start()].rstrip()
            if not prev or prev[-1] in ";{}]" or prev.endswith("unsafe"):
                pending = impl_type(text[m.end():text.find("{", m.end())])
        elif m.group(1):
            pending = m.group(1)
        else:
            start = attrs_end(text, m.end())
            target = text[start:item_end(text, start)].lstrip()
            if re.match(r"(?:pub(?:\([^)]*\))?\s+)?mod\s", target):
                continue
            owner = [name for name in stack if name]
            if d := DECLARES.match(target):
                name = [d.group(1)]
            elif target.startswith("impl"):
                owner, name = [], [impl_type(target[4:target.find("{")])]
            elif target.startswith("use"):
                name = IDENT.findall(target)[-1:]
            else:
                name = [w for w in IDENT.findall(target) if w not in NOT_A_NAME][:1]
            line = text.count("\n", 0, m.start()) + 1
            yield module + owner[-1:] + name, line


def rust_files(root):
    return sorted(glob.glob(os.path.join(root, "**", "*.rs"), recursive=True))


def main():
    crates = {}  # crate -> (names, names in plain `use`s, items)
    test_only = {}  # path of a `#[cfg(test)]` target -> where it first is
    for src in sorted(glob.glob("crates/*/src")):
        with open(os.path.join(src, "..", "Cargo.toml")) as f:
            crate = re.search(r'(?m)^name\s*=\s*"([^"]+)"', f.read()).group(1)
        crate = crate.replace("-", "_")
        loaded = {path: load(path) for path in rust_files(src)}
        test_files = set()
        for path, (_, test_mods) in loaded.items():
            root = path.endswith(("/lib.rs", "/main.rs", "/mod.rs"))
            base = os.path.dirname(path) if root else path[:-3]
            for name in test_mods:
                test_files.add(os.path.join(base, name + ".rs"))
                test_files.update(rust_files(os.path.join(base, name)))
        names, imported, items = set(), set(), []
        for path, (text, _) in loaded.items():
            if path in test_files:
                continue
            found, used = names_in(text)
            names |= found
            imported |= used
            module = os.path.relpath(path, src)[:-3].split(os.sep)
            module = module[:-1] if module[-1] in ("lib", "main", "mod") else module
            with open(path, encoding="utf-8") as f:
                raw = LITERAL.sub(lambda m: blank(m.group(0)), f.read())
            for item_path, line in test_only_items(raw, module):
                test_only.setdefault("::".join([crate] + item_path), f"{path}:{line}")
            for item_path, kind, line in scan_items(text, module):
                path_name = "::".join([crate] + item_path)
                items.append((path_name, kind, item_path[-1], f"{path}:{line}"))
        crates[crate] = (names, imported, items)
    external = [names_in(load(path)[0]) for root in CALLERS for path in rust_files(root)]

    errors, allowed, tests_only = [], {}, {}
    section = allowed
    with open(ALLOWLIST, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            path, _, reason = line.partition("#")
            path, where = path.strip(), f"{os.path.relpath(ALLOWLIST)}:{number}"
            if path == TESTS_ONLY:
                section = tests_only
                continue
            if not path:
                continue
            if not reason.strip():
                errors.append(f"{where}: {path}: an allowlist entry names its reason after `#`")
            if path in section:
                errors.append(f"{where}: {path}: listed twice")
            section[path] = where

    results = {}  # path -> [passes, kind, where]
    for crate, (_, _, items) in crates.items():
        outside = [(n, u) for other, (n, u, _) in crates.items() if other != crate] + external
        names = set().union(*(n for n, _ in outside))
        imported = set().union(*(u for _, u in outside))
        for path, kind, name, where in items:
            passes = name in names or (kind in ("mod", "trait") and name in imported)
            results[path] = [passes, kind, where]
    for path, (passes, _, _) in list(results.items()):
        if passes or path in allowed:
            parts = path.split("::")
            for k in range(2, len(parts)):
                parent = results.get("::".join(parts[:k]))
                if parent and parent[1] == "mod":
                    parent[0] = parent[0] or "inside"

    flagged = sorted(
        (where, kind, path)
        for path, (passes, kind, where) in results.items()
        if not passes and path not in allowed
    )
    for where, kind, path in flagged:
        errors.append(f"{where}: pub {kind} {path}: no non-test code outside its crate names it")
    for path, where in allowed.items():
        if path not in results:
            errors.append(f"{where}: {path}: stale allowlist entry, no such pub item")
        elif results[path][0]:
            errors.append(f"{where}: {path}: stale allowlist entry, the item has a caller")
    for path, where in sorted(test_only.items(), key=lambda kv: kv[1]):
        if path not in tests_only:
            errors.append(f"{where}: #[cfg(test)] {path}: not listed under {TESTS_ONLY}")
    for path, where in tests_only.items():
        if path not in test_only:
            errors.append(f"{where}: {path}: stale allowlist entry, no such #[cfg(test)] item")
    for error in errors:
        print(error)
    print(
        f"{len(results)} pub items, {len(flagged)} without an outside caller, "
        f"{len(allowed)} allowlisted; {len(test_only)} compiled for tests only; "
        f"{len(errors)} error(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
