#!/usr/bin/env python3
"""Every public item needs to be public (DESIGN.md, "Public surface").

The compiler decides. On a copy of the tree (the checkout is never
edited), every `pub` item of the non-test part of `crates/*/src` is made
`pub(crate)`, and so is every `pub use`, split into one `use` per name
it binds (a leaf). The targets CI builds (`BUILDS`) are checked with
`-D private_interfaces -D private_bounds`. Each item or leaf an error
names is made `pub` again — a private item or import used, an item a
`pub use` re-exports that is not `pub`, a private type in a public
interface — and the builds run again until all of them pass. A
re-export an error names that is `pub` already is followed to the item
it names; the check stops if that is no item of the workspace. Fails on
each item or leaf that is still `pub` in the tree but was never put
back, unless `pub_callers_allow.txt`, beside this script, lists it as a
hook (`crate::path::Name  # reason`, the reason naming the test file
under `tests/` or `crates/*/tests` that reaches it; a leaf that
re-exports a hook is kept with it); the builds then run once more with
the hooks `pub`, so the types their signatures name are kept. Also
fails on a hook entry without such a reason, or whose item is gone or
was put back before that last round. Items a `macro_rules!` body
declares are left as they are.

Also fails on each `#[cfg(test)]` item, field or statement of
`crates/*/src` that is not a module of tests, unless the allowlist lists
it after its `[compiled for tests only]` line, and on such an entry
whose item is gone. Run from the repository root with no arguments; the
copy and its build cache live in `target/pub-fixpoint`, so a second run
builds incrementally.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pub_callers_allow.txt")
TESTS_ONLY = "[compiled for tests only]"  # the allowlist line that starts that section
# The non-test targets CI builds, and `bench/` with its tests (which
# reach the library from outside, as a separate package).
BUILDS = [
    ["--workspace", "--lib", "--bins", "--examples"],
    ["-p", "mctop", "--features", "model-check"],
    ["-p", "mctop-runtime", "--features", "model-check"],
    ["-p", "mctop-omp", "--features", "mctop/model-check"],
    ["-p", "mctop-runtime", "--no-default-features"],
    ["-p", "mctop-sort", "--no-default-features"],
    ["--manifest-path", "bench/Cargo.toml", "--all-targets"],
]
RUSTFLAGS = "-D private_interfaces -D private_bounds"
WORK = os.path.join("target", "pub-fixpoint")  # the copy and its build cache
NOT_COPIED = {".git", "target", os.path.join("bench", "target"), os.path.join("bench", "out")}
TEST_FILE = re.compile(r"(?<![\w/.-])(?:crates/[\w-]+/)?tests/[\w/.-]*\w\.rs\b")

# Comments, string literals and char literals (a lifetime is neither).
LITERAL = re.compile(
    r'//[^\n]*|/\*.*?\*/|\bb?r(#*)".*?"\1|b?"(?:\\.|[^"\\])*"'
    r"|b?'(?:\\(?:u\{\w*\}|.)|[^\\'])'",
    re.S,
)
ITEM = re.compile(
    r"\bpub\s+(?:(?:const|async|unsafe|extern)\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod|union)\s+(?:mut\s+)?(\w+)"
)
FRAME = re.compile(ITEM.pattern + r"|\bpub\s+use\s[^;]*;|\bmod\s+(\w+)\s*(?=\{)|\bimpl\b|\bfn\b|\btrait\b|[{};]")
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


def impl_type(header):
    """`Foo` for `impl<T> Foo<T> where ..` (trait impls hold no `pub fn`)."""
    while re.search(r"<[^<>]*>", header):
        header = re.sub(r"<[^<>]*>", " ", header)
    header = re.split(r"\bfor\b", header.split(" where ")[0])[-1]
    names = [w for w in IDENT.findall(header) if w not in ("dyn", "mut", "unsafe")]
    return names[-1] if names else "?"


def pub_items(text, module):
    """Yields (kind, path, offset of `pub`) of each `pub` item at module
    level or in an inherent impl block, and ("use", module, match) of
    each `pub use` there."""
    stack, pending = [], None  # frames: ("mod" | "impl" | "other", name)
    for m in FRAME.finditer(text):
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
        elif m.group(3):
            pending = ("mod", m.group(3))
        elif m.group(1):
            if at_item_level:
                yield m.group(1), module + [n for _, n in stack] + [m.group(2)], m.start()
            pending = ("mod", m.group(2)) if m.group(1) == "mod" else ("other", None)
        elif at_item_level:
            yield "use", module + [n for _, n in stack], m


def use_paths(tree, prefix=()):
    """The paths a use tree names, each with the name it binds:
    `a::{b, c::d as e, *}` gives (a::b, b), (a::c::d, e), (a::*, *)."""
    head, brace, rest = tree.partition("{")
    if not brace:
        path, _, alias = tree.partition(" as ")
        segs = list(prefix) + [s.strip() for s in path.split("::") if s.strip()]
        return [(segs, alias.strip() or segs[-1])] if segs else []
    base = list(prefix) + [s.strip() for s in head.split("::") if s.strip()]
    body, parts, depth, start = rest[: rest.rindex("}")], [], 0, 0
    for i, c in enumerate(body):
        depth += {"{": 1, "}": -1}.get(c, 0)
        if c == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p for part in parts if part.strip() for p in use_paths(" ".join(part.split()), base)]


def resolve(module, segs):
    """`segs`, a path written in `module`, as a path from its crate root."""
    if segs[0] == "crate":
        return segs[1:]
    if segs[0] == "self":
        segs = segs[1:]
    while segs and segs[0] == "super":
        module, segs = module[:-1], segs[1:]
    return list(module) + segs


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


def attrs_start(text, i):
    """Where the outer attributes just before offset `i` start."""
    while (j := len(text[:i].rstrip())) and text[j - 1] == "]":
        depth, k = 0, j - 1
        for k in range(j - 1, -1, -1):
            depth += {"]": 1, "[": -1}.get(text[k], 0)
            if depth == 0:
                break
        if k == 0 or text[k - 1] != "#":
            break
        i = k - 1
    return i


class Fixpoint:
    """The copy of the tree, its `pub` items and `pub use` leaves (one
    per name a `pub use` binds) and the builds over it."""

    def __init__(self, items, statements, crates):
        self.items, self.statements, self.crates = items, statements, crates
        self.work = os.path.realpath(WORK)
        self.tree = os.path.join(self.work, "tree")
        shutil.rmtree(self.tree, ignore_errors=True)
        shutil.copytree(
            ".",
            self.tree,
            symlinks=True,
            ignore=lambda d, names: [n for n in names if os.path.relpath(os.path.join(d, n)) in NOT_COPIED],
        )
        self.at_line = {}  # (file, line) -> indices of the items declared there
        for i, item in enumerate(items):
            if item["kind"] != "use":
                self.at_line.setdefault((item["file"], item["line"]), []).append(i)
        self.original, self.written, self.leaf_bytes = {}, {}, {}
        for item in items:
            if item["file"] not in self.original:
                with open(item["file"], encoding="utf-8") as f:
                    self.original[item["file"]] = f.read()
        self.restored, self.builds = set(), 0

    def vis(self, i):
        return "pub" if i in self.restored else "pub(crate)"

    def write(self):
        """Writes each file with every item and leaf not put back
        `pub(crate)`. A `pub use` becomes one `use` per leaf, each with
        the statement's attributes, on the statement's first line (the
        lines after it are kept empty, so every line stays put); where
        each leaf is written is kept, in bytes, to match error spans."""
        for path, text in self.original.items():
            edits = [(it["offset"], it["offset"] + 3, i) for i, it in enumerate(self.items) if it["file"] == path and it["kind"] != "use"]
            edits += [(st["start"], st["end"], st) for st in self.statements if st["file"] == path]
            out, size, last, leaves = [], 0, 0, []
            for start, end, edit in sorted(edits, key=lambda e: e[0]):
                pieces = [text[last:start]]
                if isinstance(edit, int):
                    pieces.append(self.vis(edit))
                else:
                    for n, j in enumerate(edit["leaves"]):
                        leaf = self.items[j]
                        alias = "" if leaf["segs"][-1] in ("*", leaf["path"][-1]) else f" as {leaf['path'][-1]}"
                        pieces.append(" " + edit["attrs"] + " " if n else "")
                        at = size + sum(len(x.encode()) for x in pieces)
                        pieces.append(f"{self.vis(j)} use {'::'.join(leaf['segs'])}{alias};")
                        leaves.append((at, at + len(pieces[-1].encode()), j))
                    pieces.append("\n" * text.count("\n", start, end))
                out += pieces
                size += sum(len(x.encode()) for x in pieces)
                last = end
            out.append(text[last:])
            text = "".join(out)
            self.leaf_bytes[path] = leaves
            if self.written.get(path) != text:
                with open(os.path.join(self.tree, path), "w", encoding="utf-8") as f:
                    f.write(text)
                self.written[path] = text

    def run(self):
        """Builds until every build passes; returns what was put back."""
        self.write()
        changed = True
        while changed:
            changed = False
            for build in BUILDS:
                while named := self.check(build):
                    self.restored |= named
                    changed = True
                    self.write()
        return self.restored

    def check(self, build):
        """Runs one build; returns what its errors name that is not `pub`
        yet, and exits on a failed build that names nothing new."""
        self.builds += 1
        env = dict(os.environ, RUSTFLAGS=RUSTFLAGS, CARGO_TARGET_DIR=os.path.join(self.work, "target"))
        proc = subprocess.run(
            ["cargo", "check", "--quiet", "--message-format=json", *build],
            cwd=self.tree, env=env, capture_output=True, text=True,
        )
        root = os.path.join(self.tree, "bench") if "bench/Cargo.toml" in build else self.tree
        named, rendered = set(), []
        for line in proc.stdout.splitlines():
            msg = json.loads(line) if line.startswith("{") else {}
            diag = msg.get("message") if msg.get("reason") == "compiler-message" else None
            if not diag or diag["level"] != "error" or not diag["spans"]:
                continue
            rendered.append(diag["rendered"])
            for span, text in self.definitions(diag):
                named |= self.named_at(root, span, text)
        named -= self.restored
        if proc.returncode and not named:
            print(f"cargo check {' '.join(build)} fails on something no `pub` puts right:", file=sys.stderr)
            print("".join(rendered) or proc.stderr, file=sys.stderr)
            sys.exit(2)
        return named

    @staticmethod
    def definitions(diag):
        """(span, message) of each place an error says an item is
        declared: where a private item or import is defined (E0603,
        E0624), the re-export of an item that is not `pub` (E0364,
        E0365), or a private type in a public interface
        (`private_interfaces`, `private_bounds`)."""
        code = (diag.get("code") or {}).get("code")
        for span in diag["spans"]:
            if code in ("E0364", "E0365") and span["is_primary"] or "defined here" in (span["label"] or ""):
                yield span, diag["message"]
        for child in diag["children"]:
            if re.search(r"defined here|only usable at visibility", child["message"]):
                for span in child["spans"]:
                    yield span, child["message"]

    def named_at(self, root, span, text):
        """What is declared at `span`: the leaf written there, or what a
        leaf that is `pub` already refers to, else the items declared on
        its line."""
        while span:
            path = os.path.relpath(os.path.join(root, span["file_name"]), self.tree)
            for start, end, j in self.leaf_bytes.get(path, []):
                if start <= span["byte_start"] < end:
                    return {self.target(j, text)} if j in self.restored else {j}
            if hits := self.at_line.get((path, span["line_start"])):
                return set(hits)
            span = (span.get("expansion") or {}).get("span")
        return set()

    def resolve(self, leaf, segs):
        """`segs`, a path in `leaf`'s `use`, from the root of its crate,
        its first segment the crate's name."""
        if segs[0] in self.crates and segs[0] != leaf["crate"]:
            return segs
        return [leaf["crate"]] + resolve(leaf["module"], segs)

    def target(self, j, text):
        """What leaf `j` re-exports (through a glob, the name `text`
        quotes), followed through leaves that are `pub` already; exits
        if it is no item or leaf of the workspace."""
        leaf = self.items[j]
        segs = leaf["segs"]
        shown = f"{leaf['file']}:{leaf['line']}: `pub use {'::'.join(segs)}`"
        if segs[-1] == "*":
            if not (name := re.search(r"`(?:\w+::)*(\w+)`", text)):
                sys.exit(f"{shown}: cannot tell which name of the glob an error means")
            segs = segs[:-1] + [name.group(1)]
        crate, *path = self.resolve(leaf, segs)
        hits = [i for i, it in enumerate(self.items) if it["crate"] == crate and it["path"] == path]
        if not hits:  # through a glob of the module the path names
            hits = [i for i, it in enumerate(self.items) if it["crate"] == crate and it["path"] == path[:-1] + ["*"]]
        if len(hits) != 1:
            sys.exit(f"{shown}: cannot tell what `{'::'.join(segs)}` is in the workspace")
        i = hits[0]
        if self.items[i]["kind"] == "use" and i in self.restored:
            return self.target(i, f"`{path[-1]}`")
        return i


def main():
    items, statements = [], []  # every `pub` item and `pub use` leaf outside test code; every `pub use`
    test_only = {}  # path of a `#[cfg(test)]` target -> where it first is
    crates = {}
    for src in sorted(glob.glob("crates/*/src")):
        with open(os.path.join(src, "..", "Cargo.toml")) as f:
            crates[src] = re.search(r'(?m)^name\s*=\s*"([^"]+)"', f.read()).group(1).replace("-", "_")
    for src, crate in crates.items():
        loaded = {path: load(path) for path in rust_files(src)}
        test_files = set()
        for path, (_, test_mods) in loaded.items():
            root = path.endswith(("/lib.rs", "/main.rs", "/mod.rs"))
            base = os.path.dirname(path) if root else path[:-3]
            for name in test_mods:
                test_files.add(os.path.join(base, name + ".rs"))
                test_files.update(rust_files(os.path.join(base, name)))
        for path, (text, _) in loaded.items():
            if path in test_files:
                continue
            module = os.path.relpath(path, src)[:-3].split(os.sep)
            module = module[:-1] if module[-1] in ("lib", "main", "mod") else module
            with open(path, encoding="utf-8") as f:
                original = f.read()
            raw = LITERAL.sub(lambda m: blank(m.group(0)), original)
            for item_path, line in test_only_items(raw, module):
                test_only.setdefault("::".join([crate] + item_path), f"{path}:{line}")
            for kind, item_path, at in pub_items(text, module):
                line = text.count("\n", 0, at if kind != "use" else at.start()) + 1
                if kind != "use":
                    items.append(dict(crate=crate, path=item_path, kind=kind, file=path, line=line, offset=at))
                    continue
                # The attributes go with each leaf, comments left out.
                attrs = original[attrs_start(text, at.start()):at.start()]
                attrs = " ".join(LITERAL.sub(lambda m: " " if m.group(0)[0] == "/" else m.group(0), attrs).split())
                statement = dict(file=path, start=at.start(), end=at.end(), attrs=attrs, leaves=[])
                statements.append(statement)
                for segs, alias in use_paths(" ".join(at.group(0).split())[len("pub use "):-1]):
                    if segs[-1] == "self":
                        segs, alias = segs[:-1], segs[-2] if alias == "self" else alias
                    statement["leaves"].append(len(items))
                    items.append(dict(crate=crate, path=item_path + [alias], kind="use", file=path, line=line, module=item_path, segs=segs))

    errors, hooks, tests_only = [], {}, {}
    section = hooks
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
            named = TEST_FILE.findall(reason)
            if section is hooks and (not named or not all(os.path.isfile(n) for n in named)):
                errors.append(f"{where}: {path}: a hook's reason names the test file under tests/ or crates/*/tests that reaches it")

    started = time.monotonic()
    fixpoint = Fixpoint(items, statements, set(crates.values()))
    needed = set(fixpoint.run())
    full = {i: "::".join([it["crate"]] + it["path"]) for i, it in enumerate(items)}
    mods = {full[i]: i for i, it in enumerate(items) if it["kind"] == "mod"}
    # What stays `pub` for the hooks: the hook (an item or a leaf), each
    # leaf that re-exports a hook, and, when none does, the modules a
    # free hook sits in, or the tests could not name it (a method is
    # named through its type).
    kept, reexported = {i for i, path in full.items() if path in hooks}, set()
    for j, leaf in enumerate(items):
        if leaf["kind"] == "use" and leaf["segs"][-1] != "*":
            if (target := "::".join(fixpoint.resolve(leaf, leaf["segs"]))) in hooks:
                kept.add(j)
                reexported.add(target)
    for path in set(hooks) - reexported:
        while (path := path.rpartition("::")[0]) in mods:
            kept.add(mods[path])
    # The hooks are `pub` in the tree, so the types their signatures
    # name must be too: the builds run again with the hooks `pub`.
    fixpoint.restored |= kept
    restored = fixpoint.run()
    survivors = sorted((f"{it['file']}:{it['line']}", it["kind"], full[i]) for i, it in enumerate(items) if i not in restored)
    for where, kind, path in survivors:
        errors.append(f"{where}: pub {kind} {path}: everything builds with it pub(crate)")
    for path, where in hooks.items():
        mine = [i for i, p in full.items() if p == path]
        if not mine:
            errors.append(f"{where}: {path}: stale allowlist entry, no such pub item or re-export")
        elif any(i in needed for i in mine):
            errors.append(f"{where}: {path}: stale allowlist entry, a non-test build needs it pub")
    for path, where in sorted(test_only.items(), key=lambda kv: kv[1]):
        if path not in tests_only:
            errors.append(f"{where}: #[cfg(test)] {path}: not listed under {TESTS_ONLY}")
    for path, where in tests_only.items():
        if path not in test_only:
            errors.append(f"{where}: {path}: stale allowlist entry, no such #[cfg(test)] item")
    for error in errors:
        print(error)
    leaves = sum(len(st["leaves"]) for st in statements)
    print(
        f"{len(items) - leaves} pub items and {leaves} pub use leaves: {len(needed)} needed pub by a build, "
        f"{len(kept)} kept for {len(hooks)} hooks, {len(restored - needed - kept)} more by the hooks' signatures; "
        f"{len(test_only)} compiled for tests only; {fixpoint.builds} builds in "
        f"{time.monotonic() - started:.0f} s; {len(errors)} error(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
