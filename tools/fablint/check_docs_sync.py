#!/usr/bin/env python3
"""Fails when the docs drift from the code they describe.

Two checks, both run by ctest (`fablint_docs_sync`) and the CI fablint job:

- Rule table. The README's static-analysis section documents every rule
  in a markdown table whose first cell is the backticked rule id. This
  check compares that set against the ids the binary actually registers,
  in both directions, so adding a rule without documenting it (or
  documenting a rule that was renamed or removed) fails.
- Code names. Every `ns::Name` inside a backticked span of README.md,
  DESIGN.md or PAPER.md (the files next to --readme), where `ns` is one
  of the library's namespaces, must still name code under src/ (next to
  the docs). A lone name must appear there as an identifier. A
  `Class::member` name resolves against that class: `member` must be
  declared in the body of a class, struct or enum named `Class` (or of
  one of its bases), or `Class::member` must appear in the code, as an
  out-of-line definition does. So a doc that names a deleted function or
  type fails, even when another class still has a member of that name.

Usage: check_docs_sync.py --fablint <binary> --readme <README.md>
"""

import argparse
import os
import re
import subprocess
import sys

# A rule id is lowercase words joined by hyphens (at least one hyphen),
# alone in the first cell of a table row. The hyphen requirement keeps
# other README tables (library targets, macros, endpoints) out.
_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`\s*\|")


def readme_rules(path):
    rules = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            match = _ROW.match(line)
            if match:
                rules.add(match.group(1))
    return rules


# The library's namespaces, top-level and nested (fab::obs, fab::stats).
_NAMESPACES = ("fab", "core", "ml", "serve", "net", "explain", "sim", "ta",
               "table", "util", "obs", "stats")
_SPAN = re.compile(r"`([^`\n]+)`")
_CODE_NAME = re.compile(
    r"(?<![\w:])((?:" + "|".join(_NAMESPACES) + r")(?:::[A-Za-z_]\w*)+)")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_DOCS = ("README.md", "DESIGN.md", "PAPER.md")


def code_names(path):
    """(line number, name) of every namespaced name in a backticked span."""
    names = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            for span in _SPAN.findall(line):
                names.extend((lineno, m.group(1))
                             for m in _CODE_NAME.finditer(span))
    return names


# Comments and string or character literals, blanked before the code is
# searched: a member named only in a comment is not declared.
_NOT_CODE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL)


def source_code(src_dir):
    """Every file under src/, comments and literals blanked, joined."""
    texts = []
    for root, _, files in sorted(os.walk(src_dir)):
        for name in sorted(files):
            with open(os.path.join(root, name), encoding="utf-8",
                      errors="replace") as fh:
                texts.append(_NOT_CODE.sub(" ", fh.read()))
    return "\n".join(texts)


class SourceIndex:
    """Answers "is this name still in src/?" for the code-name check."""

    def __init__(self, code):
        self.code = code
        self.idents = set(_IDENT.findall(code))
        self.namespaces = set(_NAMESPACES)
        for match in re.finditer(r"\bnamespace\s+([\w:]+)", code):
            self.namespaces.update(match.group(1).split("::"))
        self._bodies = {}

    def bodies(self, name):
        """(body identifiers, base names) per definition of type `name`."""
        if name not in self._bodies:
            # The keyword, then attributes or macros (no ':' or braces),
            # the name, an optional base clause, and the opening brace.
            head = re.compile(
                r"\b(?:class|struct|union|enum)\b[^;{}:]*?\b" +
                re.escape(name) + r"\s*(?:final\b)?\s*(:[^;{}]*)?\{")
            found = []
            for match in head.finditer(self.code):
                depth, end = 1, match.end()
                while depth and end < len(self.code):
                    depth += {"{": 1, "}": -1}.get(self.code[end], 0)
                    end += 1
                bases = _IDENT.findall(match.group(1) or "")
                found.append((set(_IDENT.findall(self.code[match.end():end])),
                              bases))
            self._bodies[name] = found
        return self._bodies[name]

    def has_member(self, cls, member, depth=0):
        if re.search(r"\b" + re.escape(cls) + r"\s*::\s*" +
                     re.escape(member) + r"\b", self.code):
            return True
        for body, bases in self.bodies(cls):
            if member in body:
                return True
            if depth < 4 and any(self.has_member(base, member, depth + 1)
                                 for base in bases if base not in
                                 ("public", "protected", "private",
                                  "virtual")):
                return True
        return False

    def resolves(self, name):
        parts = name.split("::")
        while len(parts) > 1 and parts[0] in self.namespaces:
            parts.pop(0)
        if len(parts) == 1:
            return parts[0] in self.idents
        return all(self.has_member(cls, member)
                   for cls, member in zip(parts, parts[1:]))


def stale_code_names(doc_dir):
    """Doc references that no longer name code under src/."""
    index = SourceIndex(source_code(os.path.join(doc_dir, "src")))
    checked = 0
    stale = []
    for doc in _DOCS:
        for lineno, name in code_names(os.path.join(doc_dir, doc)):
            checked += 1
            if not index.resolves(name):
                stale.append(f"{doc}:{lineno}: `{name}`")
    return checked, stale


def linter_rules(binary):
    out = subprocess.run(
        [binary, "--list-rules"], check=True, capture_output=True, text=True
    ).stdout
    return {line.split("\t", 1)[0] for line in out.splitlines() if line.strip()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fablint", required=True, help="fablint binary")
    parser.add_argument("--readme", required=True, help="README.md path")
    args = parser.parse_args()

    documented = readme_rules(args.readme)
    registered = linter_rules(args.fablint)

    undocumented = sorted(registered - documented)
    stale = sorted(documented - registered)
    if undocumented:
        print(
            "rules registered in fablint but missing from the README table: "
            + ", ".join(undocumented)
        )
    if stale:
        print(
            "rules documented in the README table but unknown to fablint: "
            + ", ".join(stale)
        )
    checked, stale_names = stale_code_names(
        os.path.dirname(os.path.abspath(args.readme)))
    if stale_names:
        print("docs name code that no longer exists under src/:")
        for ref in stale_names:
            print("  " + ref)
    if undocumented or stale or stale_names:
        return 1
    print(f"docs in sync: {len(registered)} rule(s), "
          f"{checked} code name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
