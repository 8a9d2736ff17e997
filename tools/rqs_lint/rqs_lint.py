#!/usr/bin/env python3
"""rqs-lint: repo-specific determinism & safety linter.

The repo's headline guarantees — byte-identical golden trace digests, a
zero-allocation simulator hot path, thread-count-invariant swarm reports —
hold only if the protocol and simulator sources obey rules no general
compiler warning enforces. This linter machine-checks them:

  nondet          No nondeterminism sources in src/: std::random_device,
                  rand()/srand(), wall-clock / monotonic clock reads
                  (system_clock, steady_clock, high_resolution_clock,
                  time(), gettimeofday, clock_gettime), thread ids
                  (std::this_thread::get_id, pthread_self) and getenv.
                  All randomness must flow from a seeded rqs::Rng; all time
                  from the simulation's virtual clock.

  unordered-iter  No std::unordered_{map,set,multimap,multiset} in
                  protocol/simulator code (src/sim, src/consensus,
                  src/storage, src/scenario, src/obs, src/mc). Their
                  iteration order is hash/libc++-version dependent; one
                  stray iteration turns a golden digest into a coin flip.
                  Use the repo's sorted flat containers (FlatMap and
                  FlatSet in common/flat_map.hpp, ServerHistory) or
                  std::map/std::set.

  hot-path-alloc  Functions annotated `// rqs-hot-path`, anywhere in src/,
                  must not allocate: no new / std::make_shared /
                  std::make_unique, and no container-growth calls
                  (push_back, emplace_back, emplace, insert, resize,
                  reserve, append). FlatMap::try_emplace is annotated too,
                  so the growth of every flat table is checked at its one
                  insert.
                  This pins the PR-5 zero-allocation claim statically.
                  Placement new (`new (block) T`) is allocation-free and
                  permitted.

Suppressions: a `// rqs-lint: allow(<rule>) <reason>` comment suppresses
that rule on its own line, or on the next line when the marker line is
comment-only. File-level allowances live in ALLOWLIST below — extend it
with a justification comment, never silently.

File universe: translation units from compile_commands.json (pass
--compile-commands or let it default to <root>/build/compile_commands.json)
plus headers reachable through their quoted includes, UNIONED with a walk
of src/ — a header-only template included solely from tests or benches
(e.g. a width-generic analysis header) is still linted. Falls back to the
walk alone when no compilation database exists. Exit status 1 iff findings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Directories (relative to the repo root) holding protocol/simulator code,
# where unordered-iter applies. src/obs is included because the observer
# sits on the simulator dispatch path. In src/common and src/core (pure
# math and container code, not on any trace path) unordered iteration
# cannot reach a digest; nondet and hot-path-alloc apply everywhere.
PROTOCOL_DIRS = ("src/sim", "src/consensus", "src/storage", "src/scenario",
                 "src/obs", "src/mc")

# File-level allowances: path suffix -> set of rules switched off, with the
# justification required to live right here.
ALLOWLIST: dict[str, set[str]] = {
    # (none today — the tree is clean; add entries as
    #  "src/sim/foo.cpp": {"nondet"},  # reason...
}

NONDET_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device is nondeterministic; seed a rqs::Rng instead"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() draw from hidden global state; use a seeded rqs::Rng"),
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"), "wall/monotonic clock reads break replayability; use Simulation::now() virtual time"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time() reads the wall clock; use virtual time"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\b"), "wall-clock read; use virtual time"),
    (re.compile(r"std::this_thread::get_id|\bpthread_self\b"), "thread ids vary run to run; workers must be identified by index"),
    (re.compile(r"(?<![\w:])getenv\s*\("), "environment reads make runs host-dependent; plumb configuration explicitly"),
]

UNORDERED_PATTERN = re.compile(r"std::unordered_(map|set|multimap|multiset)\b")

HOTPATH_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "operator new on a hot path"),
    (re.compile(r"std::make_(shared|unique)\b"), "smart-pointer allocation on a hot path"),
    (re.compile(r"\.\s*(push_back|emplace_back|emplace|insert|resize|reserve|append|push_front)\s*\("), "container growth on a hot path"),
]

HOT_PATH_MARK = re.compile(r"^\s*//\s*rqs-hot-path\b")
ALLOW_MARK = re.compile(r"//\s*rqs-lint:\s*allow\(([a-z\-, ]+)\)")
COMMENT_ONLY = re.compile(r"^\s*(//|/\*|\*)")

class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.msg}"


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------

def strip_code(lines: list[str]) -> list[str]:
    """Returns lines with comments, string and char literals blanked out
    (lengths not preserved), so token scans and brace counting see only
    code. Handles // and /* */ comments and simple escapes; raw strings are
    treated as plain strings (good enough for this tree)."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                res.append(quote + quote)  # keep a token boundary
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def allowed_rules(raw_lines: list[str]) -> list[set[str]]:
    """Per-line suppression sets. A marker suppresses its own line; when the
    marker line holds nothing but the comment, it also covers the next
    line."""
    allowed: list[set[str]] = [set() for _ in raw_lines]
    for idx, line in enumerate(raw_lines):
        m = ALLOW_MARK.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed[idx] |= rules
        if COMMENT_ONLY.match(line) and idx + 1 < len(raw_lines):
            allowed[idx + 1] |= rules
    return allowed


def hot_path_lines(raw_lines: list[str], code_lines: list[str]) -> set[int]:
    """Indices of lines inside `// rqs-hot-path`-annotated function bodies
    (from the opening brace to its match)."""
    hot: set[int] = set()
    i = 0
    while i < len(raw_lines):
        if not HOT_PATH_MARK.match(raw_lines[i]):
            i += 1
            continue
        # Find the body's opening brace, then walk to its match.
        depth = 0
        opened = False
        j = i + 1
        while j < len(raw_lines):
            for c in code_lines[j]:
                if c == "{":
                    depth += 1
                    opened = True
                elif c == "}":
                    depth -= 1
            if opened:
                hot.add(j)
            if opened and depth <= 0:
                break
            j += 1
        i = j + 1
    return hot


# --------------------------------------------------------------------------
# Per-file checks
# --------------------------------------------------------------------------

def scan_file(path: Path, rel: str, findings: list[Finding]) -> None:
    try:
        raw = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        findings.append(Finding(path, 0, "io", f"unreadable: {e}"))
        return
    code = strip_code(raw)
    allowed = allowed_rules(raw)
    file_allow = set()
    for suffix, rules in ALLOWLIST.items():
        if rel.endswith(suffix):
            file_allow |= rules

    in_protocol = rel.startswith(PROTOCOL_DIRS) or not rel.startswith("src/")

    for idx, cl in enumerate(code):
        lineno = idx + 1
        if "nondet" not in file_allow and "nondet" not in allowed[idx]:
            for pat, msg in NONDET_PATTERNS:
                if pat.search(cl):
                    findings.append(Finding(path, lineno, "nondet", msg))
        if in_protocol and "unordered-iter" not in file_allow \
                and "unordered-iter" not in allowed[idx]:
            if UNORDERED_PATTERN.search(cl):
                findings.append(Finding(
                    path, lineno, "unordered-iter",
                    "unordered container in protocol/simulator code: "
                    "iteration order is hash-dependent and breaks golden "
                    "digests; use a flat sorted container or std::map/set"))

    for idx in sorted(hot_path_lines(raw, code)):
        if "hot-path-alloc" in file_allow or "hot-path-alloc" in allowed[idx]:
            continue
        for pat, msg in HOTPATH_PATTERNS:
            if pat.search(code[idx]):
                findings.append(Finding(
                    path, idx + 1, "hot-path-alloc",
                    f"{msg} (function annotated // rqs-hot-path)"))


# --------------------------------------------------------------------------
# File universe
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def universe_from_compile_commands(cc_path: Path, root: Path) -> list[Path]:
    """Translation units under <root>/src from the compilation database,
    closed over their quoted includes (repo includes are rooted at src/)."""
    entries = json.loads(cc_path.read_text(encoding="utf-8"))
    src_root = (root / "src").resolve()
    seen: set[Path] = set()
    work: list[Path] = []
    for e in entries:
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e["directory"]) / f
        f = f.resolve()
        if src_root in f.parents and f not in seen:
            seen.add(f)
            work.append(f)
    # Close over quoted includes, resolved against src/ then the includer's
    # own directory (the two include roots the build uses).
    while work:
        f = work.pop()
        try:
            text = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        for inc in INCLUDE_RE.findall(text):
            for base in (src_root, f.parent):
                cand = (base / inc).resolve()
                if cand.exists() and src_root in cand.parents and cand not in seen:
                    seen.add(cand)
                    work.append(cand)
                    break
    return sorted(seen)


def universe_from_walk(root: Path) -> list[Path]:
    return sorted(p.resolve() for p in (root / "src").rglob("*")
                  if p.suffix in (".hpp", ".cpp", ".h", ".cc"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run(root: Path, files: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(f)
        scan_file(f, rel, findings)
    findings.sort(key=lambda x: (str(x.path), x.line, x.rule))
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compilation database (default: <root>/build/compile_commands.json)")
    ap.add_argument("paths", nargs="*", type=Path,
                    help="explicit files to lint (default: the src/ universe)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    if args.paths:
        files = [p.resolve() for p in args.paths]
    else:
        cc = args.compile_commands or root / "build" / "compile_commands.json"
        files = universe_from_walk(root)
        if cc.exists():
            # Union, not replacement: the walk catches header-only templates
            # no src/ TU includes; the database closure catches generated or
            # out-of-tree sources the walk cannot see.
            files = sorted(set(files) | set(universe_from_compile_commands(cc, root)))
    if not files:
        print("rqs-lint: no files to lint", file=sys.stderr)
        return 2

    findings = run(root, files)
    for f in findings:
        print(f.render(root))
    n_hot = sum(1 for p in files
                for line in p.read_text(encoding="utf-8", errors="replace").splitlines()
                if HOT_PATH_MARK.match(line))
    print(f"rqs-lint: {len(files)} files, {n_hot} hot-path functions, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
