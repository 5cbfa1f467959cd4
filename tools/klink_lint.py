#!/usr/bin/env python3
"""Repo-local lint for Klink: the correctness rules generic tooling can't see.

Klink's scheduling decisions are driven by exact bookkeeping — watermark
monotonicity, SWM epoch ordering, per-query byte accounting (PAPER.md
Sec. 3) — and the engine replays byte-identically across executor backends.
That contract is easy to break silently: one wall-clock read in a policy, one
lock taken out of order. These rules make the contract mechanical:

  determinism     src/ (outside src/harness/) must not read wall clocks or
                  non-seeded randomness. The engine runs on virtual time;
                  the harness and the real-socket net paths are the only
                  places real time may enter, and the latter need an
                  explicit allow pragma.
  raw-new-delete  No raw new/delete expressions; ownership goes through
                  std::unique_ptr / containers.
  include-guard   Headers carry the canonical KLINK_<PATH>_H_ guard.
  iwyu            Headers directly include the std headers whose symbols
                  they name (a deterministic include-what-you-use subset
                  for the public headers; no compiler needed).
  relaxed-atomics Every std::memory_order_relaxed in src/ carries an allow
                  pragma citing the invariant that makes relaxed sound
                  (monotonic counter merged under the executor barrier,
                  test-only flag, ...). Unaudited relaxed atomics are how
                  cross-thread protocols acquire invisible ordering bugs.
  lock-order      (whole-tree) Builds the lock-order graph: an edge A -> B
                  for every mutex B acquired while A is held — from nested
                  MutexLock/Mutex::Lock scopes, from KLINK_REQUIRES
                  contracts on the enclosing function, and from
                  KLINK_ACQUIRED_BEFORE/_AFTER declarations — and rejects
                  cycles. A cycle is one schedule away from deadlock; the
                  schedule explorer (tests/support/schedule_explorer.h) finds
                  it dynamically, this rule finds it before the code runs.
  guarded-by      (whole-tree) Every access to a KLINK_GUARDED_BY(mu) field
                  must sit inside a MutexLock scope on mu, in a function
                  annotated KLINK_REQUIRES(mu)/KLINK_ACQUIRE(mu), or in a
                  constructor/destructor (clang's analysis exempts those).
                  This is the lexical re-check of what a clang
                  -Wthread-safety build proves exactly; it keeps GCC-only
                  environments honest about the same annotations.

The concurrency rules (lock-order, guarded-by) are deliberately a lexical
approximation: brace-matched scopes, no type or alias analysis. Clang with
-Werror=thread-safety (the CI thread-safety job) is the authoritative
checker; these rules exist so a GCC-only checkout still gets a net.

Rules the compiler already enforces are not repeated here: Status and
StatusOr are [[nodiscard]], -Wswitch-enum (an error with KLINK_WERROR)
makes every switch over an enum list each of its values, and the byte
counters (StreamQueue::bytes_/data_count_, Operator::state_bytes_) are
private members only their owners and test peers can write.

Suppression: append `// klink-lint: allow(<rule>): <reason>` to the line,
or put it on the line directly above.

Golden tests: tests/lint/lint_rules_test.py replays every rule against the
fixture snippets in tests/lint/fixtures/ (each declares its intended repo
path and expected findings) and then asserts the real tree is clean; ctest
runs it as lint_rules_test.

Usage:
  tools/klink_lint.py [--repo DIR] [--changed] [--clang-tidy EXE]
                      [--compile-commands PATH] [files...]

Exit status is non-zero when any finding (or clang-tidy diagnostic) is
reported. Run via `cmake --build build --target lint`.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys

# ---------------------------------------------------------------------------
# File collection

CXX_EXTENSIONS = (".h", ".cc", ".cpp")


def repo_files(repo, subdirs):
    out = []
    for sub in subdirs:
        base = os.path.join(repo, sub)
        for root, dirs, names in os.walk(base):
            dirs[:] = sorted(d for d in dirs if not d.startswith("build"))
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.relpath(os.path.join(root, name), repo))
    return out


def changed_files(repo):
    """Files differing from the merge base with origin/main (or HEAD~1)."""
    for base in ("origin/main", "main", "HEAD~1"):
        proc = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", base, "--"],
            cwd=repo, capture_output=True, text=True)
        if proc.returncode == 0:
            return [f for f in proc.stdout.splitlines()
                    if f.endswith(CXX_EXTENSIONS)]
    return []


# ---------------------------------------------------------------------------
# Lexical preprocessing: strip comments and string/char literals so token
# rules never fire on prose. Line-oriented; tracks /* */ across lines.

def strip_code(lines):
    """Returns lines with comments and literal contents blanked out."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                res.append(quote)
                i += 1
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


# ---------------------------------------------------------------------------
# Rules

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


ALLOW_RE = re.compile(r"klink-lint:\s*allow\(([a-z-]+)\)")


def allowed(rule, raw_lines, idx):
    """True if line idx (0-based) or the line above carries an allow pragma."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = ALLOW_RE.search(raw_lines[j])
        if m and m.group(1) == rule:
            return True
    return False


DETERMINISM_PATTERNS = [
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()"),
    (re.compile(r"\b(localtime|mktime|gmtime)\s*\("), "calendar time"),
]


def check_determinism(path, raw, code):
    # Virtual-time engine: real time may enter only through the harness
    # (which owns wall-clock measurement) or an explicitly allowed site.
    if not path.startswith("src/") or path.startswith("src/harness/"):
        return
    for i, line in enumerate(code):
        for pat, what in DETERMINISM_PATTERNS:
            if pat.search(line) and not allowed("determinism", raw, i):
                yield Finding(path, i + 1, "determinism",
                              f"{what} in the virtual-time engine; real time "
                              "belongs in src/harness/ (or add an allow "
                              "pragma with a reason)")


def allowed_near(rule, raw_lines, idx, up):
    """Like allowed(), but the pragma may sit anywhere in the comment block
    up to `up` lines above."""
    for j in range(max(0, idx - up), idx + 1):
        m = ALLOW_RE.search(raw_lines[j])
        if m and m.group(1) == rule:
            return True
    return False


NEW_RE = re.compile(r"\bnew\b\s*[\(A-Za-z_:]")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?\s*[\(A-Za-z_:*]")
DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")


def check_raw_new_delete(path, raw, code):
    if not (path.startswith("src/") or path.startswith("tools/")):
        return
    for i, line in enumerate(code):
        if DELETED_FN_RE.search(line):
            line = DELETED_FN_RE.sub("", line)
        if (NEW_RE.search(line) or DELETE_RE.search(line)) \
                and not allowed("raw-new-delete", raw, i):
            yield Finding(path, i + 1, "raw-new-delete",
                          "raw new/delete; own memory with std::unique_ptr "
                          "or a container")


def check_include_guard(path, raw, code):
    if not path.startswith("src/") or not path.endswith(".h"):
        return
    want = path[len("src/"):]
    guard = "KLINK_" + re.sub(r"[/.]", "_", want).upper() + "_"
    text = "\n".join(code)
    if (f"#ifndef {guard}" not in text) or (f"#define {guard}" not in text):
        yield Finding(path, 1, "include-guard",
                      f"header guard must be {guard}")


# std symbol -> required direct include. Only unambiguous mappings: a header
# that names the symbol must include the header that defines it.
IWYU_SYMBOLS = {
    r"\bstd::vector\s*<": "<vector>",
    r"\bstd::string\b": "<string>",
    r"\bstd::(unique_ptr|shared_ptr|make_unique|make_shared)\b": "<memory>",
    r"\bstd::map\s*<": "<map>",
    r"\bstd::unordered_map\s*<": "<unordered_map>",
    r"\bstd::deque\s*<": "<deque>",
    r"\bstd::array\s*<": "<array>",
    r"\bstd::optional\s*<": "<optional>",
    r"\bstd::function\s*<": "<functional>",
    r"\bstd::atomic\b": "<atomic>",
    r"\bstd::mutex\b|\bstd::lock_guard\b|\bstd::unique_lock\b": "<mutex>",
    r"\bstd::thread\b": "<thread>",
    r"\bstd::condition_variable\b": "<condition_variable>",
    r"\bstd::(u?int(8|16|32|64)_t)\b|\b(u?int(8|16|32|64)_t)\{": "<cstdint>",
}


def check_iwyu(path, raw, code):
    if not path.startswith("src/") or not path.endswith(".h"):
        return
    text = "\n".join(code)
    includes = set(re.findall(r'#include\s+([<"][^">]+[">])', text))
    direct = {inc for inc in includes if inc.startswith("<")}
    for pat, header in IWYU_SYMBOLS.items():
        m = re.search(pat, text)
        if m is None:
            continue
        if header not in direct:
            line = text[:m.start()].count("\n") + 1
            if not allowed("iwyu", raw, line - 1):
                yield Finding(path, line, "iwyu",
                              f"uses {m.group(0).strip()} but does not "
                              f"directly include {header}")


def check_relaxed_atomics(path, raw, code):
    # Relaxed ordering is a per-site proof obligation, not a default: it is
    # sound only when the surrounding protocol supplies the ordering (the
    # executor's cycle barrier, a test-only monotonic flag). The pragma
    # reason is where that proof lives.
    if not path.startswith("src/"):
        return
    for i, line in enumerate(code):
        if "memory_order_relaxed" in line \
                and not allowed_near("relaxed-atomics", raw, i, 3):
            yield Finding(path, i + 1, "relaxed-atomics",
                          "memory_order_relaxed without an audit pragma; "
                          "state the invariant that supplies the ordering "
                          "(// klink-lint: allow(relaxed-atomics): <why>) "
                          "or use acquire/release")


# ---------------------------------------------------------------------------
# Lexical C++ scope model shared by the concurrency rules (lock-order,
# guarded-by). parse_functions() brace-matches a comment/string-stripped
# file into class regions and function bodies; the rules then walk bodies
# tracking MutexLock scopes by brace depth. Deliberately an approximation —
# clang -Wthread-safety is the exact checker — but precise enough to be
# zero-noise on this codebase, and it runs everywhere GCC does.

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "do", "else", "return",
    "case", "default", "sizeof", "alignof", "decltype", "new", "delete",
}


class FuncScope:
    __slots__ = ("cls", "name", "sig", "line", "end")

    def __init__(self, cls, name, sig, line):
        self.cls = cls    # enclosing/qualifying class name, or None
        self.name = name  # unqualified name ("~X" for a destructor)
        self.sig = sig    # signature text up to the opening brace
        self.line = line  # 0-based line of the opening '{'
        self.end = line   # 0-based line of the closing '}'


def _classify_scope(sig, in_func):
    """Classifies the text before a '{': ('class', name) | ('func',
    (qualifier, name, sig)) | ('block', None)."""
    sig = sig.replace("\n", " ")
    bare = re.sub(r"KLINK_\w+\s*(\([^()]*\))?", " ", sig).strip()
    if not bare:
        return "block", None
    m = re.search(r"\b(class|struct|union|enum)\b", bare)
    if m is not None and "(" not in bare[:m.start()]:
        nm = re.search(
            r"\b(?:class|struct|union|enum)\s+(?:class\s+|struct\s+)?"
            r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{]*)?$", bare)
        if nm is not None:
            return "class", nm.group(1)
    if re.match(r"(namespace|extern)\b", bare):
        return "block", None
    p = bare.find("(")
    if p < 0 or in_func:
        return "block", None
    stripped = bare.rstrip()
    if stripped.endswith(("=", "]")) or "](" in bare.replace(" ", ""):
        return "block", None  # braced init / lambda, not a definition
    head = bare[:p].rstrip()
    nm = re.search(r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)$", head)
    if nm is None or nm.group(2).lstrip("~") in CONTROL_KEYWORDS:
        return "block", None
    return "func", (nm.group(1), nm.group(2), sig.strip())


def parse_functions(code):
    """Returns (funcs, classes): top-level function bodies as FuncScope and
    class regions as (name, first_line, last_line) over stripped lines."""
    lines = ["" if l.lstrip().startswith("#") else l for l in code]
    funcs, classes = [], []
    class_stack = []  # (depth, name)
    scopes = []       # one ('kind', meta, open_line) per open '{'
    func_stack = []
    depth = 0
    line = 0
    stmt = []
    for ch in "\n".join(lines):
        if ch == "\n":
            line += 1
            ch = " "
        if ch == ";":
            stmt = []
        elif ch == "{":
            kind, meta = _classify_scope("".join(stmt), bool(func_stack))
            if kind == "class" and not func_stack:
                class_stack.append((depth, meta))
                scopes.append(("class", meta, line))
            elif kind == "func" and not func_stack:
                qual, name, sig = meta
                cls = qual or (class_stack[-1][1] if class_stack else None)
                fn = FuncScope(cls, name, sig, line)
                func_stack.append(fn)
                scopes.append(("func", fn, line))
            else:
                scopes.append(("block", None, line))
            depth += 1
            stmt = []
        elif ch == "}":
            depth -= 1
            if scopes:
                kind, meta, l0 = scopes.pop()
                if kind == "class":
                    class_stack.pop()
                    classes.append((meta, l0, line))
                elif kind == "func":
                    meta.end = line
                    funcs.append(meta)
                    func_stack.pop()
            stmt = []
        else:
            stmt.append(ch)
    return funcs, classes


def _resolve(cls, expr):
    """Canonical lock-graph node for a mutex expression at a use site."""
    expr = re.sub(r"\s+", "", expr)
    expr = re.sub(r"^this->", "", expr)
    if "." in expr or "->" in expr:
        return expr  # a member of some other object: keep the path text
    return f"{cls or '<file>'}::{expr}"


def _held_on_entry(sig, cls):
    """Mutex nodes a function may assume held, per its annotations."""
    out = set()
    for m in re.finditer(r"KLINK_(?:REQUIRES|ACQUIRE)(?:_SHARED)?"
                         r"\s*\(([^)]*)\)", sig):
        for a in m.group(1).split(","):
            a = a.strip()
            if a and not a.startswith("!"):
                out.add(_resolve(cls, a))
    return out


LOCK_EVENT_RE = re.compile(
    r"\bMutexLock\s+([A-Za-z_]\w*)\s*[({]\s*&\s*"
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)"
    r"|\b([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*"
    r"(?:\.|->)\s*(Lock|Unlock|Relock)\s*\(\s*\)")

FIELD_GUARD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s+KLINK_(?:PT_)?GUARDED_BY\s*\(\s*([^)]+?)\s*\)")

DECL_ORDER_RE = re.compile(
    r"\bMutex\s+([A-Za-z_]\w*)[^;]*"
    r"KLINK_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")


class ConcurrencyModel:
    """Whole-tree aggregate for the lock-order and guarded-by rules: field
    guards may be declared in a header while the violating method body
    lives in the .cc, and a lock-order cycle may span files, so both rules
    run after every file has been scanned."""

    # The annotation/instrumentation substrate itself manipulates the raw
    # std primitives by design; its safety argument is its own doc comment.
    EXCLUDED = {"src/common/thread_annotations.h"}

    def __init__(self):
        self.files = {}        # path -> (funcs, raw, code)
        self.fields = {}       # cls -> {field: (node, path, line)}
        self.edges = []        # (holder, acquired, path, 0-based line)

    def add_file(self, path, raw, code):
        if not path.startswith("src/") or path in self.EXCLUDED:
            return
        text = "\n".join(code)
        if not re.search(r"\bMutexLock\b|KLINK_GUARDED_BY|KLINK_PT_GUARDED"
                         r"|KLINK_ACQUIRED_|\bMutex\b", text):
            return
        funcs, classes = parse_functions(code)
        self.files[path] = (funcs, raw, code)
        for i, line in enumerate(code):
            if any(f.line <= i <= f.end for f in funcs):
                continue  # declarations only; bodies are walked later
            cls = self._innermost(classes, i)
            for m in FIELD_GUARD_RE.finditer(line):
                field, mu = m.group(1), m.group(2)
                self.fields.setdefault(cls, {})[field] = \
                    (_resolve(cls, mu), path, i)
            dm = DECL_ORDER_RE.search(line)
            if dm is not None and not allowed("lock-order", raw, i):
                this_node = _resolve(cls, dm.group(1))
                for other in dm.group(3).split(","):
                    other = other.strip()
                    if not other:
                        continue
                    pair = (this_node, _resolve(cls, other))
                    if dm.group(2) == "AFTER":
                        pair = (pair[1], pair[0])
                    self.edges.append((*pair, path, i))

    @staticmethod
    def _innermost(classes, line):
        best = None
        for name, l0, l1 in classes:
            if l0 <= line <= l1 and (best is None or l0 > best[1]):
                best = (name, l0)
        return best[0] if best else None

    def _walk(self, path, fn, raw, code):
        """Walks one function body. Returns {0-based line: held node set}
        and appends lock-order edges discovered along the way."""
        entry = _held_on_entry(fn.sig, fn.cls)
        held = []       # [{node, var, mu, depth}] in acquisition order
        lock_vars = {}  # MutexLock var -> node, for Relock() after Unlock()
        depth = 0
        held_lines = {}
        for ln in range(fn.line, min(fn.end, len(code) - 1) + 1):
            text = code[ln]
            before = {h["node"] for h in held} | entry
            events = [(m.start(), m) for m in LOCK_EVENT_RE.finditer(text)]
            events += [(m.start(), m.group(0))
                       for m in re.finditer(r"[{}]", text)]
            for _, ev in sorted(events, key=lambda e: e[0]):
                if ev == "{":
                    depth += 1
                elif ev == "}":
                    depth -= 1
                    held = [h for h in held if h["depth"] <= depth]
                else:
                    lockvar, mu, obj, op = ev.group(1, 2, 3, 4)
                    if lockvar is not None:
                        self._acquire(path, ln, raw, fn, held, entry,
                                      _resolve(fn.cls, mu), lockvar,
                                      re.sub(r"\s+", "", mu), depth)
                        lock_vars[lockvar] = _resolve(fn.cls, mu)
                    elif op == "Lock":
                        self._acquire(path, ln, raw, fn, held, entry,
                                      _resolve(fn.cls, obj), None,
                                      re.sub(r"\s+", "", obj), depth)
                    elif op == "Unlock":
                        for h in reversed(held):
                            if obj in (h["var"], h["mu"]):
                                held.remove(h)
                                break
                    elif op == "Relock" and obj in lock_vars:
                        self._acquire(path, ln, raw, fn, held, entry,
                                      lock_vars[obj], obj, None, depth)
            held_lines[ln] = before | {h["node"] for h in held} | entry
        return held_lines

    def _acquire(self, path, ln, raw, fn, held, entry, node, var, mu,
                 depth):
        if not allowed("lock-order", raw, ln):
            for holder in sorted({h["node"] for h in held} | entry):
                if holder != node:
                    self.edges.append((holder, node, path, ln))
        held.append({"node": node, "var": var, "mu": mu, "depth": depth})

    def findings(self):
        out = []
        for path in sorted(self.files):
            funcs, raw, code = self.files[path]
            for fn in funcs:
                held_lines = self._walk(path, fn, raw, code)
                out.extend(self._check_guarded(path, fn, raw, code,
                                               held_lines))
        out.extend(self._check_cycles())
        return out

    def _check_guarded(self, path, fn, raw, code, held_lines):
        guards = self.fields.get(fn.cls)
        if not guards:
            return
        # Mirror clang: constructors/destructors run before/after sharing,
        # and NO_THREAD_SAFETY_ANALYSIS opts a function out entirely.
        if fn.name in (fn.cls, f"~{fn.cls}") \
                or "KLINK_NO_THREAD_SAFETY_ANALYSIS" in fn.sig:
            return
        for ln in range(fn.line, min(fn.end, len(code) - 1) + 1):
            for field, (node, dpath, dline) in sorted(guards.items()):
                if not re.search(rf"\b{field}\b", code[ln]):
                    continue
                if node in held_lines.get(ln, set()):
                    continue
                if allowed("guarded-by", raw, ln):
                    continue
                yield Finding(
                    path, ln + 1, "guarded-by",
                    f"{fn.cls}::{field} is KLINK_GUARDED_BY"
                    f"({node.split('::')[-1]}) ({dpath}:{dline + 1}) but "
                    f"{fn.name}() touches it without the lock held; take "
                    "a MutexLock, annotate the function KLINK_REQUIRES, "
                    "or justify with an allow pragma")

    def _check_cycles(self):
        adj, sites = {}, {}
        for holder, node, path, ln in self.edges:
            adj.setdefault(holder, set()).add(node)
            sites.setdefault((holder, node), (path, ln + 1))
        seen = set()
        for start in sorted(adj):
            cycle = self._find_cycle(adj, start)
            if cycle is None:
                continue
            # Normalize: rotate so the smallest node leads, dedup.
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
            if tuple(cycle) in seen:
                continue
            seen.add(tuple(cycle))
            hops = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p, l = sites[(a, b)]
                hops.append(f"{a} -> {b} ({p}:{l})")
            path, line = sites[(cycle[0], cycle[1 % len(cycle)])]
            yield Finding(
                path, line, "lock-order",
                "lock-order cycle (deadlock one schedule away): "
                + "; ".join(hops))

    @staticmethod
    def _find_cycle(adj, start):
        """First cycle reachable from `start` (DFS, sorted adjacency)."""
        stack, on_path = [(start, iter(sorted(adj.get(start, ()))))], [start]
        visited = {start}
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in on_path:
                    return on_path[on_path.index(nxt):]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    on_path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.pop()
        return None


RULES = [
    check_determinism,
    check_raw_new_delete,
    check_include_guard,
    check_iwyu,
    check_relaxed_atomics,
]


def lint_file(repo, path, model=None):
    try:
        with open(os.path.join(repo, path), encoding="utf-8") as f:
            raw = f.read().splitlines()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]
    code = strip_code(raw)
    findings = []
    for rule in RULES:
        findings.extend(rule(path, raw, code) or [])
    if model is not None:
        model.add_file(path, raw, code)
    return findings


def lint_paths(repo, files):
    """All findings for `files`: the per-file rules plus the whole-tree
    concurrency rules. The entry point the golden tests replay."""
    model = ConcurrencyModel()
    findings = []
    for path in files:
        findings.extend(lint_file(repo, path, model))
    findings.extend(model.findings())
    return findings


# ---------------------------------------------------------------------------
# clang-tidy driver (optional; the .clang-tidy profile holds the check list)

def run_clang_tidy(exe, repo, compile_commands, files):
    ccs = [f for f in files if f.endswith((".cc", ".cpp"))
           and (f.startswith("src/") or f.startswith("tools/"))]
    if not ccs:
        return 0
    build_dir = os.path.dirname(compile_commands)
    failures = 0

    def one(path):
        proc = subprocess.run(
            [exe, "-p", build_dir, "--quiet", path],
            cwd=repo, capture_output=True, text=True)
        return path, proc.returncode, proc.stdout.strip()

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 4) as pool:
        for path, rc, out in pool.map(one, ccs):
            if rc != 0 or "warning:" in out or "error:" in out:
                failures += 1
                print(f"-- clang-tidy: {path}")
                if out:
                    print(out)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--changed", action="store_true",
                    help="lint only files that differ from origin/main")
    ap.add_argument("--clang-tidy", default=None,
                    help="clang-tidy executable to run over the same files")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for clang-tidy")
    ap.add_argument("files", nargs="*",
                    help="explicit files (repo-relative); default: the tree")
    args = ap.parse_args()

    repo = os.path.abspath(args.repo)
    if args.files:
        files = args.files
    elif args.changed:
        files = changed_files(repo)
    else:
        files = repo_files(repo, ["src", "tools", "tests", "bench",
                                  "examples"])

    findings = lint_paths(repo, files)
    for f in findings:
        print(f)

    tidy_failures = 0
    if args.clang_tidy:
        cc = args.compile_commands or os.path.join(
            repo, "build", "compile_commands.json")
        if not os.path.exists(cc):
            print(f"klink_lint: no compilation database at {cc}; "
                  "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON",
                  file=sys.stderr)
            return 2
        tidy_failures = run_clang_tidy(args.clang_tidy, repo, cc, files)

    total = len(findings) + tidy_failures
    print(f"klink_lint: {len(files)} files, {len(findings)} lint finding(s)"
          + (f", {tidy_failures} clang-tidy file failure(s)"
             if args.clang_tidy else ""))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
