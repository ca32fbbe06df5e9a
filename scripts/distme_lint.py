#!/usr/bin/env python3
"""distme-lint: fast, AST-free checker for DistME repo invariants.

Usage: distme_lint.py [options] <path> [<path> ...]

Options:
  --list-rules     print the rule names, one per line, and exit
  --changed-only   report findings only in files changed vs git HEAD
                   (unstaged, staged, and untracked); the cross-file class
                   model is still built from every given path, so rules
                   that look across files keep seeing unchanged
                   declarations. Outside a git checkout this falls back to
                   linting everything (with a notice on stderr).
  --jobs N         lint up to N files in parallel (default: the CPU count;
                   1 runs everything inline in this process)

Paths may be files or directories (directories are walked for .h/.cc files).
Prints one `path:line: [rule] message` per finding and exits nonzero if any
finding is produced. Rules (see DESIGN.md "Correctness tooling"):

  pragma-once        every header starts its code with `#pragma once`
  concurrency        raw std::mutex/std::thread/... only inside the engine,
                     obs, and gpu wrappers (CONCURRENCY_ALLOW below); library
                     code must go through those layers
  naked-new          no naked `new` / C allocation in src/ — wrap in
                     make_unique/make_shared or a smart-pointer constructor
  no-cout            no std::cout in library code (src/, tests/) — use
                     DISTME_LOG; bench/ and examples/ are exempt
  include-order      self-include first in a .cc, then <system> includes,
                     then "project" includes; a header never includes itself
  nodiscard-status   every Status/Result-returning declaration in a src/
                     header carries [[nodiscard]]
  flight-enum-sync   the flight-recorder event-name string table stays
                     entry-for-entry in sync with FlightEventType: same
                     count, and each string is the snake_case of the
                     enumerator at the same index
  flight-edge-sync   same invariant for the dependency-edge kinds: the
                     kFlightEdgeKindNames table stays entry-for-entry in
                     sync with FlightEdgeKind (before kNumKinds)

  Lock-discipline pass (src/ only; see DESIGN.md §"Lock discipline" and
  src/common/thread_annotations.h):

  lock-annotate      a class owning a std::mutex/std::shared_mutex or a
                     std::atomic must annotate every other mutable member
                     with DISTME_GUARDED_BY / DISTME_SHARDED_BY /
                     DISTME_LOCKFREE(reason) / DISTME_UNSHARED(reason).
                     Exempt on their own: the synchronization members
                     themselves (mutexes, condition variables), members
                     whose declared type is a std::atomic, const values,
                     and static/constexpr constants
  lock-held          a method body that touches a DISTME_GUARDED_BY (or
                     DISTME_SHARDED_BY) member must visibly hold the named
                     mutex — a lock_guard/scoped_lock/unique_lock/
                     shared_lock naming it in the body, a manual .lock()
                     on it, or the method annotated DISTME_REQUIRES(mutex).
                     Constructors and destructors are exempt (no concurrent
                     access can exist yet / any concurrent access is
                     already a use-after-free)
  atomic-order       std::atomic loads/stores/RMWs in src/ must state an
                     explicit std::memory_order — seq_cst-by-default hides
                     the author's intent and costs fences on ARM

Suppressing a finding: append `// distme-lint: allow(<rule>)` to the line, or
add the file to the rule's allowlist below with a one-line justification.
Suppressions are themselves part of the reviewed diff, so every escape hatch
is visible in code review.
"""

import multiprocessing
import os
import re
import subprocess
import sys

# --- allowlists ------------------------------------------------------------

# Files allowed to use raw concurrency primitives. Everything else must use
# the engine/obs wrappers (task slots, registries, the flight ring) so that
# the TSan stress suite exercises every lock in the system.
CONCURRENCY_ALLOW = (
    "src/engine/",            # RealExecutor task slots, DistributedMatrix stores
    "src/obs/",               # MetricsRegistry, FlightRecorder, HttpEndpoint
    "src/gpu/",               # software-GPU stream/event simulation
    "src/common/logging.cc",  # the per-line stderr write lock
    "tests/",                 # tests may spawn threads freely
    "bench/",                 # benches may spawn threads freely
)

# Files allowed to use naked new/delete. Keep this list short and justified.
NAKED_NEW_ALLOW = (
    "src/common/status.h",   # manual State block: Status must stay one pointer wide
    "src/common/status.cc",  # same State block, allocation on the error path only
)

CONCURRENCY_TOKENS = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|thread|jthread|"
    r"condition_variable|condition_variable_any)\b"
)
CONCURRENCY_INCLUDES = re.compile(
    r'#\s*include\s*<(thread|mutex|shared_mutex|condition_variable)>'
)
NAKED_NEW = re.compile(r"\bnew\b\s*[\(A-Za-z_:<]")
WRAPPED_NEW = re.compile(
    r"(make_unique|make_shared|unique_ptr\s*<[^;]*?>\s*\(\s*new|"
    r"shared_ptr\s*<[^;]*?>\s*\(\s*new)"
)
C_ALLOC = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
COUT = re.compile(r"std::cout\b")
INCLUDE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')
# A declaration returning Status/Result: the type, whitespace, a function
# name, and an open paren. Deliberately does not match constructors
# (`Status(...)`), reference returns (`Status& operator=`), or fields.
NODISCARD_DECL = re.compile(
    r"^\s*(\[\[nodiscard\]\]\s+)?(virtual\s+)?(static\s+)?"
    r"(Status|Result<[^();]*>)\s+~?[A-Za-z_]\w*\s*\("
)
SUPPRESS = re.compile(r"//\s*distme-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


def strip_code(line):
    """Removes string/char literals and // comments (crudely, no AST)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
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
            out.append('""' if quote == '"' else "''")
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


class File:
    """One source file, pre-processed for the rules: raw lines, code-only
    lines (comments and literals blanked), and per-line suppressions."""

    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read().splitlines()
        self.suppressed = {}  # line number (1-based) -> set of rule names
        for idx, line in enumerate(self.raw, start=1):
            m = SUPPRESS.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                self.suppressed[idx] = rules
        self.code = self._strip_all()

    def _strip_all(self):
        code = []
        in_block = False
        for line in self.raw:
            if in_block:
                end = line.find("*/")
                if end < 0:
                    code.append("")
                    continue
                line = " " * (end + 2) + line[end + 2:]
                in_block = False
            line = strip_code(line)
            # Strip /* ... */ spans that open on this line.
            while True:
                start = line.find("/*")
                if start < 0:
                    break
                end = line.find("*/", start + 2)
                if end < 0:
                    line = line[:start]
                    in_block = True
                    break
                line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
            code.append(line)
        return code

    def allows(self, lineno, rule):
        return rule in self.suppressed.get(lineno, set())

    def allows_range(self, first, last, rule):
        return any(self.allows(n, rule) for n in range(first, last + 1))


def norm(path):
    return os.path.relpath(path).replace(os.sep, "/")


def in_any(path, prefixes):
    return any(path.startswith(p) or ("/" + p) in path for p in prefixes)


# --- structure parser (classes, members, method bodies) --------------------
#
# A brace-depth scanner over the comment/literal-stripped lines. It is not a
# C++ parser; it recognizes exactly the shapes the lock-discipline rules
# need: class/struct bodies with their member statements, and function
# bodies (inline in a class, or `Class::Method` definitions at namespace
# depth) with their extents. Preprocessor lines are blanked first.

PREPROC = re.compile(r"^\s*#")
ACCESS_LABEL = re.compile(r"\b(?:public|private|protected)\s*:")
ANNOT_PAREN = re.compile(r"\bDISTME_[A-Z_]+\s*\((?:[^()]|\([^()]*\))*\)")
ANNOT_BARE = re.compile(r"\bDISTME_[A-Z_]+\b")
CLASS_HEAD = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_][\w:]*)\s*(?:final\s*)?(?::[^;{]*)?$")
REQUIRES_ANNOT = re.compile(r"\bDISTME_REQUIRES(?:_SHARED)?\s*\(([^()]*)\)")
GUARD_ANNOT = re.compile(
    r"\bDISTME_(GUARDED_BY|PT_GUARDED_BY|SHARDED_BY)\s*\(([^()]*)\)")
EXEMPT_ANNOT = re.compile(r"\bDISTME_(LOCKFREE|UNSHARED)\s*\(")
SYNC_TYPE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\b")
ATOMIC_TYPE = re.compile(r"\bstd\s*::\s*atomic\b")
MEMBER_SKIP = re.compile(
    r"^(?:using\b|typedef\b|friend\b|static_assert\b|template\b|class\b|"
    r"struct\b|enum\b|union\b|operator\b|extern\b|static\b|constexpr\b|"
    r"inline\b|\[\[)")
DECLARATOR_NAME = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$")
FUNC_QUAL_TAIL = re.compile(r"(?:\bconst|\bnoexcept|\boverride|\bfinal|&&|&)\s*$")
TRAILING_RETURN = re.compile(r"->\s*[\w:<>,\s&*\[\]]+$")
QUALIFIED_NAME_TAIL = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)$")


def _blank_preproc(code_lines):
    out = []
    cont = False
    for line in code_lines:
        if cont or PREPROC.match(line):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return out


def strip_annotations(text):
    return ANNOT_BARE.sub(" ", ANNOT_PAREN.sub(" ", text))


def first_toplevel_paren(text):
    """Index of the first '(' outside template angle brackets, or -1."""
    depth = 0
    for i, c in enumerate(text):
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c == "(" and depth == 0:
            return i
    return -1


def parse_requires(text):
    """Mutex names from DISTME_REQUIRES(...) annotations: the last
    identifier of each comma-separated argument (`impl_->mutex_` names
    `mutex_`)."""
    out = set()
    for m in REQUIRES_ANNOT.finditer(text):
        for part in m.group(1).split(","):
            ids = re.findall(r"[A-Za-z_]\w*", part)
            if ids:
                out.add(ids[-1])
    return out


def looks_like_function(head):
    s = head.rstrip()
    while True:
        m = FUNC_QUAL_TAIL.search(s)
        if not m:
            break
        s = s[:m.start()].rstrip()
    m = TRAILING_RETURN.search(s)
    if m:
        s = s[:m.start()].rstrip()
    return s.endswith(")") and first_toplevel_paren(s) >= 0


def func_name(head):
    """The (possibly Class::qualified) name before the parameter list."""
    pos = first_toplevel_paren(head)
    if pos < 0:
        return None
    prefix = head[:pos].rstrip()
    m = QUALIFIED_NAME_TAIL.search(prefix)
    return re.sub(r"\s+", "", m.group(1)) if m else None


def _parse_member(info, stmt, first_line, last_line):
    """Classifies one `;`-terminated statement inside a class body."""
    sa = " ".join(ACCESS_LABEL.sub(" ", stmt).split())
    if not sa:
        return
    plain = " ".join(strip_annotations(sa).split())
    if not plain:
        return
    if SYNC_TYPE.search(plain):
        # The synchronization itself (or a collection of it, e.g.
        # std::vector<std::mutex>): triggers the class, needs no annotation.
        info["triggered"] = True
        return
    if ATOMIC_TYPE.search(plain):
        info["triggered"] = True
    if first_toplevel_paren(plain) >= 0:
        # A method declaration; harvest DISTME_REQUIRES for rule lock-held.
        reqs = parse_requires(sa)
        if reqs:
            name = func_name(plain)
            if name:
                info["methods"].setdefault(name.split("::")[-1],
                                           set()).update(reqs)
        return
    if MEMBER_SKIP.match(plain):
        return
    guard = GUARD_ANNOT.search(sa)
    decl = plain[8:] if plain.startswith("mutable ") else plain
    member = {
        "line": first_line,
        "end_line": last_line,
        "name": None,
        "guard": None,      # (kind, mutex) for GUARDED_BY/SHARDED_BY
        "needs": False,     # unannotated member of a triggered class
    }
    # Declarator name: strip any initializer, then take the last identifier.
    name_part = re.split(r"=", decl, maxsplit=1)[0]
    name_part = re.sub(r"\{[^{}]*\}\s*$", "", name_part).rstrip()
    m = DECLARATOR_NAME.search(name_part)
    if m:
        member["name"] = m.group(1)
    if guard:
        ids = re.findall(r"[A-Za-z_]\w*", guard.group(2))
        if ids:
            member["guard"] = (guard.group(1), ids[-1])
    elif not EXEMPT_ANNOT.search(sa):
        exempt = (decl.startswith("std::atomic") or
                  (decl.startswith("const ") and "*" not in decl))
        member["needs"] = not exempt
    info["members"].append(member)


def parse_structures(code_lines):
    """Returns {"classes": [...], "functions": [...]} for one file.

    A class dict: name, line, triggered (owns a mutex or atomic), members
    (see _parse_member), methods (name -> set of required mutexes).
    A function dict: name (possibly qualified), cls (owning class name or
    None), requires (mutex names from def-site DISTME_REQUIRES), body
    (text), body_line (1-based first body line).
    """
    lines = _blank_preproc(code_lines)
    classes, functions = [], []
    stack = []
    buf = []
    stmt_line = None

    def reset():
        nonlocal stmt_line
        buf.clear()
        stmt_line = None

    def classify(head):
        top = stack[-1]["kind"] if stack else None
        if top in ("func", "nested"):
            return ("nested", None)
        sa = " ".join(ACCESS_LABEL.sub(" ", strip_annotations(head)).split())
        if re.search(r"\benum\b", sa):
            return ("other", None)
        if re.search(r"\bnamespace\b", sa):
            return ("other", None)
        m = CLASS_HEAD.search(sa)
        if m:
            return ("class", m.group(1).split("::")[-1])
        if looks_like_function(sa):
            return ("func", (func_name(sa), parse_requires(head)))
        s = sa.rstrip()
        if s.endswith(("=", ",", "(", "[")) or re.search(r"[\w>\]]$", s):
            return ("init", None)
        return ("other", None)

    for lineno, line in enumerate(lines, start=1):
        i = 0
        while i < len(line):
            c = line[i]
            if c == "{":
                kind, payload = classify("".join(buf))
                if kind == "init":
                    buf.append(c)
                    stack.append({"kind": "init"})
                elif kind == "class":
                    stack.append({"kind": "class", "info": {
                        "name": payload, "line": stmt_line or lineno,
                        "triggered": False, "members": [], "methods": {}}})
                    reset()
                elif kind == "func":
                    name, requires = payload
                    cls = None
                    enclosing = stack[-1] if stack else None
                    if enclosing is not None and enclosing["kind"] == "class":
                        cls = enclosing["info"]["name"]
                    elif name and "::" in name:
                        cls = name.split("::")[-2].lstrip("~")
                    stack.append({"kind": "func", "name": name, "cls": cls,
                                  "requires": requires,
                                  "start": (lineno, i + 1)})
                    reset()
                else:
                    stack.append({"kind": kind})
                    reset()
            elif c == "}":
                if stack:
                    fr = stack.pop()
                    if fr["kind"] == "init":
                        buf.append(c)
                        i += 1
                        continue
                    if fr["kind"] == "func":
                        sl, sc = fr["start"]
                        if sl == lineno:
                            body = lines[sl - 1][sc:i]
                        else:
                            body = "\n".join(
                                [lines[sl - 1][sc:]] +
                                lines[sl:lineno - 1] +
                                [lines[lineno - 1][:i]])
                        functions.append({
                            "name": fr["name"], "cls": fr["cls"],
                            "requires": fr["requires"], "body": body,
                            "body_line": sl})
                    elif fr["kind"] == "class":
                        classes.append(fr["info"])
                    reset()
            elif c == ";":
                if stack and stack[-1]["kind"] == "class":
                    _parse_member(stack[-1]["info"], "".join(buf),
                                  stmt_line or lineno, lineno)
                reset()
            else:
                buf.append(c)
                if stmt_line is None and not c.isspace():
                    stmt_line = lineno
            i += 1
        if buf:
            buf.append("\n")
    return {"classes": classes, "functions": functions}


def build_model_entry(structure):
    """Per-file slice of the cross-file class model: for every parsed class,
    its guarded members and the per-method DISTME_REQUIRES sets."""
    entry = {}
    for cls in structure["classes"]:
        guarded = {m["name"]: m["guard"] for m in cls["members"]
                   if m["guard"] is not None and m["name"] is not None}
        methods = {name: sorted(reqs)
                   for name, reqs in cls["methods"].items()}
        if guarded or methods:
            slot = entry.setdefault(cls["name"],
                                    {"guarded": {}, "methods": {}})
            slot["guarded"].update(guarded)
            slot["methods"].update(methods)
    return entry


def merge_model(entries):
    model = {}
    for entry in entries:
        for name, slot in entry.items():
            dst = model.setdefault(name, {"guarded": {}, "methods": {}})
            dst["guarded"].update(slot["guarded"])
            dst["methods"].update(slot["methods"])
    return model


# --- rules -----------------------------------------------------------------

def rule_pragma_once(f, rel, report):
    if not rel.endswith(".h"):
        return
    for lineno, line in enumerate(f.code, start=1):
        text = line.strip()
        if not text:
            continue
        if re.match(r"#\s*pragma\s+once", text):
            return
        report(lineno, "pragma-once",
               "header must start with `#pragma once` before any code")
        return
    report(1, "pragma-once", "header is empty or has no `#pragma once`")


def rule_concurrency(f, rel, report):
    if in_any(rel, CONCURRENCY_ALLOW):
        return
    for lineno, line in enumerate(f.code, start=1):
        m = CONCURRENCY_TOKENS.search(line) or CONCURRENCY_INCLUDES.search(line)
        if m and not f.allows(lineno, "concurrency"):
            report(lineno, "concurrency",
                   f"raw `{m.group(0)}` outside the concurrency allowlist "
                   "(use the engine/obs wrappers, or extend "
                   "CONCURRENCY_ALLOW with a justification)")


def rule_naked_new(f, rel, report):
    if not in_any(rel, ("src/",)):
        return
    if in_any(rel, NAKED_NEW_ALLOW):
        return
    for lineno, line in enumerate(f.code, start=1):
        if f.allows(lineno, "naked-new"):
            continue
        m = C_ALLOC.search(line)
        if m:
            report(lineno, "naked-new",
                   f"C allocation `{m.group(1)}()` in library code "
                   "(use containers or smart pointers)")
            continue
        if NAKED_NEW.search(line) and not WRAPPED_NEW.search(line):
            report(lineno, "naked-new",
                   "naked `new` in library code (use std::make_unique / "
                   "std::make_shared, or wrap in a smart-pointer constructor "
                   "on the same line)")


def rule_no_cout(f, rel, report):
    if in_any(rel, ("bench/", "examples/")):
        return
    for lineno, line in enumerate(f.code, start=1):
        if COUT.search(line) and not f.allows(lineno, "no-cout"):
            report(lineno, "no-cout",
                   "std::cout in library code (use DISTME_LOG, or return the "
                   "string to the caller)")


def rule_include_order(f, rel, report):
    # Parse from the raw lines (the literal-stripper blanks "..." targets),
    # but only where the stripped line still starts a preprocessor directive
    # — this skips includes that live inside comments.
    includes = []  # (lineno, kind, target) where kind is '<' or '"'
    for lineno, line in enumerate(f.raw, start=1):
        m = INCLUDE.match(line)
        if m and f.code[lineno - 1].lstrip().startswith("#"):
            includes.append((lineno, m.group(1), m.group(2)))
    if not includes:
        return

    stem = os.path.splitext(os.path.basename(rel))[0]
    if rel.endswith(".h"):
        for lineno, kind, target in includes:
            if kind == '"' and os.path.splitext(os.path.basename(target))[0] == stem \
                    and not f.allows(lineno, "include-order"):
                report(lineno, "include-order", f'header includes itself ("{target}")')
        return

    # .cc: the self-include (same stem) must be the very first include.
    self_pos = None
    for pos, (lineno, kind, target) in enumerate(includes):
        if kind == '"' and os.path.splitext(os.path.basename(target))[0] == stem:
            self_pos = pos
            break
    if self_pos is not None and self_pos != 0:
        lineno = includes[self_pos][0]
        if not f.allows(lineno, "include-order"):
            report(lineno, "include-order",
                   f'self-include "{includes[self_pos][2]}" must be the first '
                   "include of the .cc")

    # After the optional self-include: <system> block before "project" block.
    rest = includes[1:] if self_pos == 0 else includes
    seen_quote = False
    for lineno, kind, target in rest:
        if kind == '"':
            seen_quote = True
        elif seen_quote and not f.allows(lineno, "include-order"):
            report(lineno, "include-order",
                   f"<{target}> after a project include — order is: "
                   'self-include, <system> block, "project" block')


def rule_nodiscard_status(f, rel, report):
    if not (rel.startswith("src/") and rel.endswith(".h")):
        return
    for lineno, line in enumerate(f.code, start=1):
        m = NODISCARD_DECL.match(line)
        if not m or "(" not in line:
            continue
        if m.group(1) is None and not f.allows(lineno, "nodiscard-status"):
            report(lineno, "nodiscard-status",
                   "Status/Result-returning declaration without [[nodiscard]]")


FLIGHT_ENUM = re.compile(
    r"enum\s+class\s+FlightEventType[^{]*\{(.*?)\}", re.DOTALL)
FLIGHT_NAMES = re.compile(
    r"kFlightEventTypeNames\[\]\s*=\s*\{(.*?)\};", re.DOTALL)


def snake_case(enumerator):
    """kTaskRetry -> task_retry (strips the leading k)."""
    body = enumerator[1:] if enumerator.startswith("k") else enumerator
    return re.sub(r"(?<!^)([A-Z])", r"_\1", body).lower()


def rule_flight_enum_sync(f, rel, report):
    # The string table lives in flight_recorder.cc; the enum in its sibling
    # header. A new enumerator without its name (or vice versa) silently
    # mislabels every later event in dumps and JSON — catch it here, at the
    # exact index that drifted.
    if not rel.endswith("flight_recorder.cc"):
        return
    header_path = os.path.splitext(f.path)[0] + ".h"
    try:
        with open(header_path, "r", encoding="utf-8", errors="replace") as h:
            header_text = h.read()
    except OSError:
        report(1, "flight-enum-sync",
               f"missing sibling header {os.path.basename(header_path)} "
               "(cannot check the event enum)")
        return

    enum_match = FLIGHT_ENUM.search(header_text)
    if not enum_match:
        report(1, "flight-enum-sync",
               "no `enum class FlightEventType` in the sibling header")
        return
    enum_body = re.sub(r"//[^\n]*", "", enum_match.group(1))
    enumerators = [e for e in re.findall(r"\bk[A-Z][A-Za-z0-9]*\b", enum_body)
                   if e != "kNumTypes"]

    raw_text = "\n".join(f.raw)
    names_match = FLIGHT_NAMES.search(raw_text)
    if not names_match:
        report(1, "flight-enum-sync",
               "no `kFlightEventTypeNames[] = {...}` string table in the .cc")
        return
    names = re.findall(r'"([^"]*)"', names_match.group(1))
    table_line = raw_text[:names_match.start()].count("\n") + 1

    if len(names) != len(enumerators):
        report(table_line, "flight-enum-sync",
               f"string table has {len(names)} entries but FlightEventType "
               f"has {len(enumerators)} enumerators before kNumTypes")
        return
    for idx, (enumerator, name) in enumerate(zip(enumerators, names)):
        expected = snake_case(enumerator)
        if name != expected:
            report(table_line, "flight-enum-sync",
                   f"entry {idx} is \"{name}\" but enumerator {enumerator} "
                   f"wants \"{expected}\" — table and enum have drifted")


FLIGHT_EDGE_ENUM = re.compile(
    r"enum\s+class\s+FlightEdgeKind[^{]*\{(.*?)\}", re.DOTALL)
FLIGHT_EDGE_NAMES = re.compile(
    r"kFlightEdgeKindNames\[\]\s*=\s*\{(.*?)\};", re.DOTALL)


def rule_flight_edge_sync(f, rel, report):
    # Same invariant as flight-enum-sync, for the dependency-edge kinds: dumps
    # carry edges by these strings and FlightEdgeKindFromName decodes them
    # (in a live session and in distme_analyze alike), so a drifted entry
    # silently reclassifies blocked time in every report.
    if not rel.endswith("flight_recorder.cc"):
        return
    header_path = os.path.splitext(f.path)[0] + ".h"
    try:
        with open(header_path, "r", encoding="utf-8", errors="replace") as h:
            header_text = h.read()
    except OSError:
        return  # flight-enum-sync already reports the missing header

    enum_match = FLIGHT_EDGE_ENUM.search(header_text)
    if not enum_match:
        report(1, "flight-edge-sync",
               "no `enum class FlightEdgeKind` in the sibling header")
        return
    enum_body = re.sub(r"//[^\n]*", "", enum_match.group(1))
    enumerators = [e for e in re.findall(r"\bk[A-Z][A-Za-z0-9]*\b", enum_body)
                   if e != "kNumKinds"]

    raw_text = "\n".join(f.raw)
    names_match = FLIGHT_EDGE_NAMES.search(raw_text)
    if not names_match:
        report(1, "flight-edge-sync",
               "no `kFlightEdgeKindNames[] = {...}` string table in the .cc")
        return
    names = re.findall(r'"([^"]*)"', names_match.group(1))
    table_line = raw_text[:names_match.start()].count("\n") + 1

    if len(names) != len(enumerators):
        report(table_line, "flight-edge-sync",
               f"string table has {len(names)} entries but FlightEdgeKind "
               f"has {len(enumerators)} enumerators before kNumKinds")
        return
    for idx, (enumerator, name) in enumerate(zip(enumerators, names)):
        expected = snake_case(enumerator)
        if name != expected:
            report(table_line, "flight-edge-sync",
                   f"entry {idx} is \"{name}\" but enumerator {enumerator} "
                   f"wants \"{expected}\" — table and enum have drifted")


# --- lock-discipline rules (src/ only) -------------------------------------

ATOMIC_OP = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\(")


def rule_lock_annotate(f, rel, structure, model, report):
    del model
    for cls in structure["classes"]:
        if not cls["triggered"]:
            continue
        for member in cls["members"]:
            if not member["needs"]:
                continue
            if f.allows_range(member["line"], member["end_line"],
                              "lock-annotate"):
                continue
            name = member["name"] or "<member>"
            report(member["line"], "lock-annotate",
                   f"`{name}` in mutex/atomic-owning class `{cls['name']}` "
                   "has no annotation — state its synchronization with "
                   "DISTME_GUARDED_BY(m) / DISTME_SHARDED_BY(m) / "
                   "DISTME_LOCKFREE(reason) / DISTME_UNSHARED(reason)")


def _lock_visible(body, mutex):
    if re.search(r"\b(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
                 r"[^;]*?\b" + re.escape(mutex) + r"\b", body):
        return True
    return re.search(r"\b" + re.escape(mutex) +
                     r"\b\s*(?:\[[^\]]*\])?\s*\.\s*lock\s*\(", body) is not None


def rule_lock_held(f, rel, structure, model, report):
    for fn in structure["functions"]:
        cls = fn["cls"]
        if cls is None:
            continue
        cinfo = model.get(cls)
        if not cinfo or not cinfo["guarded"]:
            continue
        short = (fn["name"] or "").split("::")[-1]
        if short in (cls, "~" + cls):
            continue  # ctors/dtors run before/after any sharing
        requires = set(fn["requires"]) | set(cinfo["methods"].get(short, []))
        body = fn["body"]
        for member, (kind, mutex) in sorted(cinfo["guarded"].items()):
            m = re.search(r"\b" + re.escape(member) + r"\b", body)
            if m is None:
                continue
            if mutex in requires or _lock_visible(body, mutex):
                continue
            lineno = fn["body_line"] + body[:m.start()].count("\n")
            if f.allows(lineno, "lock-held"):
                continue
            what = "DISTME_SHARDED_BY" if kind == "SHARDED_BY" \
                else "DISTME_GUARDED_BY"
            report(lineno, "lock-held",
                   f"`{member}` is {what}({mutex}) but `{fn['name']}` "
                   f"neither holds a visible `{mutex}` lock "
                   "(lock_guard/scoped_lock/unique_lock/shared_lock or "
                   f"`.lock()`) nor is annotated DISTME_REQUIRES({mutex})")


def rule_atomic_order(f, rel, structure, model, report):
    del structure, model
    for lineno, line in enumerate(f.code, start=1):
        for m in ATOMIC_OP.finditer(line):
            stmt = line[m.start():]
            j = lineno
            while ";" not in stmt and j < lineno + 8 and j < len(f.code):
                stmt += " " + f.code[j]
                j += 1
            if "memory_order" in stmt:
                continue
            if f.allows(lineno, "atomic-order"):
                continue
            report(lineno, "atomic-order",
                   f"std::atomic `.{m.group(1)}()` without an explicit "
                   "std::memory_order — seq_cst-by-default hides intent; "
                   "say memory_order_relaxed/acquire/release/... explicitly")


RULES = [
    rule_pragma_once,
    rule_concurrency,
    rule_naked_new,
    rule_no_cout,
    rule_include_order,
    rule_nodiscard_status,
    rule_flight_enum_sync,
    rule_flight_edge_sync,
]

LOCK_RULES = [
    rule_lock_annotate,
    rule_lock_held,
    rule_atomic_order,
]

RULE_NAMES = [
    "pragma-once", "concurrency", "naked-new", "no-cout", "include-order",
    "nodiscard-status", "flight-enum-sync", "flight-edge-sync",
    "lock-annotate", "lock-held", "atomic-order",
]


def collect(paths):
    exts = (".h", ".hpp", ".cc", ".cpp")
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith((".", "build")))
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(exts))
        elif path.endswith(exts):
            files.append(path)
    return files


# --- drivers (inline and multiprocessing) ----------------------------------

def parse_for_model(path):
    """Phase 1 worker: one file's slice of the class model."""
    try:
        f = File(path)
    except OSError:
        return {}
    return build_model_entry(parse_structures(f.code))


_MODEL = None  # worker-global, set by the pool initializer


def _pool_init(model):
    global _MODEL
    _MODEL = model


def lint_file(path, model=None):
    """Phase 2 worker: all rules over one file. Returns finding tuples."""
    if model is None:
        model = _MODEL
    rel = norm(path)
    findings = []

    def report(lineno, rule, message):
        findings.append((rel, lineno, rule, message))

    try:
        f = File(path)
    except OSError as e:
        return [(rel, 0, "io", f"unreadable: {e}")]
    for rule in RULES:
        rule(f, rel, report)
    if in_any(rel, ("src/",)):
        structure = parse_structures(f.code)
        for rule in LOCK_RULES:
            rule(f, rel, structure, model or {}, report)
    return findings


def changed_file_set():
    """Repo-relative paths changed vs HEAD plus untracked files, or None
    when not in a git checkout."""
    def run(*argv):
        return subprocess.run(argv, capture_output=True, text=True)

    diff = run("git", "diff", "--name-only", "HEAD")
    if diff.returncode != 0:
        return None
    untracked = run("git", "ls-files", "--others", "--exclude-standard")
    toplevel = run("git", "rev-parse", "--show-toplevel")
    root = toplevel.stdout.strip() if toplevel.returncode == 0 else os.getcwd()
    changed = set()
    for line in diff.stdout.splitlines() + untracked.stdout.splitlines():
        if line:
            changed.add(os.path.relpath(os.path.join(root, line))
                        .replace(os.sep, "/"))
    return changed


def main(argv):
    paths = []
    jobs = None
    changed_only = False
    args = iter(argv[1:])
    for a in args:
        if a == "--list-rules":
            print("\n".join(RULE_NAMES))
            return 0
        if a == "--changed-only":
            changed_only = True
        elif a == "--jobs":
            jobs = int(next(args, "1"))
        elif a.startswith("--jobs="):
            jobs = int(a.split("=", 1)[1])
        elif a.startswith("--"):
            print(f"distme-lint: unknown option {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    files = collect(paths)
    lint_targets = files
    if changed_only:
        changed = changed_file_set()
        if changed is None:
            print("distme-lint: --changed-only outside a git checkout — "
                  "linting everything", file=sys.stderr)
        else:
            lint_targets = [p for p in files if norm(p) in changed]

    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(lint_targets) or 1))

    if jobs == 1:
        model = merge_model(parse_for_model(p) for p in files)
        results = [lint_file(p, model) for p in lint_targets]
    else:
        with multiprocessing.Pool(jobs) as pool:
            model = merge_model(pool.map(parse_for_model, files))
        with multiprocessing.Pool(jobs, _pool_init, (model,)) as pool:
            results = pool.map(lint_file, lint_targets)

    findings = sorted(f for per_file in results for f in per_file)
    for rel, lineno, rule, message in findings:
        if rule == "io":
            print(f"{rel}:{lineno}: [io] {message}", file=sys.stderr)
        else:
            print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"distme-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
