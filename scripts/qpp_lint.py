#!/usr/bin/env python3
"""qpp_lint.py -- repo-invariant linter for the qpp tree.

Enforces project invariants that generic tools (compiler warnings,
clang-tidy, sanitizers) cannot express because they encode *project*
knowledge rather than language knowledge:

  atomic-shared-ptr   std::atomic<std::shared_ptr<T>> is forbidden.  The
                      libstdc++ 12 free-function implementation is
                      TSan-dirty (see DESIGN.md, "Hot-swap registry");
                      publish through qpp::Published<T>
                      (src/common/published.h).
  submit-under-lock   ThreadPool::Submit / ParallelFor must not be called
                      while a lock guard is alive in an enclosing scope.
                      The pool executes inline when saturated (or when
                      QPP_THREADS=1), so submitting under a mutex can
                      self-deadlock or serialize the whole pool.
  nondeterministic-source
                      Deterministic train/serve paths (src/ml, src/qpp)
                      must not read wall clocks or unseeded entropy:
                      std::random_device, std::rand/srand, time(),
                      any std::chrono clock.  Training must be bit-
                      reproducible from (data, seed); use common/rng.h.
                      Tree-wide (all of src/), std::rand/srand and
                      std::random_device are forbidden, and wall-clock
                      std::chrono::system_clock is forbidden outside the
                      measurement layer (src/exec) and src/common/date --
                      monotonic steady_clock is fine for latency metrics.
  float-precision     Serializing floats below max_digits10 (17) loses
                      bits on reload; model bundles must round-trip
                      bit-identically.  Any .precision(N)/setprecision(N)
                      with N < 17 in src/ is an error.
  naked-new           Raw new/delete/malloc/free are forbidden outside
                      src/storage (the only layer that manages raw
                      memory).  Use std::make_unique / containers.
  unbounded-member-push
                      In src/net/, src/card/ and src/kde/ every push onto
                      a member container (trailing-underscore name) must
                      be dominated by a capacity check -- a comparison
                      against a max/capacity bound within the preceding
                      30 lines.  Those containers are fed by network
                      peers (an unbounded queue is a memory-exhaustion
                      DoS), by one observation per executed operator, or
                      by sampled rows, so an unbounded one grows with
                      traffic or process lifetime.  Containers bounded by
                      construction carry an allow() naming the bound.
  net-blocking-reactor
                      src/net/server* is the epoll reactor thread: it
                      may block only in epoll_wait.  Sleeps are
                      forbidden, bare accept() is forbidden (accept4
                      with SOCK_NONBLOCK), and socket()/accept4()/
                      eventfd() must create non-blocking fds -- one
                      blocking fd stalls every connection.  The
                      ThreadPool (Submit, ParallelFor, Global) is
                      forbidden too: the reactor predicts each batch
                      itself, because a hop to a pool worker and back
                      costs more than the prediction it carries.
  net-unbounded-iovec In src/net/ every scatter-gather syscall
                      (writev/pwritev/sendmsg) must be dominated by a
                      visible bound on its iovec count -- a comparison
                      or std::min/std::clamp against a named iov limit
                      (kMaxFlushIov, kClientMaxIov, IOV_MAX, ...)
                      within the preceding 30 lines.  The kernel
                      rejects iovcnt > IOV_MAX with EINVAL at runtime,
                      which an unbounded gather loop only hits under
                      load, on the largest responses -- exactly when it
                      hurts most.  Pass-through wrappers carry an
                      allow() naming where the bound lives.

Suppression: a finding on line N is suppressed by a comment on line N or
line N-1 of the form

    // qpp-lint: allow(<rule>): <non-empty justification>

The justification is mandatory; bare allows are themselves violations.

Usage:
    qpp_lint.py [--root DIR] [paths...]      # default: src bench examples tests
    qpp_lint.py --list-rules

Exit status: 0 when clean, 1 on violations, 2 on usage errors.
Stdlib-only on purpose: this runs in tier-1 on machines with no pip.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# The C++ comment/string stripper is shared with the whole-program
# concurrency analyzer (scripts/qpp_concur); its canonical home is
# qpp_concur.cxx.  Re-exported here under its historical name so callers
# (tests/lint_test.py) keep working.  The sys.path fallback covers direct
# `python3 scripts/qpp_lint.py` runs from any working directory.
try:
    from qpp_concur.cxx import strip_comments_and_strings  # noqa: F401
    from qpp_concur.report import RULE_NAMES as CONCUR_RULE_NAMES
except ImportError:  # pragma: no cover - package sits next to this script
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from qpp_concur.cxx import strip_comments_and_strings  # noqa: F401
    from qpp_concur.report import RULE_NAMES as CONCUR_RULE_NAMES

DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "tests")
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Paths (relative, '/'-separated) that must be deterministic: model
# training and model construction.  No clocks, no entropy.
DETERMINISTIC_PREFIXES = ("src/ml/", "src/qpp/")

# Layers allowed to read wall-clock time (measurement + calendar code).
WALL_CLOCK_OK_PREFIXES = ("src/exec/", "src/common/date")

# The only layer allowed to use raw memory management.
RAW_MEMORY_PREFIX = "src/storage/"

ALLOW_RE = re.compile(
    r"//\s*qpp-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(.*?))?\s*$")


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# Rules.  Each rule is a function (rel_path, raw_text, code_text) -> [Violation]
# where code_text has comments and strings blanked out.
# ---------------------------------------------------------------------------

def rule_atomic_shared_ptr(path, raw, code):
    del raw
    out = []
    for m in re.finditer(r"std\s*::\s*atomic\s*<\s*std\s*::\s*shared_ptr\b",
                         code):
        out.append(Violation(
            path, _line_of(code, m.start()), "atomic-shared-ptr",
            "std::atomic<std::shared_ptr> is TSan-dirty on libstdc++ 12; "
            "publish through qpp::Published<T> (src/common/published.h)"))
    return out


LOCK_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^;{}]*?>)?\s+(\w+)\s*[({]")
UNLOCK_RE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(")
SUBMIT_RE = re.compile(r"(?:\.|->)\s*(Submit|ParallelFor)\s*\(")


def rule_submit_under_lock(path, raw, code):
    """Brace-scope tracker: a Submit/ParallelFor call is flagged when a
    lock guard declared in any enclosing scope is still live."""
    del raw
    events = []  # (pos, kind, payload)
    for m in re.finditer(r"[{}]", code):
        events.append((m.start(), m.group(0), None))
    for m in LOCK_DECL_RE.finditer(code):
        events.append((m.start(), "lock", m.group(1)))
    for m in UNLOCK_RE.finditer(code):
        events.append((m.start(), "unlock", m.group(1)))
    for m in SUBMIT_RE.finditer(code):
        events.append((m.start(), "submit", m.group(1)))
    events.sort(key=lambda e: e[0])

    out = []
    scopes = [set()]  # stack of sets of live lock-variable names
    for pos, kind, payload in events:
        if kind == "{":
            scopes.append(set())
        elif kind == "}":
            if len(scopes) > 1:
                scopes.pop()
        elif kind == "lock":
            scopes[-1].add(payload)
        elif kind == "unlock":
            for s in scopes:
                s.discard(payload)
        else:  # submit
            held = sorted(set().union(*scopes))
            if held:
                out.append(Violation(
                    path, _line_of(code, pos), "submit-under-lock",
                    f"ThreadPool::{payload} called while holding "
                    f"lock(s) {', '.join(held)}; the pool runs tasks "
                    "inline when saturated, so this can self-deadlock -- "
                    "drop the lock first (see src/serve/feedback.cc)"))
    return out


ENTROPY_RE = re.compile(
    r"\bstd\s*::\s*random_device\b|\bstd\s*::\s*s?rand\b|"
    r"(?<![\w:])s?rand\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\b|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)")
ANY_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b|"
    r"\bgettimeofday\b|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)|"
    r"(?<![\w:.])clock\s*\(\s*\)")


def rule_nondeterministic_source(path, raw, code):
    del raw
    out = []
    in_src = path.startswith("src/")
    deterministic = path.startswith(DETERMINISTIC_PREFIXES)
    if in_src:
        for m in ENTROPY_RE.finditer(code):
            out.append(Violation(
                path, _line_of(code, m.start()), "nondeterministic-source",
                "unseeded entropy source in src/; training and serving must "
                "be reproducible from (data, seed) -- use qpp::Rng "
                "(src/common/rng.h)"))
    if deterministic:
        for m in ANY_CLOCK_RE.finditer(code):
            out.append(Violation(
                path, _line_of(code, m.start()), "nondeterministic-source",
                "clock read in a deterministic train/serve path; timing "
                "belongs in the measurement layer (src/exec) or the serving "
                "metrics (src/serve), never in model construction"))
    elif in_src and not path.startswith(WALL_CLOCK_OK_PREFIXES):
        for m in WALL_CLOCK_RE.finditer(code):
            out.append(Violation(
                path, _line_of(code, m.start()), "nondeterministic-source",
                "wall-clock read outside the measurement layer; use "
                "std::chrono::steady_clock for intervals/latency metrics"))
    return out


PRECISION_RE = re.compile(r"\b(?:setprecision|precision)\s*\(\s*(\d+)\s*\)")


def rule_float_precision(path, raw, code):
    del raw
    if not path.startswith("src/"):
        return []
    out = []
    for m in PRECISION_RE.finditer(code):
        digits = int(m.group(1))
        if digits < 17:
            out.append(Violation(
                path, _line_of(code, m.start()), "float-precision",
                f"float serialization at precision {digits} < 17 "
                "(max_digits10 for double); model bundles must round-trip "
                "bit-identically"))
    return out


NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+(?![(])[\w:<\s]")
RAW_ALLOC_RE = re.compile(r"(?<![\w.:])(?:malloc|calloc|realloc|free)\s*\(")
NAKED_DELETE_RE = re.compile(r"(?<![\w.])delete\b")


def rule_naked_new(path, raw, code):
    del raw
    if path.startswith(RAW_MEMORY_PREFIX):
        return []
    out = []
    for regex, what in ((NAKED_NEW_RE, "naked `new`"),
                        (NAKED_DELETE_RE, "naked `delete`"),
                        (RAW_ALLOC_RE, "raw C allocation")):
        for m in regex.finditer(code):
            # `= delete` / `delete;` are deleted special members, not the
            # delete-expression; skip them.
            if what == "naked `delete`":
                tail = code[m.end():m.end() + 2].lstrip()
                if tail.startswith(";") or tail.startswith(","):
                    continue
            out.append(Violation(
                path, _line_of(code, m.start()), "naked-new",
                f"{what} outside src/storage; use std::make_unique / "
                "std::make_shared / containers so ownership is explicit"))
    return out


# --- bounded member containers --------------------------------------------
# src/net queues are fed by untrusted network peers, the src/card cache by
# one observation per executed operator, the src/kde models by sampled rows
# and harvested observations: a member container there with no visible
# bound grows with traffic or process lifetime.

MEMBER_PUSH_PREFIXES = ("src/net/", "src/card/", "src/kde/")

# How far back a capacity check may sit from the push (or syscall) it
# dominates.  The admission gate in server.cc HandleFrame is ~22 lines
# above its push.
CAPACITY_WINDOW_LINES = 30

MEMBER_PUSH_RE = re.compile(
    r"\b(\w+_)\s*\.\s*(?:push_back|emplace_back|push_front|push)\s*\(")
# A comparison operator that is not ->, <<, >>, or a template bracket pair.
COMPARISON_RE = re.compile(r"(?<![-<>])[<>]=?(?![<>])")
CAPACITY_TOKEN_RE = re.compile(r"\bk?[Mm]ax\w*|\bcapacity\b")


def rule_unbounded_member_push(path, raw, code):
    """A push onto a long-lived (member) container is unbounded growth
    unless a capacity comparison dominates it.  Heuristic: some line
    within the preceding window must compare against a max/capacity
    bound.  Containers bounded by construction (e.g. one entry per
    admitted request) carry an allow() naming the bound."""
    del raw
    if not path.startswith(MEMBER_PUSH_PREFIXES):
        return []
    lines = code.splitlines()
    out = []
    for m in MEMBER_PUSH_RE.finditer(code):
        line = _line_of(code, m.start())
        lo = max(0, line - 1 - CAPACITY_WINDOW_LINES)
        window = lines[lo:line]  # includes the push line itself
        if any(COMPARISON_RE.search(ln) and CAPACITY_TOKEN_RE.search(ln)
               for ln in window):
            continue
        out.append(Violation(
            path, line, "unbounded-member-push",
            f"member container '{m.group(1)}' grows with no capacity check "
            f"in the preceding {CAPACITY_WINDOW_LINES} lines; bound it "
            "(admission caps, LRU eviction, reservoir capacity) or carry an "
            "allow() naming the bound"))
    return out


# --- src/net rules -------------------------------------------------------
# The serving reactor must never block outside epoll_wait, and its gather
# writes must stay under the kernel's iovec limit.

NET_PREFIX = "src/net/"
NET_REACTOR_PREFIX = "src/net/server"

# Scatter-gather syscalls pin an iovec array per call; the kernel fails
# iovcnt > IOV_MAX with EINVAL, and an unbounded gather loop discovers that
# at runtime, under load, on the largest outbox.  Every such call site must
# sit below a visible bound on the entry count.
IOVEC_CALL_RE = re.compile(
    r"(?<![\w.])(?:::\s*)?(writev|pwritev2?|sendmsg)\s*\(")
IOVEC_BOUND_RE = re.compile(
    r"\bk\w*[Mm]ax\w*[Ii]ov\w*\b|\bk\w*[Ii]ov\w*[Mm]ax\w*\b|"
    r"\bIOV_MAX\b|\bUIO_MAXIOV\b")
MIN_CLAMP_RE = re.compile(r"\b(?:std\s*::\s*)?(?:min|clamp)\s*\(")


def rule_net_unbounded_iovec(path, raw, code):
    """A writev/pwritev/sendmsg site in src/net/ must be dominated by an
    iovec-count bound: some line in the preceding window compares against
    (or min/clamps to) a named iov limit.  Wrappers that just forward to
    the syscall carry an allow() naming where the bound lives."""
    del raw
    if not path.startswith(NET_PREFIX):
        return []
    lines = code.splitlines()
    out = []
    for m in IOVEC_CALL_RE.finditer(code):
        line = _line_of(code, m.start())
        lo = max(0, line - 1 - CAPACITY_WINDOW_LINES)
        window = lines[lo:line]  # includes the call line itself
        if any(IOVEC_BOUND_RE.search(ln) and
               (COMPARISON_RE.search(ln) or MIN_CLAMP_RE.search(ln))
               for ln in window):
            continue
        out.append(Violation(
            path, line, "net-unbounded-iovec",
            f"{m.group(1)}() with no iovec-count bound in the preceding "
            f"{CAPACITY_WINDOW_LINES} lines; cap the gather width "
            "against a named limit (kMaxFlushIov / kClientMaxIov / "
            "IOV_MAX) or carry an allow() naming where the bound lives"))
    return out


SLEEP_RE = re.compile(
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|(?<![\w.])usleep\s*\(|"
    r"(?<![\w.])nanosleep\s*\(|(?<![\w.:])sleep\s*\(")
BARE_ACCEPT_RE = re.compile(r"(?<![\w.])accept\s*\(")
NONBLOCK_FD_RE = re.compile(r"(?<![\w.])(socket|accept4|eventfd)\s*\(")
NONBLOCK_FLAG = {"socket": "SOCK_NONBLOCK", "accept4": "SOCK_NONBLOCK",
                 "eventfd": "EFD_NONBLOCK"}
POOL_RE = re.compile(
    r"\bThreadPool\b|(?:\.|->)\s*(?:Submit|ParallelFor)\s*\(")


def _call_args(code, open_paren_pos):
    """Returns the argument text of the call whose '(' is at
    open_paren_pos (balanced-paren scan; truncated calls return the
    tail)."""
    depth = 0
    for i in range(open_paren_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren_pos:i]
    return code[open_paren_pos:]


def rule_net_blocking_reactor(path, raw, code):
    """The reactor (src/net/server*) is one thread multiplexing every
    connection; any blocking call stalls them all.  It may block only in
    epoll_wait.  Client-side code (src/net/client*) uses blocking sockets
    deliberately and is out of scope."""
    del raw
    if not path.startswith(NET_REACTOR_PREFIX):
        return []
    out = []
    for m in SLEEP_RE.finditer(code):
        out.append(Violation(
            path, _line_of(code, m.start()), "net-blocking-reactor",
            "sleep on the reactor thread; the epoll loop may only block in "
            "epoll_wait -- pace work with the epoll_wait timeout "
            "(NextTimeoutMs), never a sleep"))
    for m in BARE_ACCEPT_RE.finditer(code):
        out.append(Violation(
            path, _line_of(code, m.start()), "net-blocking-reactor",
            "bare accept() on the reactor thread; use "
            "accept4(..., SOCK_NONBLOCK | SOCK_CLOEXEC) so a new "
            "connection can never hand the reactor a blocking fd"))
    for m in NONBLOCK_FD_RE.finditer(code):
        fn = m.group(1)
        if NONBLOCK_FLAG[fn] not in _call_args(code, m.end() - 1):
            out.append(Violation(
                path, _line_of(code, m.start()), "net-blocking-reactor",
                f"{fn}() without {NONBLOCK_FLAG[fn]} on the reactor "
                "thread; a blocking fd in the epoll loop stalls every "
                "connection"))
    for m in POOL_RE.finditer(code):
        out.append(Violation(
            path, _line_of(code, m.start()), "net-blocking-reactor",
            "thread-pool use in the reactor; it predicts each batch "
            "itself -- a hop to a pool worker and back costs more than "
            "the prediction and puts the reactor behind pool tasks"))
    return out


RULES = {
    "atomic-shared-ptr": rule_atomic_shared_ptr,
    "submit-under-lock": rule_submit_under_lock,
    "nondeterministic-source": rule_nondeterministic_source,
    "float-precision": rule_float_precision,
    "naked-new": rule_naked_new,
    "unbounded-member-push": rule_unbounded_member_push,
    "net-blocking-reactor": rule_net_blocking_reactor,
    "net-unbounded-iovec": rule_net_unbounded_iovec,
}


def apply_suppressions(raw_text: str, path: str,
                       violations: list) -> tuple[list, list]:
    """Returns (remaining_violations, suppression_errors).  An allow()
    comment suppresses matching-rule findings on its own line and the
    line below; an allow() without justification is itself an error."""
    allows = {}  # line -> set of rules allowed there
    errors = []
    for idx, line in enumerate(raw_text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, why = m.group(1), m.group(2)
        # qpp_concur shares the allow() syntax; its rule names are valid
        # here (this tool validates every allow comment in the tree) but
        # only suppress qpp_concur findings, not ours.
        if rule not in RULES and rule not in CONCUR_RULE_NAMES:
            errors.append(Violation(
                path, idx, "bad-allow",
                f"allow() names unknown rule '{rule}'; known: "
                f"{', '.join(sorted(set(RULES) | set(CONCUR_RULE_NAMES)))}"))
            continue
        if not why:
            errors.append(Violation(
                path, idx, "bad-allow",
                f"allow({rule}) without a justification; write "
                f"`// qpp-lint: allow({rule}): <why>`"))
            continue
        allows.setdefault(idx, set()).add(rule)
        allows.setdefault(idx + 1, set()).add(rule)
    remaining = [v for v in violations
                 if v.rule not in allows.get(v.line, set())]
    return remaining, errors


def lint_text(raw_text: str, rel_path: str) -> list:
    """Lints one file's contents; rel_path uses '/' separators relative to
    the repo root (it selects which rules apply)."""
    rel_path = rel_path.replace(os.sep, "/")
    code = strip_comments_and_strings(raw_text)
    violations = []
    for rule_fn in RULES.values():
        violations.extend(rule_fn(rel_path, raw_text, code))
    violations, errors = apply_suppressions(raw_text, rel_path, violations)
    return sorted(violations + errors, key=lambda v: (v.path, v.line, v.rule))


def lint_file(root: str, rel_path: str) -> list:
    with open(os.path.join(root, rel_path), encoding="utf-8",
              errors="replace") as f:
        return lint_text(f.read(), rel_path)


def collect_files(root: str, paths: list) -> list:
    rels = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            rels.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("build", ".git"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    rels.append(os.path.relpath(os.path.join(dirpath, name),
                                                root))
    return rels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qpp repo-invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs relative to root "
                             f"(default: {' '.join(DEFAULT_SCAN_DIRS)})")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or [d for d in DEFAULT_SCAN_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    files = collect_files(root, paths)
    if not files:
        print("qpp_lint: no C++ files found", file=sys.stderr)
        return 2

    all_violations = []
    for rel in files:
        all_violations.extend(lint_file(root, rel))
    for v in all_violations:
        print(v)
    if all_violations:
        print(f"qpp_lint: {len(all_violations)} violation(s) in "
              f"{len({v.path for v in all_violations})} file(s)",
              file=sys.stderr)
        return 1
    print(f"qpp_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
