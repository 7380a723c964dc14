"""Whole-program model: files, classes, functions, locks, calls.

This is a heuristic C++ front end, not a compiler. It works on
comment/string-stripped text (qpp_concur.cxx) and recovers exactly the
structure the four passes need:

  * a brace-context tree per file (namespace / class / function / block),
  * per-class member tables (mutex members, std::atomic members with
    their inner type, member name -> cleaned class type for receiver
    resolution),
  * per-function lock-acquisition intervals (RAII guards with scope
    ends, split at explicit .unlock()/.lock()) and call sites,
  * heuristic call resolution: `Class::Method` explicitly, bare calls to
    the enclosing class, member receivers through the member-type table,
    and otherwise only if the callee name is unique program-wide (always
    so for a call on a call's result, `f().g()` or `f()->g()`).

Known, documented limitations (see DESIGN.md):
  * lambdas are modelled as separate anonymous functions -- code inside
    a lambda is *not* attributed to the enclosing function's lock
    context (a deferred `Submit([..]{ lock(); })` must not look like a
    lock under the caller's mutex).  Immediate-invocation lambdas
    (cv predicates, comparators) therefore escape the caller's held-set;
    they do not take locks anywhere in this tree.
  * mutex identity is per class member (e.g. `ThreadPool::mu_`), not per
    instance.  The runtime OrderedMutex layer is instance-exact.
  * virtual dispatch resolves to the statically named class; overrides
    are found only via the unique-name fallback.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from qpp_concur.cxx import (CXX_EXTENSIONS, line_of, matching_brace,
                            strip_comments_and_strings)

# ---------------------------------------------------------------------------
# Small lexical tables.

MUTEX_TYPES = re.compile(
    r"\b(?:std\s*::\s*)?(?:mutex|shared_mutex|recursive_mutex|timed_mutex)\b"
    r"|\bOrderedMutex\b")

GUARD_RE = re.compile(
    r"\b(?:std\s*::\s*)?(lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^;{}()]*>)?\s+([A-Za-z_]\w*)\s*([({])")

# expr.lock() / expr->lock() on something that resolves to a mutex member.
MANUAL_LOCK_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(lock|unlock)\s*\(\s*\)")

CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*[A-Za-z_~]\w*)*)\s*\(")

CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "switch", "do", "try", "catch", "case",
    "default", "return", "break", "continue", "goto", "sizeof", "alignof",
    "new", "delete", "throw", "static_assert", "decltype", "noexcept",
    "assert", "defined", "alignas", "co_await", "co_return", "co_yield",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

HEAD_KEYWORD_RE = re.compile(
    r"^(?:if|else|for|while|switch|do|try|catch|case|default|return|break|"
    r"continue|goto|extern)\b")

LAMBDA_HEAD_RE = re.compile(
    r"\[[^][]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?(?:noexcept\b\s*)?"
    r"(?:->\s*[^{};]+)?$")

NAMESPACE_HEAD_RE = re.compile(r"(?:\A|\s)namespace(?:\s+([\w:]+))?\s*$")

CLASS_HEAD_RE = re.compile(
    r"(?:\A|\s)(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{]*)?$")

FUNC_NAME_RE = re.compile(r"([~A-Za-z_][\w:~]*)\s*\(")

ACCESS_LABEL_RE = re.compile(r"^(?:\s*(?:public|private|protected)\s*:)+")

MEMBER_DECL_RE = re.compile(
    r"^(?:(?:mutable|static|constexpr|inline|volatile|alignas\s*\([^)]*\))"
    r"\s+)*"
    r"((?:const\s+)?[\w:]+(?:\s*<.*>)?(?:\s*[*&]+)?(?:\s+const)?)\s+"
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")

STMT_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|template|enum|class|struct|namespace|"
    r"public|private|protected|QPP_|#)")


# ---------------------------------------------------------------------------
# Data model.

@dataclass
class Member:
    name: str
    type_text: str
    base: str            # cleaned class simple name ('' if scalar/unknown)
    is_mutex: bool
    is_atomic: bool
    atomic_inner: str    # inner T of std::atomic<T> ('' otherwise)

    @property
    def is_pointer_atomic(self) -> bool:
        return self.is_atomic and self.atomic_inner.rstrip().endswith("*")


@dataclass
class ClassInfo:
    key: str             # nested-class chain without namespaces
    path: str
    body_start: int = 0
    body_end: int = 0
    members: dict = field(default_factory=dict)   # name -> Member
    method_names: set = field(default_factory=set)

    @property
    def simple(self) -> str:
        return self.key.rsplit("::", 1)[-1]


@dataclass
class LockEvent:
    mutex: str           # canonical id, e.g. 'ThreadPool::mu_'
    start: int           # offsets into the function's analysis text
    end: int
    line: int            # 1-based line of the acquisition


@dataclass
class CallSite:
    chain: str           # textual callee chain, e.g. 'pool_->Submit'
    name: str            # last component
    pos: int
    line: int
    targets: list = field(default_factory=list)   # resolved Function list


@dataclass
class Function:
    qual: str            # 'Class::Name', bare name, or '<lambda:path:line>'
    name: str
    cls: "ClassInfo | None"
    path: str
    line: int
    body_start: int = 0
    body_end: int = 0
    raw_name: str = ""   # head name as written, possibly 'Class::Name'
    line_base: int = 0   # file line of body_start minus one
    is_lambda: bool = False
    locks: list = field(default_factory=list)     # [LockEvent]
    calls: list = field(default_factory=list)     # [CallSite]
    locals: dict = field(default_factory=dict)    # var -> class simple name

    def held_at(self, pos: int):
        return [ev for ev in self.locks if ev.start <= pos < ev.end]


@dataclass
class Program:
    root: str
    files: dict = field(default_factory=dict)      # rel -> (raw, code)
    classes: dict = field(default_factory=dict)    # key -> ClassInfo
    functions: list = field(default_factory=list)
    by_name: dict = field(default_factory=dict)    # name -> [Function]
    methods: dict = field(default_factory=dict)    # (class key, name) -> [Fn]

    def class_by_simple(self, simple: str):
        hits = [c for c in self.classes.values() if c.simple == simple]
        return hits[0] if len(hits) == 1 else None

    def mutex_owner(self, member_name: str):
        hits = [c for c in self.classes.values()
                if member_name in c.members and c.members[member_name].is_mutex]
        return hits[0] if len(hits) == 1 else None


# ---------------------------------------------------------------------------
# File scanning.

def scan_files(root: str, subdir: str = "src") -> dict:
    out = {}
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for fn in sorted(filenames):
            if not fn.endswith(CXX_EXTENSIONS):
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
            out[rel] = (raw, strip_comments_and_strings(raw))
    return out


# ---------------------------------------------------------------------------
# Context parsing.

def _strip_preproc(head: str) -> str:
    return "\n".join(l for l in head.splitlines()
                     if not l.lstrip().startswith("#"))


def _strip_template_prefix(head: str) -> str:
    m = re.match(r"\s*template\s*<", head)
    if not m:
        return head
    depth, i = 0, head.find("<", m.start())
    while i < len(head):
        if head[i] == "<":
            depth += 1
        elif head[i] == ">":
            depth -= 1
            if depth == 0:
                return head[i + 1:]
        i += 1
    return head


def classify_head(head: str):
    """-> (kind, name) with kind in {'namespace','class','function','block'}."""
    head = _strip_preproc(head).strip()
    head = ACCESS_LABEL_RE.sub("", head).strip()
    head = _strip_template_prefix(head).strip()
    if not head or head.endswith("=") or head.endswith(","):
        return ("block", "")
    if HEAD_KEYWORD_RE.match(head):
        return ("block", "")
    m = NAMESPACE_HEAD_RE.search(head)
    if m:
        return ("namespace", m.group(1) or "<anon>")
    if re.search(r"\benum\b", head):
        return ("block", "")
    m = CLASS_HEAD_RE.search(head)
    if m:
        return ("class", m.group(1))
    if LAMBDA_HEAD_RE.search(head):
        return ("function", "<lambda>")
    # A function head has balanced parens; an unbalanced head is the
    # inside of a call or initialiser (`v.push_back({`, `Foo(bar, {`).
    if head.count("(") != head.count(")"):
        return ("block", "")
    m = FUNC_NAME_RE.search(head)
    if m and m.group(1).split("::")[-1].lstrip("~") and \
            m.group(1).split("::")[0] not in CONTROL_KEYWORDS:
        return ("function", m.group(1))
    return ("block", "")


@dataclass
class _Ctx:
    kind: str
    name: str
    body_start: int
    info: object = None   # ClassInfo or Function


def parse_file(prog: Program, rel: str, code: str):
    """Walks braces, creating ClassInfo / Function records."""
    stack = []
    last_break = 0
    class_stack = []      # ClassInfo chain for nesting

    def enclosing_class():
        return class_stack[-1] if class_stack else None

    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == ";":
            last_break = i + 1
        elif c == "{":
            head = code[last_break:i]
            kind, name = classify_head(head)
            info = None
            if kind == "class":
                key = name
                if class_stack:
                    key = class_stack[-1].key + "::" + name
                info = prog.classes.get(key)
                if info is None:
                    info = ClassInfo(key=key, path=rel)
                    prog.classes[key] = info
                info.body_start, info.body_end = i + 1, 0
                info.path = rel
                class_stack.append(info)
            elif kind == "function":
                line = line_of(code, i)
                cls = enclosing_class()
                if name == "<lambda>":
                    qual = f"<lambda:{rel}:{line}>"
                    fname = qual
                    is_lambda = True
                else:
                    is_lambda = False
                    fname = name.split("::")[-1].lstrip("~")
                    qual = fname  # finalised by link_methods()
                info = Function(qual=qual, name=fname, cls=cls, path=rel,
                                line=line, body_start=i + 1,
                                raw_name=name, is_lambda=is_lambda)
                info.line_base = line_of(code, i + 1) - 1
                prog.functions.append(info)
            stack.append(_Ctx(kind, name, i + 1, info))
            last_break = i + 1
        elif c == "}":
            if stack:
                ctx = stack.pop()
                if ctx.kind == "class" and class_stack:
                    class_stack[-1].body_end = i
                    class_stack.pop()
                elif ctx.kind == "function" and ctx.info is not None:
                    ctx.info.body_end = i
            last_break = i + 1
        i += 1


def link_methods(prog: Program):
    """Resolves `Class::Method` qualifiers once every file (and hence every
    class) has been parsed -- .cc files sort before their .h."""
    for fn in prog.functions:
        if fn.is_lambda or not fn.raw_name:
            continue
        parts = fn.raw_name.split("::")
        cls = fn.cls
        if len(parts) > 1:
            owner = prog.class_by_simple(parts[-2].lstrip("~"))
            if owner is not None:
                cls = owner
            elif cls is None or cls.simple != parts[-2]:
                cls = None  # unknown qualifier (e.g. ns::fn)
        fn.cls = cls
        if cls is not None:
            fn.qual = f"{cls.key}::{fn.name}"
            cls.method_names.add(fn.name)


# ---------------------------------------------------------------------------
# Class member tables.

def _split_template(text: str):
    """Returns text with the first balanced <...> region removed, plus the
    region itself."""
    start = text.find("<")
    if start < 0:
        return text, ""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return text[:start] + text[i + 1:], text[start + 1:i]
    return text, ""


def _clean_base(type_text: str) -> str:
    """unique_ptr<Foo>* / const Foo& / std::shared_ptr<const Foo> -> Foo."""
    t = type_text.strip()
    m = re.match(
        r"(?:const\s+)?(?:std\s*::\s*)?(?:unique_ptr|shared_ptr|optional|"
        r"weak_ptr|atomic)\s*<(.*)>\s*[*&]*\s*$", t)
    if m:
        t = m.group(1).strip()
    t = re.sub(r"^(?:const\s+)", "", t)
    t = re.sub(r"[*&\s]+$", "", t)
    t = t.rsplit("::", 1)[-1]
    return t if re.fullmatch(r"[A-Za-z_]\w*", t or "") else ""


def build_members(prog: Program):
    for cls in prog.classes.values():
        raw, code = prog.files[cls.path]
        body = code[cls.body_start:cls.body_end]
        # Blank nested brace regions, inserting ';' so method heads and
        # brace-initialised members both terminate into statements.
        out, i, n = [], 0, len(body)
        while i < n:
            if body[i] == "{":
                j = matching_brace(body, i)
                blank = ";" + " " * (j - i - 1)
                out.append("".join("\n" if body[k] == "\n" else blank[k - i]
                                   for k in range(i, j)))
                i = j
            else:
                out.append(body[i])
                i += 1
        flat = "".join(out)
        for stmt in flat.split(";"):
            stmt = ACCESS_LABEL_RE.sub("", stmt).strip()
            stmt = re.sub(r"=.*$", "", stmt, flags=re.S).strip()
            if not stmt or STMT_SKIP_RE.match(stmt):
                continue
            no_tmpl, tmpl = _split_template(stmt)
            if "(" in no_tmpl:
                m = re.search(r"([A-Za-z_]\w*)\s*\(", no_tmpl)
                if m and m.group(1) not in CONTROL_KEYWORDS:
                    cls.method_names.add(m.group(1))
                continue
            m = MEMBER_DECL_RE.match(stmt)
            if not m:
                continue
            type_text, name = m.group(1).strip(), m.group(2)
            is_mutex = bool(MUTEX_TYPES.search(type_text))
            atomic_m = re.match(
                r"(?:mutable\s+)?(?:std\s*::\s*)?atomic\s*<(.*)>\s*$",
                type_text)
            cls.members[name] = Member(
                name=name, type_text=type_text, base=_clean_base(type_text),
                is_mutex=is_mutex, is_atomic=atomic_m is not None,
                atomic_inner=atomic_m.group(1).strip() if atomic_m else "")


# ---------------------------------------------------------------------------
# Function bodies: analysis text, locks, calls.

def _analysis_text(prog: Program, fn: Function) -> str:
    """Function body with nested function/class contexts blanked out."""
    raw, code = prog.files[fn.path]
    body = list(code[fn.body_start:fn.body_end])
    for other in prog.functions:
        if other is fn or other.path != fn.path:
            continue
        if other.body_start > fn.body_start and other.body_end <= fn.body_end:
            for k in range(other.body_start - 1, other.body_end + 1):
                idx = k - fn.body_start
                if 0 <= idx < len(body) and body[idx] != "\n":
                    body[idx] = " "
    for cls in prog.classes.values():
        if cls.path != fn.path:
            continue
        if cls.body_start > fn.body_start and cls.body_end <= fn.body_end:
            for k in range(cls.body_start - 1, cls.body_end + 1):
                idx = k - fn.body_start
                if 0 <= idx < len(body) and body[idx] != "\n":
                    body[idx] = " "
    return "".join(body)


def resolve_mutex(prog: Program, fn: Function, expr: str):
    """-> canonical mutex id or None if `expr` is not mutex-like."""
    expr = expr.strip().lstrip("*&").strip()
    expr = re.sub(r"^this\s*->\s*", "", expr)
    if not expr or expr.startswith("std::"):
        return None
    parts = [p for p in re.split(r"::|->|\.", expr) if p]
    if not parts or not re.fullmatch(r"[A-Za-z_]\w*", parts[-1]):
        return None
    name = parts[-1]
    if len(parts) == 1:
        if fn.cls and name in fn.cls.members and fn.cls.members[name].is_mutex:
            return f"{fn.cls.key}::{name}"
        owner = prog.mutex_owner(name)
        if owner is not None:
            return f"{owner.key}::{name}"
        return f"<{fn.path}>::{name}"
    receiver = parts[-2]
    if fn.cls and receiver in fn.cls.members:
        base = prog.class_by_simple(fn.cls.members[receiver].base)
        if base and name in base.members and base.members[name].is_mutex:
            return f"{base.key}::{name}"
    owner = prog.mutex_owner(name)
    if owner is not None:
        return f"{owner.key}::{name}"
    return f"<{fn.path}>::{name}"


def _scope_end(text: str, pos: int) -> int:
    """End offset of the innermost brace scope containing `pos` (len(text)
    when the position sits at body top level)."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            if depth == 0:
                return i
            depth -= 1
    return len(text)


def _interval_with_unlocks(text: str, var: str, start: int, end: int,
                           mutex: str, line: int, line_base: int):
    """Splits [start, end) at explicit var.unlock()/var.lock() pairs."""
    events = []
    pat = re.compile(r"\b" + re.escape(var) + r"\s*\.\s*(un)?lock\s*\(")
    cur = start
    open_ = True
    for m in pat.finditer(text, start, end):
        if m.group(1):  # unlock
            if open_:
                events.append(LockEvent(mutex, cur, m.start(), line))
                open_ = False
        else:           # relock
            if not open_:
                cur = m.end()
                line = line_base + line_of(text, m.start())
                open_ = True
    if open_:
        events.append(LockEvent(mutex, cur, end, line))
    return events


def _prev_nonspace(text: str, pos: int) -> str:
    j = pos - 1
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    return text[j] if j >= 0 else ""


def _follows_call_result(text: str, pos: int) -> bool:
    """True when the chain at `pos` continues `f().` or `f()->`: a member
    call on the unnamed result of a call, whose type is unknown here."""
    j = pos - 1
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    if j >= 0 and text[j] == ".":
        j -= 1
    elif j >= 1 and text[j - 1:j + 1] == "->":
        j -= 2
    else:
        return False
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    return j >= 0 and text[j] == ")"


def _prev_token(text: str, pos: int) -> str:
    j = pos - 1
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    end = j + 1
    while j >= 0 and (text[j].isalnum() or text[j] == "_"):
        j -= 1
    return text[j + 1:end]


CALL_OK_PREV_TOKENS = {"return", "throw", "else", "case", "co_return",
                       "co_await", "and", "or", "not", "do"}

# `Type var;` / `Type var(...)` / `Type var = ...` / `auto var = Type(...)`
LOCAL_DECL_RE = re.compile(
    r"\b(?:const\s+)?([A-Z]\w*(?:::[A-Z]\w*)*)\s*(?:<[^;(){}]*>)?\s*[*&]?\s+"
    r"([a-z_]\w*)\s*[;({=]")
AUTO_DECL_RE = re.compile(
    r"\bauto[*&]?\s+([a-z_]\w*)\s*=\s*"
    r"(?:std\s*::\s*)?(?:make_unique|make_shared)?\s*<?\s*"
    r"([A-Z]\w*(?:::[A-Z]\w*)*)")


def analyze_function(prog: Program, fn: Function):
    text = _analysis_text(prog, fn)
    base = fn.line_base

    # Local variable declarations, for call-receiver resolution.
    for m in LOCAL_DECL_RE.finditer(text):
        type_name, var = m.group(1), m.group(2)
        simple = type_name.rsplit("::", 1)[-1]
        if prog.class_by_simple(simple) is not None:
            fn.locals.setdefault(var, simple)
    for m in AUTO_DECL_RE.finditer(text):
        var, type_name = m.group(1), m.group(2)
        simple = type_name.rsplit("::", 1)[-1]
        if prog.class_by_simple(simple) is not None:
            fn.locals.setdefault(var, simple)

    # RAII guards.
    for m in GUARD_RE.finditer(text):
        kind, var, open_ch = m.group(1), m.group(2), m.group(3)
        # Argument list (balanced for both ( and { forms).
        close_ch = ")" if open_ch == "(" else "}"
        depth, j = 0, m.end() - 1
        while j < len(text):
            if text[j] == open_ch:
                depth += 1
            elif text[j] == close_ch:
                depth -= 1
                if depth == 0:
                    break
            j += 1
        args = text[m.end():j]
        end = _scope_end(text, m.end())
        line = base + line_of(text, m.start())
        # Split args on top-level commas.
        pieces, depth, cur = [], 0, []
        for ch in args:
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            if ch == "," and depth == 0:
                pieces.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        pieces.append("".join(cur))
        for piece in pieces:
            piece = piece.strip()
            if not piece or "defer_lock" in piece or "adopt_lock" in piece \
                    or "try_to_lock" in piece:
                continue
            mid = resolve_mutex(prog, fn, piece)
            if mid is None:
                continue
            fn.locks.extend(
                _interval_with_unlocks(text, var, j + 1, end, mid, line,
                                       base))

    # Manual expr.lock() ... expr.unlock().
    for m in MANUAL_LOCK_RE.finditer(text):
        if m.group(2) != "lock":
            continue
        recv = m.group(1)
        last = re.split(r"::|->|\.", recv)[-1]
        member_mutex = (
            (fn.cls and last in fn.cls.members
             and fn.cls.members[last].is_mutex)
            or prog.mutex_owner(last) is not None)
        if not member_mutex:
            continue
        mid = resolve_mutex(prog, fn, recv)
        if mid is None:
            continue
        end = _scope_end(text, m.end())
        unlock = re.compile(r"\b" + re.escape(re.sub(r"\s+", "", recv))
                            .replace("->", r"\s*->\s*").replace(".", r"\s*\.\s*")
                            + r"\s*(?:\.|->)\s*unlock\s*\(")
        um = unlock.search(text, m.end(), end)
        fn.locks.append(LockEvent(mid, m.end(),
                                  um.start() if um else end,
                                  base + line_of(text, m.start())))

    # Call sites.
    for m in CALL_RE.finditer(text):
        chain = re.sub(r"\s+", "", m.group(1))
        parts = [p for p in re.split(r"::|->|\.", chain) if p]
        name = parts[-1]
        if name in CONTROL_KEYWORDS or parts[0] in CONTROL_KEYWORDS:
            continue
        if parts[0] == "std" or chain.startswith("std::"):
            continue
        if name in ("lock", "unlock"):
            continue  # handled as lock events, never calls into the model
        if _follows_call_result(text, m.start()):
            # `inner().Get()` / `inner_ptr()->Get()`: mark the receiver as
            # the unknown result "()" so resolution goes by unique name,
            # never to the enclosing class's own `Get`.
            chain = "()." + chain
        elif len(parts) == 1:
            prev = _prev_nonspace(text, m.start())
            if prev and (prev.isalnum() or prev in "_>&*") and \
                    _prev_token(text, m.start()) not in CALL_OK_PREV_TOKENS:
                continue  # looks like a declaration `Type name(...)`
        fn.calls.append(CallSite(chain=chain, name=name, pos=m.start(),
                                 line=base + line_of(text, m.start())))


def resolve_calls(prog: Program):
    for fn in prog.functions:
        for call in fn.calls:
            call.targets = _resolve_call(prog, fn, call)


def _resolve_call(prog: Program, fn: Function, call: CallSite):
    parts = [p for p in re.split(r"::|->|\.", call.chain) if p]
    name = call.name
    # A member call on a call's result: the receiver type is unknown.
    if parts[0] == "()":
        return _unique_by_name(prog, name)
    # Explicit Class::Method.
    if "::" in call.chain and len(parts) >= 2:
        owner = prog.class_by_simple(parts[-2])
        if owner is not None:
            return list(prog.methods.get((owner.key, name), []))
        return _unique_by_name(prog, name)
    # Member access: receiver.name / receiver->name.
    if len(parts) >= 2:
        receiver = parts[-2]
        if receiver == "this" and fn.cls:
            hits = prog.methods.get((fn.cls.key, name), [])
            if hits:
                return list(hits)
        if fn.cls and receiver in fn.cls.members:
            base = prog.class_by_simple(fn.cls.members[receiver].base)
            if base is not None:
                hits = prog.methods.get((base.key, name), [])
                if hits:
                    return list(hits)
        if receiver in fn.locals:
            base = prog.class_by_simple(fn.locals[receiver])
            if base is not None:
                hits = prog.methods.get((base.key, name), [])
                if hits:
                    return list(hits)
        return _unique_by_name(prog, name)
    # Bare call: enclosing class first, then unique name.
    if fn.cls:
        hits = prog.methods.get((fn.cls.key, name), [])
        if hits:
            return list(hits)
    return _unique_by_name(prog, name)


def _unique_by_name(prog: Program, name: str):
    hits = prog.by_name.get(name, [])
    return list(hits) if len(hits) == 1 else []


# ---------------------------------------------------------------------------
# Entry point.

def build(root: str) -> Program:
    prog = Program(root=root)
    prog.files = scan_files(root)
    for rel, (raw, code) in prog.files.items():
        parse_file(prog, rel, code)
    link_methods(prog)
    build_members(prog)
    for fn in prog.functions:
        if fn.body_end <= fn.body_start:
            continue
        analyze_function(prog, fn)
    for fn in prog.functions:
        prog.by_name.setdefault(fn.name, []).append(fn)
        if fn.cls is not None and not fn.is_lambda:
            prog.methods.setdefault((fn.cls.key, fn.name), []).append(fn)
    resolve_calls(prog)
    return prog
