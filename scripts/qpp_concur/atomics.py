"""Pass 3: atomic memory-order discipline.

Scope: src/net, src/serve, src/obs, src/card (the hot serving paths).
Every atomic operation there must name an explicit std::memory_order --
silent seq_cst hides the author's intent and costs a full fence on ARM;
the audit comment next to each explicit order is the reviewable
justification.  Three shapes are flagged:

  * method ops (.load/.store/.exchange/.fetch_*/.compare_exchange_*)
    with no memory_order argument (compare_exchange needs both success
    and failure orders);
  * operator ops (++ / -- / += / = ...) which cannot name an order at
    all;
  * bare implicit-conversion reads (`if (stop_)`) which are seq_cst
    loads in disguise.

RCU publication subrule (rule `rcu-publication`, whole src/ tree):
snapshots are published through qpp::Published<T>
(src/common/published.h), which needs no atomic pointer, so any
std::atomic<T*> is treated as a hand-rolled publication pointer.  Its
stores must be memory_order_release, loads memory_order_acquire,
exchanges memory_order_acq_rel, and operator/implicit forms are always
wrong.
"""

from __future__ import annotations

import re

from qpp_concur.cxx import call_args, line_of
from qpp_concur.report import Finding

SCOPE_PREFIXES = ("src/net/", "src/serve/", "src/obs/", "src/card/")

METHOD_OPS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor",
              "compare_exchange_weak", "compare_exchange_strong",
              "wait", "notify_one", "notify_all", "test_and_set", "clear")

# notify_one/notify_all take no order; wait takes one.
NO_ORDER_OPS = ("notify_one", "notify_all")

OP_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(" + "|".join(METHOD_OPS) + r")\s*\(")

# No '<' or '>' inside the argument: keeps the inner `atomic<uint64_t>` of
# a `std::vector<std::atomic<uint64_t>>` from claiming the vector's name.
LOCAL_ATOMIC_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic\s*<([^;{}()<>]*)>\s+([A-Za-z_]\w*)")

INCDEC_RE_T = r"(?:\+\+|--)\s*{n}\b|\b{n}\s*(?:\+\+|--)"
COMPOUND_RE_T = r"\b{n}\s*[+\-|&^]="
ASSIGN_RE_T = r"\b{n}\s*(?<![=!<>+\-*/%&|^])=(?![=])"


def _subsystem(rel):
    parts = rel.split("/")
    return "/".join(parts[:2]) if len(parts) >= 2 else rel


def _collect_atomics(prog):
    """subsystem dir -> {name -> is_pointer}.  Scoping atomic names to the
    directory that declares them keeps a plain `count_` member in another
    subsystem from being mistaken for the atomic one."""
    by_dir = {}
    for cls in prog.classes.values():
        sub = _subsystem(cls.path)
        for mem in cls.members.values():
            if mem.is_atomic:
                d = by_dir.setdefault(sub, {})
                d[mem.name] = d.get(mem.name, False) or mem.is_pointer_atomic
    for rel, (raw, code) in prog.files.items():
        sub = _subsystem(rel)
        for m in LOCAL_ATOMIC_RE.finditer(code):
            inner, name = m.group(1).strip(), m.group(2)
            d = by_dir.setdefault(sub, {})
            d[name] = d.get(name, False) or inner.endswith("*")
    return by_dir


def _rcu_check(op, args, path, line, name):
    """Finding or None for an op on a publication pointer."""
    want = {"store": "memory_order_release",
            "load": "memory_order_acquire",
            "exchange": "memory_order_acq_rel"}.get(op)
    if want is None:
        if op.startswith("compare_exchange"):
            if args.count("memory_order") < 2:
                return Finding(path, line, "rcu-publication",
                               f"{name}.{op} on a publication pointer must "
                               f"name explicit success and failure orders")
        return None
    if want not in args:
        return Finding(
            path, line, "rcu-publication",
            f"{name}.{op} publishes/reads an RCU snapshot pointer and must "
            f"use {want} (found: "
            f"{'implicit seq_cst' if 'memory_order' not in args else args.strip()})")
    return None


def run(prog):
    by_dir = _collect_atomics(prog)
    if not by_dir:
        return []
    findings = []
    for rel, (raw, code) in prog.files.items():
        in_scope = rel.startswith(SCOPE_PREFIXES)
        atomics = dict(by_dir.get(_subsystem(rel), {}))
        if not atomics:
            continue
        names_alt = "|".join(re.escape(n) for n in sorted(atomics))
        lines_cache = code.splitlines()

        claimed = set()  # lines already carrying an rcu finding

        # Method-call ops.
        for m in OP_RE.finditer(code):
            name, op = m.group(1), m.group(2)
            if name not in atomics:
                continue
            line = line_of(code, m.start())
            args = call_args(code, m.end() - 1)
            if atomics[name]:  # publication pointer: src/-wide rule
                f = _rcu_check(op, args, rel, line, name)
                if f is not None:
                    findings.append(f)
                    claimed.add(line)
                    continue
            if not in_scope or op in NO_ORDER_OPS or line in claimed:
                continue
            need = 2 if op.startswith("compare_exchange") else 1
            if args.count("memory_order") < need:
                what = ("success and failure memory orders"
                        if need == 2 else "an explicit std::memory_order")
                findings.append(Finding(
                    rel, line, "atomic-memory-order",
                    f"{name}.{op}(...) must name {what} "
                    f"(implicit seq_cst on a hot path)"))

        # Operator writes (can never name an order).
        if not in_scope and not any(atomics.values()):
            continue
        for name, is_ptr in atomics.items():
            if not in_scope and not is_ptr:
                continue
            rule = "rcu-publication" if is_ptr else "atomic-memory-order"
            for pat, hint in (
                    (re.compile(INCDEC_RE_T.format(n=re.escape(name))),
                     "use fetch_add/fetch_sub with an explicit order"),
                    (re.compile(COMPOUND_RE_T.format(n=re.escape(name))),
                     "use the fetch_* form with an explicit order"),
                    (re.compile(ASSIGN_RE_T.format(n=re.escape(name))),
                     "use .store(v, std::memory_order_...)"),
            ):
                for m in pat.finditer(code):
                    line = line_of(code, m.start())
                    if line in claimed:
                        continue
                    # Skip declarations / initialisations of the atomic.
                    if "atomic" in lines_cache[line - 1]:
                        continue
                    claimed.add(line)
                    findings.append(Finding(
                        rel, line, rule,
                        f"operator write to atomic '{name}' is an implicit "
                        f"seq_cst op; {hint}"))

        # Implicit-conversion reads: bare use of an atomic name that is
        # not a member access, call, declaration, or address-of.
        if not in_scope:
            continue
        bare = re.compile(r"\b(" + names_alt + r")\b")
        for m in bare.finditer(code):
            name = m.group(1)
            line = line_of(code, m.start())
            if line in claimed:
                continue
            adjacent = code[m.start() - 1] if m.start() else ""
            if adjacent in ".>&:":
                continue  # member access (obj.n_, ->n_, ::n_) or address-of
            before = code[:m.start()].rstrip()[-1:]
            after = code[m.end():m.end() + 32].lstrip()
            if before in ("?", ":"):
                # Either arm of a ternary like `(cond ? a_ : b_)` whose
                # member op names the order on the selected result.
                continue
            if after.startswith((".", "->", "(", "=", "+", "-", "|", "^",
                                 "[", ":")):
                # Method op, call, write (handled above), or ternary true arm.
                continue
            if after.startswith(")") and \
                    after[1:].lstrip().startswith((".", "->")):
                # `(cond ? a_ : b_)\n    .fetch_add(...)`: the close paren
                # ends a selection whose member op names the order.  A bare
                # `if (a_)` has no member op after the paren and still fires.
                continue
            if "atomic" in lines_cache[line - 1]:
                continue  # its declaration
            claimed.add(line)
            findings.append(Finding(
                rel, line, "atomic-memory-order",
                f"bare read of atomic '{name}' is an implicit seq_cst "
                f"load; use {name}.load(std::memory_order_...)"))
    return findings
