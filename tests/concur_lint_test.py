#!/usr/bin/env python3
"""Unit tests for scripts/qpp_concur (the whole-program concurrency
analyzer).

Each pass gets (a) a synthetic tree with a known violation that must
fire, (b) a nearby known-good tree that must not, and (c) for the
suppression machinery, allow()-comment round trips.  The final test runs
the analyzer over the real repo and requires it to be clean -- the same
check tier-1 and the `qpp_concur_tree` ctest entry run, so a regression
fails here first with a readable witness chain.

Synthetic trees are written to a tempdir shaped like the repo
(src/<sub>/<file>, CMakeLists.txt for the layering pass) and parsed with
model.build(), i.e. the tests exercise the real front end, not mocks.

Run directly (python3 tests/concur_lint_test.py) or via ctest
(concur_lint_test).  Stdlib unittest on purpose: no pytest in the
minimal toolchain image.
"""

import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

from qpp_concur import atomics, blocking, layering, lock_order, model  # noqa: E402
from qpp_concur import report  # noqa: E402
from qpp_concur.__main__ import main as concur_main  # noqa: E402


def build_tree(files):
    """Writes {relpath: text} into a tempdir and parses it.  Returns
    (tmpdir_handle, Program); keep the handle alive while using the
    Program (layering re-reads CMakeLists from disk)."""
    tmp = tempfile.TemporaryDirectory()
    for rel, text in files.items():
        full = os.path.join(tmp.name, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
    return tmp, model.build(tmp.name)


def rules_fired(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# Pass 1: lock-order cycles.

CYCLE_TREE = {
    "src/serve/ab.h": """
#pragma once
#include <mutex>
class B;
class A {
 public:
  void FooLocksAThenB() {
    std::lock_guard<std::mutex> lk(a_mu_);
    b_->BarLocksB();
  }
  void QuxLocksA() { std::lock_guard<std::mutex> lk(a_mu_); }
  std::mutex a_mu_;
  B* b_ = nullptr;
};
class B {
 public:
  void BarLocksB() { std::lock_guard<std::mutex> lk(b_mu_); }
  void BazLocksBThenA() {
    std::lock_guard<std::mutex> lk(b_mu_);
    a_->QuxLocksA();
  }
  std::mutex b_mu_;
  A* a_ = nullptr;
};
""",
}


class LockOrderTest(unittest.TestCase):
    def test_cross_function_cycle_fires_with_witness(self):
        tmp, prog = build_tree(CYCLE_TREE)
        with tmp:
            findings = lock_order.run(prog)
        self.assertEqual(["lock-order"], rules_fired(findings))
        self.assertEqual(1, len(findings))  # one finding per cycle, deduped
        text = str(findings[0])
        self.assertIn("A::a_mu_", text)
        self.assertIn("B::b_mu_", text)
        # The witness names both call chains, not just the mutex pair.
        self.assertIn("BarLocksB", text)
        self.assertIn("QuxLocksA", text)

    def test_consistent_order_is_clean(self):
        tree = dict(CYCLE_TREE)
        # Drop the B -> A direction: keep BazLocksBThenA but without the
        # cross call, so only A -> B edges remain.
        tree["src/serve/ab.h"] = tree["src/serve/ab.h"].replace(
            "a_->QuxLocksA();", "")
        tmp, prog = build_tree(tree)
        with tmp:
            self.assertEqual([], lock_order.run(prog))

    def test_self_reacquisition_fires(self):
        tmp, prog = build_tree({"src/serve/s.h": """
#pragma once
#include <mutex>
class S {
 public:
  void Outer() {
    std::lock_guard<std::mutex> lk(mu_);
    Inner();
  }
  void Inner() { std::lock_guard<std::mutex> lk(mu_); }
  std::mutex mu_;
};
"""})
        with tmp:
            findings = lock_order.run(prog)
        self.assertEqual(["lock-order"], rules_fired(findings))
        self.assertIn("self-deadlock", findings[0].message)

    def test_sequential_locks_no_edge(self):
        # Locking A, releasing, then locking B is not an ordering edge.
        tmp, prog = build_tree({"src/serve/s.h": """
#pragma once
#include <mutex>
class S {
 public:
  void F() {
    { std::lock_guard<std::mutex> lk(a_mu_); }
    { std::lock_guard<std::mutex> lk(b_mu_); }
  }
  void G() {
    { std::lock_guard<std::mutex> lk(b_mu_); }
    { std::lock_guard<std::mutex> lk(a_mu_); }
  }
  std::mutex a_mu_;
  std::mutex b_mu_;
};
"""})
        with tmp:
            self.assertEqual([], lock_order.run(prog))

    def test_explicit_unlock_ends_interval(self):
        tmp, prog = build_tree({"src/serve/s.h": """
#pragma once
#include <mutex>
class S {
 public:
  void F() {
    std::unique_lock<std::mutex> lk(a_mu_);
    lk.unlock();
    std::lock_guard<std::mutex> lk2(b_mu_);
  }
  void G() {
    std::lock_guard<std::mutex> lk(b_mu_);
    H();
  }
  void H() { std::lock_guard<std::mutex> lk(a_mu_); }
  std::mutex a_mu_;
  std::mutex b_mu_;
};
"""})
        with tmp:
            # F holds nothing when locking b_mu_, so only B -> A exists.
            self.assertEqual([], lock_order.run(prog))


# Member calls on a call's result: `inner().Get()` names Inner's Get, not
# the enclosing Holder::Get, and `inner_ptr()->Peek()` is a call at all.
CALL_ON_RESULT_TREE = {
    "src/serve/holder.h": """
#pragma once
#include <mutex>
class Inner {
 public:
  int Get() const { std::lock_guard<std::mutex> lk(mu_); return v_; }
  int Peek() const { std::lock_guard<std::mutex> lk(mu_); return v_; }
  mutable std::mutex mu_;
  int v_ = 0;
};
class Holder {
 public:
  Inner& inner() { return inner_; }
  Inner* inner_ptr() { return &inner_; }
  int Get() {
    std::lock_guard<std::mutex> lk(mu_);
    return inner().Get();
  }
  int ViaPointer() {
    std::lock_guard<std::mutex> lk(mu_);
    return inner_ptr()->Peek();
  }
  std::mutex mu_;
  Inner inner_;
};
""",
}


class CallOnResultTest(unittest.TestCase):
    def test_dot_call_on_a_result_is_not_the_enclosing_method(self):
        tmp, prog = build_tree(CALL_ON_RESULT_TREE)
        with tmp:
            # `Get` is not unique, so the call stays unresolved rather than
            # binding to Holder::Get (a self-deadlock on Holder::mu_).
            self.assertEqual([], lock_order.run(prog))

    def test_arrow_call_on_a_result_resolves_by_unique_name(self):
        tmp, prog = build_tree(CALL_ON_RESULT_TREE)
        with tmp:
            fn = next(f for f in prog.functions
                      if f.qual == "Holder::ViaPointer")
            targets = [t.qual for c in fn.calls if c.name == "Peek"
                       for t in c.targets]
        self.assertEqual(["Inner::Peek"], targets)


# ---------------------------------------------------------------------------
# Pass 2: transitive blocking-call-under-lock.

BLOCKING_TREE = {
    "src/serve/p.h": """
#pragma once
#include <mutex>
class ThreadPool {
 public:
  int Submit(int x) { return x; }
};
class P {
 public:
  void Observe() {
    std::lock_guard<std::mutex> lk(mu_);
    Kick();
  }
  void Kick() { pool_->Submit(0); }
  std::mutex mu_;
  ThreadPool* pool_ = nullptr;
};
""",
}


class BlockingTest(unittest.TestCase):
    def test_transitive_submit_under_lock_fires(self):
        tmp, prog = build_tree(BLOCKING_TREE)
        with tmp:
            findings = blocking.run(prog)
        self.assertEqual(["blocking-under-lock"], rules_fired(findings))
        text = str(findings[0])
        self.assertIn("P::mu_", text)
        self.assertIn("Kick", text)
        self.assertIn("Submit", text)

    def test_direct_site_left_to_qpp_lint(self):
        # A Submit textually inside the lock scope is qpp_lint's
        # submit-under-lock; this pass must not double-report it.
        tmp, prog = build_tree({"src/serve/p.h": """
#pragma once
#include <mutex>
class ThreadPool { public: int Submit(int x) { return x; } };
class P {
 public:
  void Observe() {
    std::lock_guard<std::mutex> lk(mu_);
    pool_->Submit(0);
  }
  std::mutex mu_;
  ThreadPool* pool_ = nullptr;
};
"""})
        with tmp:
            self.assertEqual([], blocking.run(prog))

    def test_call_outside_lock_is_clean(self):
        tree = {"src/serve/p.h": BLOCKING_TREE["src/serve/p.h"].replace(
            "std::lock_guard<std::mutex> lk(mu_);\n    Kick();",
            "{ std::lock_guard<std::mutex> lk(mu_); }\n    Kick();")}
        tmp, prog = build_tree(tree)
        with tmp:
            self.assertEqual([], blocking.run(prog))

    def test_deferred_lambda_not_attributed_to_caller(self):
        # Submitting a lambda that locks is deferred execution: the lambda
        # body must not count as blocking work done by the caller.
        tmp, prog = build_tree({"src/serve/p.h": """
#pragma once
#include <mutex>
class ThreadPool { public: int Submit(int x) { return x; } };
class P {
 public:
  void Flush() {
    Forward();
  }
  void Forward() { pool_->Submit([this] {
    std::lock_guard<std::mutex> lk(mu_);
    return 0;
  }); }
  std::mutex mu_;
  ThreadPool* pool_ = nullptr;
};
"""})
        with tmp:
            self.assertEqual([], blocking.run(prog))
            self.assertEqual([], lock_order.run(prog))


# ---------------------------------------------------------------------------
# Pass 3: atomic memory-order discipline + RCU publication.

def atomics_tree(body, path="src/serve/s.h", member="std::atomic<int> n_{0};"):
    return {path: f"""
#pragma once
#include <atomic>
class S {{
 public:
  {body}
  {member}
}};
"""}


class AtomicsTest(unittest.TestCase):
    def run_pass(self, tree):
        tmp, prog = build_tree(tree)
        with tmp:
            return atomics.run(prog)

    def test_fetch_add_without_order_fires(self):
        findings = self.run_pass(atomics_tree("void Inc() { n_.fetch_add(1); }"))
        self.assertEqual(["atomic-memory-order"], rules_fired(findings))

    def test_fetch_add_with_order_ok(self):
        findings = self.run_pass(atomics_tree(
            "void Inc() { n_.fetch_add(1, std::memory_order_relaxed); }"))
        self.assertEqual([], findings)

    def test_compare_exchange_needs_both_orders(self):
        one = self.run_pass(atomics_tree(
            "bool C(int& e) { return n_.compare_exchange_weak("
            "e, 1, std::memory_order_relaxed); }"))
        self.assertEqual(["atomic-memory-order"], rules_fired(one))
        self.assertIn("success and failure", one[0].message)
        two = self.run_pass(atomics_tree(
            "bool C(int& e) { return n_.compare_exchange_weak(e, 1, "
            "std::memory_order_relaxed, std::memory_order_relaxed); }"))
        self.assertEqual([], two)

    def test_operator_increment_fires(self):
        findings = self.run_pass(atomics_tree("void Inc() { ++n_; }"))
        self.assertEqual(["atomic-memory-order"], rules_fired(findings))
        self.assertIn("operator write", findings[0].message)

    def test_bare_read_fires(self):
        findings = self.run_pass(atomics_tree("bool R() { return n_ > 0; }"))
        self.assertEqual(["atomic-memory-order"], rules_fired(findings))
        self.assertIn("bare read", findings[0].message)

    def test_ternary_selection_with_ordered_op_ok(self):
        findings = self.run_pass(atomics_tree(
            "void T(bool e) { (e ? a_ : b_)\n"
            "      .fetch_add(1, std::memory_order_relaxed); }",
            member="std::atomic<int> a_{0};\n  std::atomic<int> b_{0};"))
        self.assertEqual([], findings)

    def test_explicit_load_ok(self):
        findings = self.run_pass(atomics_tree(
            "int R() { return n_.load(std::memory_order_relaxed); }"))
        self.assertEqual([], findings)

    def test_out_of_scope_subsystem_exempt(self):
        # The explicit-order rule scopes to the hot serving paths; src/ml
        # is out of scope.
        findings = self.run_pass(atomics_tree(
            "void Inc() { n_.fetch_add(1); }", path="src/ml/s.h"))
        self.assertEqual([], findings)

    def test_rcu_store_without_release_fires(self):
        findings = self.run_pass(atomics_tree(
            "void Pub(const int* s) { cur_.store(s); }",
            path="src/qpp/r.h",
            member="std::atomic<const int*> cur_{nullptr};"))
        self.assertEqual(["rcu-publication"], rules_fired(findings))
        self.assertIn("memory_order_release", findings[0].message)

    def test_rcu_relaxed_load_fires_everywhere_in_src(self):
        # src/qpp is outside the atomic-memory-order scope, but publication
        # pointers are checked tree-wide.
        findings = self.run_pass(atomics_tree(
            "const int* Get() { return cur_.load(std::memory_order_relaxed); }",
            path="src/qpp/r.h",
            member="std::atomic<const int*> cur_{nullptr};"))
        self.assertEqual(["rcu-publication"], rules_fired(findings))
        self.assertIn("memory_order_acquire", findings[0].message)

    def test_rcu_release_acquire_pair_ok(self):
        findings = self.run_pass(atomics_tree(
            "void Pub(const int* s) { cur_.store(s, std::memory_order_release); }\n"
            "  const int* Get() { return cur_.load(std::memory_order_acquire); }",
            path="src/qpp/r.h",
            member="std::atomic<const int*> cur_{nullptr};"))
        self.assertEqual([], findings)

    def test_vector_of_atomics_does_not_claim_vector_name(self):
        findings = self.run_pass(atomics_tree(
            "void R() { if (buckets_.empty()) return; }",
            member="std::vector<std::atomic<int>> buckets_;"))
        self.assertEqual([], findings)


# ---------------------------------------------------------------------------
# Pass 4: layering from the CMake link graph.

LAYER_TREE = {
    "src/liba/CMakeLists.txt": "add_library(qpp_liba STATIC a.cc)\n",
    "src/liba/a.h": "#pragma once\nint AFn();\n",
    "src/liba/a.cc": '#include "liba/a.h"\nint AFn() { return 1; }\n',
    "src/libb/CMakeLists.txt": (
        "add_library(qpp_libb STATIC b.cc)\n"
        "target_link_libraries(qpp_libb PUBLIC qpp_liba)\n"),
    "src/libb/b.h": "#pragma once\nint BFn();\n",
    "src/libb/b.cc": ('#include "libb/b.h"\n#include "liba/a.h"\n'
                      "int BFn() { return AFn(); }\n"),
}


class LayeringTest(unittest.TestCase):
    def test_linked_include_ok(self):
        tmp, prog = build_tree(LAYER_TREE)
        with tmp:
            self.assertEqual([], layering.run(prog))

    def test_unlinked_include_fires(self):
        tree = dict(LAYER_TREE)
        tree["src/liba/a.cc"] = ('#include "liba/a.h"\n#include "libb/b.h"\n'
                                 "int AFn() { return BFn(); }\n")
        tmp, prog = build_tree(tree)
        with tmp:
            findings = layering.run(prog)
        self.assertEqual(["layering"], rules_fired(findings))
        self.assertEqual("src/liba/a.cc", findings[0].path)
        self.assertEqual(2, findings[0].line)
        self.assertIn("qpp_libb", findings[0].message)

    def test_transitive_link_allows_include(self):
        tree = dict(LAYER_TREE)
        tree["src/libc/CMakeLists.txt"] = (
            "add_library(qpp_libc STATIC c.cc)\n"
            "target_link_libraries(qpp_libc PUBLIC qpp_libb)\n")
        tree["src/libc/c.cc"] = ('#include "liba/a.h"\n'
                                 "int CFn() { return AFn(); }\n")
        tmp, prog = build_tree(tree)
        with tmp:
            self.assertEqual([], layering.run(prog))

    def test_unattributable_header_fires(self):
        tree = dict(LAYER_TREE)
        # Header-only file in a directory compiling two libraries: no
        # same-basename .cc, ambiguous directory -> must be pinned.
        tree["src/liba/CMakeLists.txt"] = (
            "add_library(qpp_liba STATIC a.cc)\n"
            "add_library(qpp_liba2 STATIC a2.cc)\n")
        tree["src/liba/a2.cc"] = "int A2Fn() { return 2; }\n"
        tree["src/liba/orphan.h"] = "#pragma once\nint OFn();\n"
        tmp, prog = build_tree(tree)
        with tmp:
            findings = layering.run(prog)
        self.assertEqual(["layering"], rules_fired(findings))
        self.assertIn("HEADER_OVERRIDES", findings[0].message)


# ---------------------------------------------------------------------------
# Suppressions.

class SuppressionTest(unittest.TestCase):
    def run_atomics_with_suppressions(self, tree):
        tmp, prog = build_tree(tree)
        with tmp:
            findings = atomics.run(prog)
            raw_texts = {rel: raw for rel, (raw, code) in prog.files.items()}
            remaining, errors = report.apply_suppressions(findings, raw_texts)
        return remaining, errors

    def test_allow_on_line_above_suppresses(self):
        tree = atomics_tree(
            "void Inc() {\n"
            "    // qpp-lint: allow(atomic-memory-order): test fixture\n"
            "    n_.fetch_add(1);\n"
            "  }")
        remaining, errors = self.run_atomics_with_suppressions(tree)
        self.assertEqual([], remaining)
        self.assertEqual([], errors)

    def test_allow_without_justification_is_error(self):
        tree = atomics_tree(
            "void Inc() {\n"
            "    // qpp-lint: allow(atomic-memory-order)\n"
            "    n_.fetch_add(1);\n"
            "  }")
        remaining, errors = self.run_atomics_with_suppressions(tree)
        self.assertEqual(1, len(remaining))  # the finding stands
        self.assertEqual(["bad-allow"], rules_fired(errors))

    def test_other_tools_rules_are_ignored_not_errors(self):
        tree = atomics_tree(
            "void Inc() {\n"
            "    // qpp-lint: allow(naked-new): qpp_lint's rule, not ours\n"
            "    n_.fetch_add(1, std::memory_order_relaxed);\n"
            "  }")
        remaining, errors = self.run_atomics_with_suppressions(tree)
        self.assertEqual([], remaining)
        self.assertEqual([], errors)

    def test_wrong_rule_does_not_suppress(self):
        tree = atomics_tree(
            "void Inc() {\n"
            "    // qpp-lint: allow(lock-order): names the wrong rule\n"
            "    n_.fetch_add(1);\n"
            "  }")
        remaining, errors = self.run_atomics_with_suppressions(tree)
        self.assertEqual(["atomic-memory-order"], rules_fired(remaining))
        self.assertEqual([], errors)


# ---------------------------------------------------------------------------
# The real tree, end to end through the CLI driver.

class RealTreeTest(unittest.TestCase):
    def test_shipped_tree_is_clean(self):
        self.assertEqual(0, concur_main(["--root", REPO_ROOT]))

    def test_cli_exits_nonzero_on_violation(self):
        tmp, _prog = build_tree(CYCLE_TREE)
        with tmp:
            self.assertEqual(1, concur_main(["--root", tmp.name]))

    def test_front_end_sees_the_whole_tree(self):
        prog = model.build(REPO_ROOT)
        # Sanity floor: the parser found the tree, not an empty walk.
        self.assertGreater(len(prog.files), 100)
        self.assertGreater(len(prog.functions), 500)
        self.assertGreater(len(prog.classes), 100)
        # The members pass recognises the repo's mutexes and atomics.
        mutexes = [m for c in prog.classes.values()
                   for m in c.members.values() if m.is_mutex]
        atomics_found = [m for c in prog.classes.values()
                         for m in c.members.values() if m.is_atomic]
        self.assertGreaterEqual(len(mutexes), 8)
        self.assertGreaterEqual(len(atomics_found), 10)


if __name__ == "__main__":
    unittest.main(verbosity=2)
