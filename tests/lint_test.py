#!/usr/bin/env python3
"""Unit tests for scripts/qpp_lint.py (the repo-invariant linter).

Each invariant gets (a) a known-bad snippet that must fire, (b) a nearby
known-good snippet that must not, and (c) a suppression check.  The final
test runs the linter over the real tree and requires it to be clean --
the same check tier-1 runs, so a regression fails here first with a
readable diff of which rule fired where.

Run directly (python3 tests/lint_test.py) or via ctest (lint_test).
Stdlib unittest on purpose: no pytest in the minimal toolchain image.
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import qpp_lint  # noqa: E402


def rules_fired(text, path="src/qpp/fake.cc"):
    return sorted({v.rule for v in qpp_lint.lint_text(text, path)})


class StripTest(unittest.TestCase):
    def test_comments_and_strings_blanked_lines_preserved(self):
        text = ('int a; // new Foo()\n'
                '/* malloc(4) \n still comment */ int b;\n'
                'const char* s = "new int[3]";\n')
        code = qpp_lint.strip_comments_and_strings(text)
        self.assertEqual(code.count("\n"), text.count("\n"))
        self.assertNotIn("new", code)
        self.assertNotIn("malloc", code)
        self.assertIn("int a;", code)
        self.assertIn("int b;", code)

    def test_raw_string_blanked(self):
        text = 'auto s = R"(std::rand() new int)" ; int x;'
        code = qpp_lint.strip_comments_and_strings(text)
        self.assertNotIn("rand", code)
        self.assertIn("int x;", code)

    def test_escaped_quote_in_string(self):
        text = r'const char* s = "a\"new b"; int y;'
        code = qpp_lint.strip_comments_and_strings(text)
        self.assertNotIn("new", code)
        self.assertIn("int y;", code)


class AtomicSharedPtrTest(unittest.TestCase):
    def test_fires(self):
        self.assertIn(
            "atomic-shared-ptr",
            rules_fired("std::atomic<std::shared_ptr<Model>> cur_;"))

    def test_fires_with_spaces(self):
        self.assertIn(
            "atomic-shared-ptr",
            rules_fired("std::atomic< std::shared_ptr<Model> > cur_;"))

    def test_atomic_raw_pointer_ok(self):
        self.assertEqual(
            [], rules_fired("std::atomic<const ModelVersion*> cur_{nullptr};"))


class SubmitUnderLockTest(unittest.TestCase):
    def test_submit_under_lock_guard_fires(self):
        bad = """
        void F() {
          std::lock_guard<std::mutex> lk(mu_);
          pool_->Submit([] { return Status::OK(); });
        }
        """
        self.assertIn("submit-under-lock", rules_fired(bad))

    def test_parallel_for_in_nested_scope_fires(self):
        bad = """
        void F() {
          std::scoped_lock lk(mu_);
          if (ready_) {
            (void)pool->ParallelFor(n, fn);
          }
        }
        """
        self.assertIn("submit-under-lock", rules_fired(bad))

    def test_submit_after_scope_exit_ok(self):
        good = """
        void F() {
          { std::lock_guard<std::mutex> lk(mu_); copy = pending_; }
          pool_->Submit([] { return Status::OK(); });
        }
        """
        self.assertEqual([], rules_fired(good))

    def test_submit_after_explicit_unlock_ok(self):
        good = """
        void F() {
          std::unique_lock<std::mutex> lk(mu_);
          copy = pending_;
          lk.unlock();
          pool_->Submit([] { return Status::OK(); });
        }
        """
        self.assertEqual([], rules_fired(good))

    def test_lock_in_sibling_function_ok(self):
        good = """
        void A() { std::lock_guard<std::mutex> lk(mu_); n_++; }
        void B() { pool_->Submit([] { return Status::OK(); }); }
        """
        self.assertEqual([], rules_fired(good))


class NondeterministicSourceTest(unittest.TestCase):
    def test_random_device_in_src_fires(self):
        self.assertIn(
            "nondeterministic-source",
            rules_fired("std::random_device rd;", "src/serve/feedback.cc"))

    def test_std_rand_in_train_path_fires(self):
        self.assertIn(
            "nondeterministic-source",
            rules_fired("int r = std::rand();", "src/ml/svr.cc"))

    def test_clock_in_train_path_fires(self):
        bad = "auto t = std::chrono::steady_clock::now();"
        self.assertIn("nondeterministic-source",
                      rules_fired(bad, "src/qpp/hybrid.cc"))

    def test_wall_clock_in_serve_fires(self):
        bad = "auto t = std::chrono::system_clock::now();"
        self.assertIn("nondeterministic-source",
                      rules_fired(bad, "src/serve/service.cc"))

    def test_steady_clock_in_serve_ok(self):
        good = "auto t = std::chrono::steady_clock::now();"
        self.assertEqual([], rules_fired(good, "src/serve/service.cc"))

    def test_steady_clock_in_exec_ok(self):
        good = "auto t = std::chrono::steady_clock::now();"
        self.assertEqual([], rules_fired(good, "src/exec/executors.cc"))

    def test_seeded_rng_ok(self):
        good = "qpp::Rng rng(42); std::mt19937_64 gen(seed);"
        self.assertEqual([], rules_fired(good, "src/ml/svr.cc"))

    def test_tests_exempt(self):
        good = "auto t0 = std::chrono::steady_clock::now();"
        self.assertEqual([], rules_fired(good, "tests/storage_test.cc"))


class FloatPrecisionTest(unittest.TestCase):
    def test_low_precision_fires(self):
        self.assertIn("float-precision",
                      rules_fired("out.precision(6);", "src/ml/linreg.cc"))

    def test_setprecision_low_fires(self):
        self.assertIn(
            "float-precision",
            rules_fired("os << std::setprecision(10) << x;",
                        "src/workload/query_log.cc"))

    def test_precision_17_ok(self):
        self.assertEqual([],
                         rules_fired("out.precision(17);", "src/ml/linreg.cc"))

    def test_bench_exempt(self):
        # Telemetry JSON is not model serialization; the rule scopes to src/.
        self.assertEqual(
            [], rules_fired("os << std::setprecision(6);", "bench/x.cc"))


class NakedNewTest(unittest.TestCase):
    def test_new_fires(self):
        self.assertIn("naked-new", rules_fired("auto* d = new Database();"))

    def test_delete_fires(self):
        self.assertIn("naked-new", rules_fired("delete d;"))

    def test_malloc_fires(self):
        self.assertIn("naked-new", rules_fired("void* p = malloc(64);"))

    def test_storage_exempt(self):
        self.assertEqual(
            [], rules_fired("char* f = new char[kPageSize];",
                            "src/storage/buffer_pool.cc"))

    def test_make_unique_ok(self):
        self.assertEqual(
            [], rules_fired("auto d = std::make_unique<Database>();"))

    def test_deleted_special_member_ok(self):
        good = "Registry(const Registry&) = delete;\n" \
               "Registry& operator=(const Registry&) = delete;"
        self.assertEqual([], rules_fired(good))

    def test_new_in_comment_ok(self):
        self.assertEqual([], rules_fired("// rebuilds the new model\nint x;"))


class UnboundedMemberPushTest(unittest.TestCase):
    """One rule over three trees; every case runs on a file in each."""

    PATHS = ("src/net/server.cc", "src/card/card_cache.cc",
             "src/kde/sample.cc")

    def assert_fires(self, text):
        for path in self.PATHS:
            self.assertIn("unbounded-member-push", rules_fired(text, path),
                          msg=path)

    def assert_clean(self, text):
        for path in self.PATHS:
            self.assertEqual([], rules_fired(text, path), msg=path)

    def test_member_push_without_check_fires(self):
        self.assert_fires("void F() { queue_.push_back(std::move(item)); }")

    def test_push_variants_fire(self):
        for call in ("pending_.emplace_back(item)", "jobs_.push(item)",
                     "lru_.push_front(sig)", "rows_.push_back(row)"):
            self.assert_fires(f"void F() {{ {call}; }}")

    def test_capacity_check_dominates_ok(self):
        for check in ("if (queue_.size() >= config_.max_queue) { return; }",
                      "while (entries_.size() >= config_.max_signatures) "
                      "{ EvictOne(); }",
                      "if (rows_.size() >= kMaxSampleRows) { return; }",
                      "if (queue_.size() < config_.capacity) {"):
            self.assert_clean(f"void F() {{\n  {check}\n"
                              "  queue_.push_back(std::move(item));\n}\n")

    def test_check_outside_window_still_fires(self):
        filler = "  touch();\n" * (qpp_lint.CAPACITY_WINDOW_LINES + 1)
        self.assert_fires("void F() {\n"
                          "  if (queue_.size() >= config_.max_queue) return;\n"
                          f"{filler}"
                          "  queue_.push_back(std::move(item));\n"
                          "}\n")

    def test_local_container_ok(self):
        self.assert_clean(
            "void F() { std::vector<int> live; live.push_back(1); }")

    def test_other_trees_exempt(self):
        ok = "void F() { queue_.push_back(std::move(item)); }"
        for path in ("src/serve/feedback.cc", "src/workload/runner.cc"):
            self.assertEqual([], rules_fired(ok, path), msg=path)

    def test_allow_with_bound_suppresses(self):
        self.assert_clean("void F() {\n"
                          "  // qpp-lint: allow(unbounded-member-push): "
                          "bounded by max_queue upstream\n"
                          "  queue_.push_back(std::move(item));\n"
                          "}\n")


class NetUnboundedIovecTest(unittest.TestCase):
    def test_unbounded_sendmsg_fires(self):
        bad = "void F() { ::sendmsg(fd, &msg, MSG_NOSIGNAL); }"
        self.assertIn("net-unbounded-iovec",
                      rules_fired(bad, "src/net/server.cc"))

    def test_writev_variants_fire(self):
        for call in ("::writev(fd, iov, iovcnt)",
                     "writev(fd, iov, iovcnt)",
                     "::pwritev(fd, iov, iovcnt, off)"):
            self.assertIn("net-unbounded-iovec",
                          rules_fired(f"void F() {{ {call}; }}",
                                      "src/net/server.cc"),
                          msg=call)

    def test_comparison_bound_dominates_ok(self):
        good = """
        void F() {
          int iovcnt = 0;
          while (iovcnt < kMaxFlushIov) { Gather(&iov[iovcnt++]); }
          ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        }
        """
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))

    def test_min_clamp_bound_ok(self):
        good = """
        void F() {
          msg.msg_iovlen = std::min(iov.size(), kClientMaxIov);
          ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        }
        """
        self.assertEqual([], rules_fired(good, "src/net/client.cc"))

    def test_iov_max_bound_ok(self):
        good = """
        void F() {
          const int n = count > IOV_MAX ? IOV_MAX : count;
          ::writev(fd, iov, n);
        }
        """
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))

    def test_unrelated_capacity_token_still_fires(self):
        # A max_queue admission check is not an iovec bound.
        bad = """
        void F() {
          if (queue.size() >= config_.max_queue) return;
          ::writev(fd, iov, iovcnt);
        }
        """
        self.assertIn("net-unbounded-iovec",
                      rules_fired(bad, "src/net/server.cc"))

    def test_bound_outside_window_still_fires(self):
        filler = "  touch();\n" * (qpp_lint.CAPACITY_WINDOW_LINES + 1)
        bad = ("void F() {\n"
               "  msg.msg_iovlen = std::min(iov.size(), kClientMaxIov);\n"
               f"{filler}"
               "  ::sendmsg(fd, &msg, MSG_NOSIGNAL);\n"
               "}\n")
        self.assertIn("net-unbounded-iovec",
                      rules_fired(bad, "src/net/client.cc"))

    def test_hook_member_call_not_a_syscall_site(self):
        ok = "void F() { hooks.sendmsg(fd, &msg, 0); }"
        self.assertEqual([], rules_fired(ok, "src/net/client.cc"))

    def test_outside_src_net_exempt(self):
        ok = "void F() { ::writev(fd, iov, iovcnt); }"
        self.assertEqual([], rules_fired(ok, "src/exec/driver.cc"))

    def test_allow_with_location_suppresses(self):
        good = ("void F() {\n"
                "  // qpp-lint: allow(net-unbounded-iovec): wrapper; caller "
                "clamps msg_iovlen\n"
                "  ::sendmsg(fd, &msg, MSG_NOSIGNAL);\n"
                "}\n")
        self.assertEqual([], rules_fired(good, "src/net/client.cc"))


class NetBlockingReactorTest(unittest.TestCase):
    def test_sleep_for_fires(self):
        bad = "std::this_thread::sleep_for(std::chrono::milliseconds(1));"
        self.assertIn("net-blocking-reactor",
                      rules_fired(bad, "src/net/server.cc"))

    def test_usleep_fires(self):
        self.assertIn("net-blocking-reactor",
                      rules_fired("usleep(100);", "src/net/server.cc"))

    def test_bare_accept_fires(self):
        bad = "int fd = ::accept(listen_fd_, nullptr, nullptr);"
        self.assertIn("net-blocking-reactor",
                      rules_fired(bad, "src/net/server.cc"))

    def test_blocking_socket_fires(self):
        bad = "int fd = ::socket(AF_INET, SOCK_STREAM, 0);"
        self.assertIn("net-blocking-reactor",
                      rules_fired(bad, "src/net/server.cc"))

    def test_blocking_eventfd_fires(self):
        bad = "wake_fd_ = ::eventfd(0, EFD_CLOEXEC);"
        self.assertIn("net-blocking-reactor",
                      rules_fired(bad, "src/net/server.cc"))

    def test_nonblocking_fds_ok(self):
        good = """
        int a = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
        int b = ::accept4(l, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        int c = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        """
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))

    def test_epoll_wait_is_the_allowed_block(self):
        good = "int n = ::epoll_wait(epoll_fd_, evs, 64, timeout_ms);"
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))

    def test_client_side_may_block(self):
        ok = ("int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"
              "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n")
        self.assertEqual([], rules_fired(ok, "src/net/client.cc"))

    def test_sleep_identifier_substrings_ok(self):
        good = "bool asleep(int x); int n = asleep(2);"
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))

    def test_thread_pool_in_reactor_fires(self):
        for bad in ("(void)pool_->Submit([this] { return Status::OK(); });",
                    "Status st = ThreadPool::Global()->ParallelFor(n, fn);",
                    "ThreadPool* pool_;"):
            self.assertIn("net-blocking-reactor",
                          rules_fired(bad, "src/net/server.cc"), bad)

    def test_thread_pool_outside_reactor_and_in_comments_ok(self):
        ok = "(void)pool_->Submit([this] { return Status::OK(); });"
        self.assertEqual([], rules_fired(ok, "src/net/client.cc"))
        self.assertEqual([], rules_fired(ok, "src/serve/feedback.cc"))
        good = ("// Not on the ThreadPool: pool_->Submit(task) would hop.\n"
                "void SubmitReply(); int ParallelForks = 0;\n")
        self.assertEqual([], rules_fired(good, "src/net/server.cc"))


class SuppressionTest(unittest.TestCase):
    def test_same_line_allow(self):
        text = ("auto* f = new Fixture;  "
                "// qpp-lint: allow(naked-new): gtest fixture, "
                "intentionally leaked\n")
        self.assertEqual([], rules_fired(text))

    def test_line_above_allow(self):
        text = ("// qpp-lint: allow(naked-new): benchmark fixture, "
                "intentionally leaked\n"
                "auto* f = new Fixture;\n")
        self.assertEqual([], rules_fired(text))

    def test_allow_without_justification_is_error(self):
        text = "auto* f = new Fixture;  // qpp-lint: allow(naked-new)\n"
        self.assertIn("bad-allow", rules_fired(text))

    def test_allow_unknown_rule_is_error(self):
        text = "int x;  // qpp-lint: allow(no-such-rule): whatever\n"
        self.assertIn("bad-allow", rules_fired(text))

    def test_allow_does_not_leak_to_other_rules(self):
        text = ("// qpp-lint: allow(naked-new): fixture\n"
                "auto* f = new Foo(std::rand());\n")
        self.assertEqual(["nondeterministic-source"], rules_fired(text))


class RealTreeTest(unittest.TestCase):
    def test_shipped_tree_is_clean(self):
        files = qpp_lint.collect_files(
            REPO_ROOT, [d for d in qpp_lint.DEFAULT_SCAN_DIRS
                        if os.path.isdir(os.path.join(REPO_ROOT, d))])
        self.assertGreater(len(files), 100)  # sanity: we scanned the tree
        violations = []
        for rel in files:
            violations.extend(qpp_lint.lint_file(REPO_ROOT, rel))
        self.assertEqual([], [str(v) for v in violations])

    def test_cli_detects_seeded_violation(self):
        # End-to-end through main(): a bad file exits 1, a clean run exits 0.
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src", "qpp")
            os.makedirs(src)
            with open(os.path.join(src, "bad.cc"), "w") as f:
                f.write("std::atomic<std::shared_ptr<int>> a;\n")
            self.assertEqual(1, qpp_lint.main(["--root", tmp, "src"]))
            with open(os.path.join(src, "bad.cc"), "w") as f:
                f.write("std::atomic<const int*> a;\n")
            self.assertEqual(0, qpp_lint.main(["--root", tmp, "src"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
