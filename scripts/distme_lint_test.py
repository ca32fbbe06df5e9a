#!/usr/bin/env python3
"""Fixture tests for distme_lint.py: every rule gets at least one violating
snippet (lint must exit nonzero and name the rule) and one clean counterpart
(lint must exit 0). Run directly or via check_tier1.sh --lint:

    python3 scripts/distme_lint_test.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "distme_lint.py")


class LintFixtureTest(unittest.TestCase):
    def run_lint(self, files):
        """Writes {relpath: content} into a temp tree, lints it from its
        root, and returns (exit_code, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for rel, content in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
                paths.append(rel)
            proc = subprocess.run(
                [sys.executable, LINT] + sorted(paths),
                cwd=tmp, capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def assert_flags(self, rule, files):
        code, out = self.run_lint(files)
        self.assertNotEqual(code, 0, f"{rule}: expected a finding\n{out}")
        self.assertIn(f"[{rule}]", out, f"{rule}: wrong rule fired\n{out}")

    def assert_clean(self, files):
        code, out = self.run_lint(files)
        self.assertEqual(code, 0, f"expected clean\n{out}")

    # --- pragma-once ------------------------------------------------------

    def test_header_without_pragma_once(self):
        self.assert_flags("pragma-once", {
            "src/core/foo.h": "namespace x {}\n"})

    def test_header_with_pragma_once_after_comment_is_clean(self):
        self.assert_clean({
            "src/core/foo.h": "// A header.\n#pragma once\nnamespace x {}\n"})

    # --- concurrency ------------------------------------------------------

    def test_mutex_outside_allowlist(self):
        self.assert_flags("concurrency", {
            "src/matrix/foo.cc": "#include <mutex>\nstd::mutex m;\n"})

    def test_thread_include_outside_allowlist(self):
        self.assert_flags("concurrency", {
            "src/core/foo.cc": "#include <thread>\n"})

    def test_mutex_in_engine_is_allowed(self):
        self.assert_clean({
            "src/engine/foo.cc": "#include <mutex>\nstd::mutex m;\n"})

    def test_mutex_in_tests_is_allowed(self):
        self.assert_clean({
            "tests/foo_test.cc": "#include <thread>\nstd::thread t;\n"})

    def test_inline_suppression(self):
        self.assert_clean({
            "src/matrix/foo.cc":
                "std::mutex m;  // distme-lint: allow(concurrency)\n"})

    # --- naked-new --------------------------------------------------------

    def test_naked_new(self):
        self.assert_flags("naked-new", {
            "src/core/foo.cc": "int* p = new int[3];\n"})

    def test_malloc(self):
        self.assert_flags("naked-new", {
            "src/core/foo.cc": "void* p = malloc(16);\n"})

    def test_wrapped_new_is_clean(self):
        self.assert_clean({
            "src/core/foo.cc":
                "auto a = std::make_unique<int[]>(3);\n"
                "auto b = std::shared_ptr<Foo>(new Foo());\n"
                "auto c = std::unique_ptr<Foo>(new Foo());\n"})

    def test_new_in_comment_is_clean(self):
        self.assert_clean({
            "src/core/foo.cc":
                "// Returns the transpose as a new matrix.\n"
                "/* also: new Foo() in a block comment */\n"})

    def test_new_outside_src_is_clean(self):
        self.assert_clean({
            "tests/foo_test.cc": "int* p = new int[3];\n"})

    # --- no-cout ----------------------------------------------------------

    def test_cout_in_src(self):
        self.assert_flags("no-cout", {
            "src/core/foo.cc": '#include <iostream>\nvoid f() { std::cout << 1; }\n'})

    def test_cout_in_tests(self):
        self.assert_flags("no-cout", {
            "tests/foo_test.cc": "void f() { std::cout << 1; }\n"})

    def test_cout_in_bench_is_clean(self):
        self.assert_clean({
            "bench/foo.cc": "void f() { std::cout << 1; }\n"})

    def test_cout_in_string_literal_is_clean(self):
        self.assert_clean({
            "src/core/foo.cc": 'const char* kDoc = "use std::cout";\n'})

    # --- include-order ----------------------------------------------------

    def test_system_include_after_project_include(self):
        self.assert_flags("include-order", {
            "src/core/foo.cc":
                '#include "core/foo.h"\n'
                '#include "core/bar.h"\n'
                "#include <vector>\n"})

    def test_self_include_not_first(self):
        self.assert_flags("include-order", {
            "src/core/foo.cc":
                "#include <vector>\n"
                '#include "core/foo.h"\n'})

    def test_canonical_order_is_clean(self):
        self.assert_clean({
            "src/core/foo.cc":
                '#include "core/foo.h"\n'
                "#include <string>\n"
                "#include <vector>\n"
                '#include "core/bar.h"\n'})

    def test_header_including_itself(self):
        self.assert_flags("include-order", {
            "src/core/foo.h": '#pragma once\n#include "core/foo.h"\n'})

    # --- nodiscard-status -------------------------------------------------

    def test_status_api_without_nodiscard(self):
        self.assert_flags("nodiscard-status", {
            "src/core/foo.h": "#pragma once\nStatus Save(int x);\n"})

    def test_result_api_without_nodiscard(self):
        self.assert_flags("nodiscard-status", {
            "src/core/foo.h":
                "#pragma once\nResult<Block> Load(const std::string& p);\n"})

    def test_annotated_api_is_clean(self):
        self.assert_clean({
            "src/core/foo.h":
                "#pragma once\n"
                "[[nodiscard]] Status Save(int x);\n"
                "[[nodiscard]] virtual Result<int> Choose() = 0;\n"
                "[[nodiscard]] static Status OK();\n"})

    def test_constructor_field_and_reference_are_clean(self):
        self.assert_clean({
            "src/core/foo.h":
                "#pragma once\n"
                "struct R {\n"
                "  Status(StatusCode code, std::string msg);\n"
                "  Status& operator=(const Status& other);\n"
                "  Status outcome;\n"
                "};\n"})

    def test_cc_files_are_exempt(self):
        # Definitions inherit the attribute from the header declaration.
        self.assert_clean({
            "src/core/foo.cc": "Status Save(int x) { return Status::OK(); }\n"})

    # --- flight-enum-sync -------------------------------------------------

    # Includes a slice of the schema-3 GPU interval kinds: multi-word
    # camel-case with digits (H2d/D2h) is exactly where a hand-maintained
    # name table drifts (h2d_begin vs h2_d_begin).
    FLIGHT_HEADER = (
        "#pragma once\n"
        "enum class FlightEventType : uint8_t {\n"
        "  kRunStart = 0,\n"
        "  kTaskRetry,\n"
        "  kMemHighWater,\n"
        "  kGpuH2dBegin,\n"
        "  kGpuD2hEnd,\n"
        "  kGpuKernelBegin,\n"
        "  kGpuAlloc,\n"
        "  kNumTypes,\n"
        "};\n")

    FLIGHT_NAMES = ["run_start", "task_retry", "mem_high_water",
                    "gpu_h2d_begin", "gpu_d2h_end", "gpu_kernel_begin",
                    "gpu_alloc"]

    def flight_cc(self, names):
        entries = "".join(f'    "{n}",\n' for n in names)
        return ('#include "obs/flight_recorder.h"\n'
                "constexpr const char* kFlightEventTypeNames[] = {\n"
                f"{entries}"
                "};\n")

    def test_flight_table_in_sync_is_clean(self):
        self.assert_clean({
            "src/obs/flight_recorder.h": self.FLIGHT_HEADER,
            "src/obs/flight_recorder.cc": self.flight_cc(
                self.FLIGHT_NAMES)})

    def test_flight_table_missing_entry(self):
        self.assert_flags("flight-enum-sync", {
            "src/obs/flight_recorder.h": self.FLIGHT_HEADER,
            "src/obs/flight_recorder.cc": self.flight_cc(
                self.FLIGHT_NAMES[:-1])})

    def test_flight_table_misnamed_entry(self):
        self.assert_flags("flight-enum-sync", {
            "src/obs/flight_recorder.h": self.FLIGHT_HEADER,
            "src/obs/flight_recorder.cc": self.flight_cc(
                self.FLIGHT_NAMES[:3] + ["gpu_h2_d_begin"] +
                self.FLIGHT_NAMES[4:])})

    def test_flight_table_out_of_order(self):
        self.assert_flags("flight-enum-sync", {
            "src/obs/flight_recorder.h": self.FLIGHT_HEADER,
            "src/obs/flight_recorder.cc": self.flight_cc(
                self.FLIGHT_NAMES[:5] + ["gpu_alloc",
                                         "gpu_kernel_begin"])})

    def test_flight_cc_without_header(self):
        self.assert_flags("flight-enum-sync", {
            "src/obs/flight_recorder.cc": self.flight_cc(["run_start"])})

    def test_the_real_flight_recorder_is_in_sync(self):
        # Guard the actual sources, not just fixtures: lint the repo's own
        # flight_recorder.cc in place.
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        target = os.path.join(repo, "src", "obs", "flight_recorder.cc")
        proc = subprocess.run(
            [sys.executable, LINT, target],
            cwd=repo, capture_output=True, text=True)
        self.assertNotIn("[flight-enum-sync]", proc.stdout)

    # --- lock-annotate ----------------------------------------------------

    # A minimal mutex-owning class with one guarded and one bare member.
    # src/engine/ is on the concurrency allowlist, so only the lock rules
    # fire on these fixtures.
    def counter_header(self, extra_member="  int bare_;\n"):
        return ("#pragma once\n"
                "#include <mutex>\n"
                "class Counter {\n"
                " public:\n"
                "  void Add(int d);\n"
                " private:\n"
                "  mutable std::mutex mutex_;\n"
                "  int total_ DISTME_GUARDED_BY(mutex_) = 0;\n"
                f"{extra_member}"
                "};\n")

    def test_unannotated_member_in_mutex_class(self):
        self.assert_flags("lock-annotate", {
            "src/engine/counter.h": self.counter_header()})

    def test_fully_annotated_class_is_clean(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(
                "  int hits_ DISTME_GUARDED_BY(mutex_) = 0;\n")})

    def test_lockfree_and_unshared_annotations_are_accepted(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(
                '  int epoch_ DISTME_LOCKFREE("set in ctor") = 0;\n'
                '  int scratch_ DISTME_UNSHARED("owner-thread only") = 0;\n')})

    def test_atomic_member_triggers_and_is_exempt(self):
        # An atomic makes the class concurrency-relevant (so `bare_` is
        # flagged) but needs no annotation itself.
        self.assert_flags("lock-annotate", {
            "src/engine/gauge.h":
                "#pragma once\n"
                "#include <atomic>\n"
                "class Gauge {\n"
                "  std::atomic<int> level_{0};\n"
                "  int bare_;\n"
                "};\n"})

    def test_const_member_is_exempt(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(
                "  const int capacity_ = 8;\n")})

    def test_plain_class_without_mutex_is_clean(self):
        self.assert_clean({
            "src/engine/point.h":
                "#pragma once\n"
                "class Point {\n"
                "  int x_ = 0;\n"
                "  int y_ = 0;\n"
                "};\n"})

    def test_lock_annotate_allow_escape(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(
                "  int bare_;  // distme-lint: allow(lock-annotate)\n")})

    def test_lock_annotate_skipped_outside_src(self):
        self.assert_clean({
            "tests/counter_test.cc":
                "#include <mutex>\n"
                "class Harness {\n"
                "  std::mutex mutex_;\n"
                "  int bare_;\n"
                "};\n"})

    # --- lock-held --------------------------------------------------------

    def counter_cc(self, body):
        return ('#include "engine/counter.h"\n'
                f"void Counter::Add(int d) {{\n{body}}}\n")

    def test_guarded_member_touched_without_lock(self):
        self.assert_flags("lock-held", {
            "src/engine/counter.h": self.counter_header(""),
            "src/engine/counter.cc": self.counter_cc(
                "  total_ += d;\n")})

    def test_guarded_member_under_lock_guard_is_clean(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(""),
            "src/engine/counter.cc": self.counter_cc(
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += d;\n")})

    def test_requires_annotation_satisfies_lock_held(self):
        header = ("#pragma once\n"
                  "#include <mutex>\n"
                  "class Counter {\n"
                  " public:\n"
                  "  void Add(int d);\n"
                  " private:\n"
                  "  void AddLocked(int d) DISTME_REQUIRES(mutex_);\n"
                  "  mutable std::mutex mutex_;\n"
                  "  int total_ DISTME_GUARDED_BY(mutex_) = 0;\n"
                  "};\n")
        self.assert_clean({
            "src/engine/counter.h": header,
            "src/engine/counter.cc":
                '#include "engine/counter.h"\n'
                "void Counter::Add(int d) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  AddLocked(d);\n"
                "}\n"
                "void Counter::AddLocked(int d) { total_ += d; }\n"})

    def test_ctor_is_exempt_from_lock_held(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(""),
            "src/engine/counter.cc":
                '#include "engine/counter.h"\n'
                "Counter::Counter() { total_ = 0; }\n"})

    def test_inline_header_method_without_lock(self):
        self.assert_flags("lock-held", {
            "src/engine/counter.h":
                "#pragma once\n"
                "#include <mutex>\n"
                "class Counter {\n"
                " public:\n"
                "  int total() const { return total_; }\n"
                " private:\n"
                "  mutable std::mutex mutex_;\n"
                "  int total_ DISTME_GUARDED_BY(mutex_) = 0;\n"
                "};\n"})

    def test_sharded_by_locked_collection_is_clean(self):
        self.assert_clean({
            "src/engine/table.h":
                "#pragma once\n"
                "#include <mutex>\n"
                "#include <vector>\n"
                "class Table {\n"
                " public:\n"
                "  void Put(int node, int v);\n"
                " private:\n"
                "  std::vector<std::vector<int>> stores_\n"
                "      DISTME_SHARDED_BY(mutexes_);\n"
                "  mutable std::vector<std::mutex> mutexes_;\n"
                "};\n",
            "src/engine/table.cc":
                '#include "engine/table.h"\n'
                "void Table::Put(int node, int v) {\n"
                "  std::lock_guard<std::mutex> lock(mutexes_[node]);\n"
                "  stores_[node].push_back(v);\n"
                "}\n"})

    def test_sharded_by_without_lock_is_flagged(self):
        self.assert_flags("lock-held", {
            "src/engine/table.h":
                "#pragma once\n"
                "#include <mutex>\n"
                "#include <vector>\n"
                "class Table {\n"
                " public:\n"
                "  void Put(int node, int v);\n"
                " private:\n"
                "  std::vector<std::vector<int>> stores_\n"
                "      DISTME_SHARDED_BY(mutexes_);\n"
                "  mutable std::vector<std::mutex> mutexes_;\n"
                "};\n",
            "src/engine/table.cc":
                '#include "engine/table.h"\n'
                "void Table::Put(int node, int v) {\n"
                "  stores_[node].push_back(v);\n"
                "}\n"})

    def test_lock_held_allow_escape(self):
        self.assert_clean({
            "src/engine/counter.h": self.counter_header(""),
            "src/engine/counter.cc": self.counter_cc(
                "  total_ += d;  // distme-lint: allow(lock-held)\n")})

    # --- atomic-order -----------------------------------------------------

    def test_atomic_load_without_order(self):
        self.assert_flags("atomic-order", {
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "int f() { return a.load(); }\n"})

    def test_atomic_store_with_order_is_clean(self):
        self.assert_clean({
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "void f() { a.store(1, std::memory_order_release); }\n"})

    def test_atomic_fetch_add_without_order(self):
        self.assert_flags("atomic-order", {
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "void f() { a.fetch_add(1); }\n"})

    def test_multiline_atomic_call_with_order_is_clean(self):
        # The order token lands on a later line of the same statement.
        self.assert_clean({
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<bool> flag{false};\n"
                "bool f() {\n"
                "  bool expected = false;\n"
                "  return flag.compare_exchange_strong(\n"
                "      expected, true,\n"
                "      std::memory_order_acq_rel);\n"
                "}\n"})

    def test_atomic_order_allow_escape(self):
        self.assert_clean({
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "int f() {\n"
                "  return a.load();  // distme-lint: allow(atomic-order)\n"
                "}\n"})

    def test_atomic_order_skipped_in_tests(self):
        self.assert_clean({
            "tests/foo_test.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "int f() { return a.load(); }\n"})

    # --- real sources & driver flags --------------------------------------

    def test_the_real_tree_passes_lock_rules(self):
        # The annotation sweep must stay complete: lint the repo's own src/
        # in place and require zero lock-discipline findings.
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, LINT, "src/"],
            cwd=repo, capture_output=True, text=True)
        for rule in ("lock-annotate", "lock-held", "atomic-order"):
            self.assertNotIn(f"[{rule}]", proc.stdout,
                             f"real tree fails {rule}\n{proc.stdout}")

    def test_list_rules_names_the_lock_rules(self):
        proc = subprocess.run(
            [sys.executable, LINT, "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for rule in ("lock-annotate", "lock-held", "atomic-order"):
            self.assertIn(rule, proc.stdout)

    def test_parallel_jobs_match_serial(self):
        # --jobs 2 must report exactly what the in-process path reports.
        files = {
            "src/engine/counter.h": self.counter_header(),
            "src/engine/counter.cc": self.counter_cc("  total_ += d;\n"),
        }
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            serial = subprocess.run(
                [sys.executable, LINT, "--jobs", "1"] + sorted(files),
                cwd=tmp, capture_output=True, text=True)
            par = subprocess.run(
                [sys.executable, LINT, "--jobs", "2"] + sorted(files),
                cwd=tmp, capture_output=True, text=True)
        self.assertEqual(serial.stdout, par.stdout)
        self.assertEqual(serial.returncode, par.returncode)
        self.assertIn("[lock-annotate]", par.stdout)
        self.assertIn("[lock-held]", par.stdout)

    def test_changed_only_lints_only_dirty_files(self):
        # In a fresh git repo with one committed-clean file and one dirty
        # violating file, --changed-only must flag the dirty one only.
        files = {
            "src/engine/clean.h": "#pragma once\nclass Clean {};\n",
            "src/engine/foo.cc":
                "#include <atomic>\n"
                "std::atomic<int> a{0};\n"
                "int f() { return a.load(); }\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            env = dict(os.environ,
                       GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                       GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
            for cmd in (["git", "init", "-q"],
                        ["git", "add", "src/engine/clean.h"],
                        ["git", "commit", "-qm", "seed"]):
                subprocess.run(cmd, cwd=tmp, env=env, check=True,
                               capture_output=True)
            proc = subprocess.run(
                [sys.executable, LINT, "--changed-only", "src/"],
                cwd=tmp, capture_output=True, text=True)
        self.assertIn("[atomic-order]", proc.stdout)
        self.assertIn("foo.cc", proc.stdout)
        self.assertNotIn("clean.h", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
