"""Self-tests for check_atomics.py.

Each rule gets a seeded-violation test (the rule must fire) and a
clean-code test (it must stay silent); the waiver grammar — including the
mandatory rationale on seq-cst and fence waivers — gets both flavours.
Runnable with pytest or `python3 -m unittest`; the built-in
`check_atomics.py --self-test` covers a core subset of the same cases so
CI can gate on the linter without a pytest install.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_atomics as lint  # noqa: E402

# Role comment accepted everywhere a test needs a quiet declaration.
ROLES = "// writers: the owner thread  readers: any scraper\n"


class LintHarness(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def lint_file(self, rel: str, text: str) -> list:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return lint.check_file(self.root, path)

    def rules(self, violations: list) -> set:
        return {v.rule for v in violations}


class ExplicitOrderRule(LintHarness):
    def test_defaulted_load_fires(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "int f() { return head_.load(); }\n")
        self.assertIn("explicit-order", self.rules(found))
        self.assertEqual(
            [v.line for v in found if v.rule == "explicit-order"], [3])

    def test_defaulted_store_fires(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "void f() { head_.store(1); }\n")
        self.assertIn("explicit-order", self.rules(found))

    def test_defaulted_fetch_add_fires(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            ROLES + "std::atomic<unsigned> count_{0};\n"
            "void f() { count_.fetch_add(1); }\n")
        self.assertIn("explicit-order", self.rules(found))

    def test_explicit_order_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "int f() { return head_.load(std::memory_order_acquire); }\n")
        self.assertEqual(self.rules(found), set())

    def test_scoped_enum_spelling_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "int f() { return head_.load(std::memory_order::acquire); }\n")
        self.assertEqual(self.rules(found), set())

    def test_order_on_continuation_line_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "void f() {\n"
            "  head_.store(head_.load(std::memory_order_relaxed) + 1,\n"
            "              std::memory_order_relaxed);\n"
            "}\n")
        self.assertEqual(self.rules(found), set())

    def test_vector_clear_is_not_an_atomic_op(self) -> None:
        found = self.lint_file(
            "src/core/policy/clean.cpp",
            "void f(std::vector<int>& v) { v.clear(); }\n")
        self.assertEqual(self.rules(found), set())

    def test_stream_calls_in_allowlisted_file_are_fine(self) -> None:
        found = self.lint_file(
            "src/obs/trace_ring.cpp",
            "void f(std::vector<int>& slots) { slots.clear(); }\n")
        self.assertEqual(self.rules(found), set())

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "int f() { return head_.load(); }"
            "  // lint: allow(explicit-order)\n")
        self.assertEqual(self.rules(found), set())


class SeqCstRule(LintHarness):
    def test_unwaived_seq_cst_fires(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "int f() { return head_.load(std::memory_order_seq_cst); }\n")
        self.assertIn("seq-cst", self.rules(found))

    def test_waiver_without_rationale_still_fires(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "// lint: allow(seq-cst)\n"
            "int f() { return head_.load(std::memory_order_seq_cst); }\n")
        self.assertIn("seq-cst", self.rules(found))

    def test_waiver_with_rationale_silences(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n"
            "// lint: allow(seq-cst): total order anchors the test oracle\n"
            "int f() { return head_.load(std::memory_order_seq_cst); }\n")
        self.assertEqual(self.rules(found), set())


class FenceRule(LintHarness):
    def test_unwaived_fence_fires(self) -> None:
        found = self.lint_file(
            "src/obs/counters.hpp",
            "void f() {\n"
            "  std::atomic_thread_fence(std::memory_order_release);\n"
            "}\n")
        self.assertIn("fence", self.rules(found))

    def test_signal_fence_fires_too(self) -> None:
        found = self.lint_file(
            "src/obs/counters.hpp",
            "void f() {\n"
            "  std::atomic_signal_fence(std::memory_order_acquire);\n"
            "}\n")
        self.assertIn("fence", self.rules(found))

    def test_waived_fence_with_pairing_story_silences(self) -> None:
        found = self.lint_file(
            "src/obs/counters.hpp",
            "void f() {\n"
            "  // lint: allow(fence): seqlock begin — pairs with acquire\n"
            "  std::atomic_thread_fence(std::memory_order_release);\n"
            "}\n")
        self.assertEqual(self.rules(found), set())

    def test_repo_seqlock_waivers_hold(self) -> None:
        """The real counters.hpp must stay clean (its fences are waived)."""
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        path = repo_root / "src" / "obs" / "counters.hpp"
        self.assertTrue(path.is_file())
        found = lint.check_file(repo_root, path)
        self.assertEqual(self.rules(found), set())


class RoleCommentRule(LintHarness):
    def test_bare_declaration_fires(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            "std::atomic<unsigned> count_{0};\n")
        self.assertIn("role-comment", self.rules(found))

    def test_comment_directly_above_silences(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            ROLES + "std::atomic<unsigned> count_{0};\n")
        self.assertEqual(self.rules(found), set())

    def test_comment_split_across_lines_silences(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            "// writers: the single writer_role holder (the engine\n"
            "// thread)  readers: any scraper thread\n"
            "std::atomic<unsigned> count_{0};\n")
        self.assertEqual(self.rules(found), set())

    def test_comment_covers_a_run_of_declarations(self) -> None:
        # One comment block may cover several adjacent cells, as in
        # util::PhaseCells — the window is six lines.
        found = self.lint_file(
            "src/util/phase.hpp",
            "// writers: the engine thread's stopwatch\n"
            "// readers: any stats-scraper thread\n"
            "std::atomic<unsigned> count_{0};\n"
            "std::atomic<unsigned> total_{0};\n"
            "std::atomic<unsigned> buckets_[4] = {};\n")
        self.assertEqual(self.rules(found), set())

    def test_comment_outside_window_fires(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            "// writers: w  readers: r\n" + "int a;\n" * 7 +
            "std::atomic<unsigned> count_{0};\n")
        self.assertIn("role-comment", self.rules(found))

    def test_reference_parameter_is_not_a_declaration(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            "static void bump(std::atomic<std::uint64_t>& cell) {\n"
            "  cell.store(cell.load(std::memory_order_relaxed) + 1,\n"
            "             std::memory_order_relaxed);\n"
            "}\n")
        self.assertEqual(self.rules(found), set())

    def test_pointer_parameter_is_not_a_declaration(self) -> None:
        found = self.lint_file(
            "src/util/phase.hpp",
            "void f(std::atomic<int>* cell);\n")
        self.assertEqual(self.rules(found), set())

    def test_role_guarded_field_without_comment_fires(self) -> None:
        # The sharded engine's producer counter is a plain (non-atomic)
        # field whose cross-thread contract is a role capability; it
        # carries the same documentation duty as atomics.
        found = self.lint_file(
            "src/engine/sharded_engine.hpp",
            "std::uint64_t pushed PFP_GUARDED_BY(queue.producer_role) = 0;\n")
        self.assertIn("role-comment", self.rules(found))

    def test_role_guarded_field_with_comment_silences(self) -> None:
        found = self.lint_file(
            "src/engine/sharded_engine.hpp",
            "// writers: producer thread  readers: producer thread\n"
            "std::uint64_t pushed PFP_GUARDED_BY(queue.producer_role) = 0;\n")
        self.assertEqual(self.rules(found), set())

    def test_bare_role_capability_spelling_fires_too(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            "std::uint64_t head_cache_ PFP_GUARDED_BY(producer_role) = 0;\n")
        self.assertIn("role-comment", self.rules(found))

    def test_mutex_guarded_field_is_exempt(self) -> None:
        # Mutex-guarded fields document themselves through the mutex;
        # only role capabilities trigger the comment duty.
        found = self.lint_file(
            "src/util/thread_pool.hpp",
            "std::queue<int> queue_ PFP_GUARDED_BY(mutex_);\n")
        self.assertEqual(self.rules(found), set())

    def test_guarded_by_macro_definition_is_exempt(self) -> None:
        found = self.lint_file(
            "src/util/thread_annotations.hpp",
            "#define PFP_GUARDED_BY(x) "
            "PFP_THREAD_ANNOTATION__(guarded_by(x))\n")
        self.assertEqual(self.rules(found), set())


class AllowlistRule(LintHarness):
    def test_atomic_outside_allowlist_fires(self) -> None:
        found = self.lint_file(
            "src/core/policy/rogue.cpp",
            ROLES + "std::atomic<int> sneaky_{0};\n")
        self.assertIn("atomics-allowlist", self.rules(found))
        self.assertEqual(
            [v.line for v in found if v.rule == "atomics-allowlist"], [0])

    def test_atomic_in_allowlisted_file_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/spsc_queue.hpp",
            ROLES + "std::atomic<int> head_{0};\n")
        self.assertEqual(self.rules(found), set())

    def test_file_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/core/policy/waived.cpp",
            "// lint: allow-file(atomics-allowlist)\n" +
            ROLES + "std::atomic<int> ok_{0};\n")
        self.assertEqual(self.rules(found), set())

    def test_comment_mention_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/policy/clean.cpp",
            "// std::atomic would be wrong here; see docs\nint x = 0;\n")
        self.assertEqual(self.rules(found), set())

    def test_string_literal_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/policy/clean.cpp",
            'const char* kDoc = "std::atomic<int> x; x.load();";\n')
        self.assertEqual(self.rules(found), set())


class WholeTree(LintHarness):
    def test_repo_src_is_clean_in_regex_mode(self) -> None:
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        violations = []
        for path in lint.iter_sources(repo_root):
            violations.extend(lint.check_file(repo_root, path))
        self.assertEqual([str(v) for v in violations], [])

    def test_self_test_passes(self) -> None:
        self.assertEqual(lint.run_self_test(), 0)


class AllowlistHygiene(LintHarness):
    def test_every_allowlisted_file_exists(self) -> None:
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        for rel in lint.ATOMIC_FILES:
            self.assertTrue((repo_root / rel).is_file(),
                            f"stale allowlist entry: {rel}")


if __name__ == "__main__":
    unittest.main()
