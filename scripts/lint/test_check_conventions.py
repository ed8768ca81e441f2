"""Self-tests for check_conventions.py.

Each rule gets a seeded-violation test (the rule must fire) and a
clean-code test (it must stay silent); waiver markers get both flavours
too.  Runnable with pytest or `python3 -m unittest` — CI uses pytest, the
dev container only has unittest.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_conventions as lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, rel: str, text: str) -> pathlib.Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def lint_file(self, rel: str, text: str) -> list:
        path = self.write(rel, text)
        return lint.check_file(self.root, path)

    def rules(self, violations: list) -> set:
        return {v.rule for v in violations}


class HotContainerRule(LintHarness):
    def test_unordered_map_in_core_fires(self) -> None:
        found = self.lint_file(
            "src/core/tree/bad.hpp",
            "#pragma once\n#include <unordered_map>\n"
            "std::unordered_map<int, int> edges_;\n")
        self.assertIn("hot-container", self.rules(found))
        self.assertEqual(found[0].line, 3)

    def test_std_map_in_cache_fires(self) -> None:
        found = self.lint_file(
            "src/cache/bad.cpp", "std::map<int, double> costs;\n")
        self.assertIn("hot-container", self.rules(found))

    def test_flat_map_is_fine(self) -> None:
        found = self.lint_file(
            "src/cache/good.cpp", "util::FlatMap<int, int> map_;\n")
        self.assertEqual(self.rules(found), set())

    def test_unordered_map_outside_hot_dirs_is_fine(self) -> None:
        found = self.lint_file(
            "src/sim/report.cpp", "std::unordered_map<int, int> rows;\n")
        self.assertEqual(self.rules(found), set())

    def test_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/tree/good.cpp",
            "// replaced std::unordered_map<int, int> with FlatMap\n"
            "/* std::map<int, int> is banned here */\n")
        self.assertEqual(self.rules(found), set())


class HotAllocRule(LintHarness):
    def test_naked_new_in_core_fires(self) -> None:
        found = self.lint_file("src/core/bad.cpp", "int* p = new int[4];\n")
        self.assertIn("hot-alloc", self.rules(found))

    def test_make_unique_in_cache_fires(self) -> None:
        found = self.lint_file(
            "src/cache/bad.cpp", "auto e = std::make_unique<Entry>();\n")
        self.assertIn("hot-alloc", self.rules(found))

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/core/ok.cpp",
            "int* p = new int[4];  // lint: allow(hot-alloc)\n")
        self.assertEqual(self.rules(found), set())

    def test_file_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/core/factory_like.cpp",
            "// setup-time only.  lint: allow-file(hot-alloc)\n"
            "auto a = std::make_unique<A>();\n"
            "auto b = std::make_unique<B>();\n")
        self.assertEqual(self.rules(found), set())

    def test_identifier_containing_new_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/ok2.cpp", "std::size_t new_capacity = renew(old);\n")
        self.assertEqual(self.rules(found), set())


class NakedNewRule(LintHarness):
    def test_naked_new_outside_hot_dirs_fires(self) -> None:
        found = self.lint_file("src/util/bad.cpp", "char* b = new char[8];\n")
        self.assertIn("naked-new", self.rules(found))

    def test_waived_naked_new_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/ok.cpp",
            "char* b = new char[8];  // lint: allow(naked-new)\n")
        self.assertEqual(self.rules(found), set())

    def test_make_unique_outside_hot_dirs_is_fine(self) -> None:
        found = self.lint_file(
            "src/sim/ok.cpp", "auto s = std::make_unique<Sim>();\n")
        self.assertEqual(self.rules(found), set())


class StdRandRule(LintHarness):
    def test_std_rand_fires_anywhere(self) -> None:
        found = self.lint_file(
            "src/trace/bad.cpp", "int r = std::rand() % 6;\n")
        self.assertIn("no-std-rand", self.rules(found))

    def test_srand_fires(self) -> None:
        found = self.lint_file("src/util/bad.cpp", "srand(42);\n")
        self.assertIn("no-std-rand", self.rules(found))

    def test_project_prng_is_fine(self) -> None:
        found = self.lint_file(
            "src/trace/good.cpp",
            "util::Xoshiro256 rng(7);\nauto r = rng.below(6);\n")
        self.assertEqual(self.rules(found), set())

    def test_random_shuffle_word_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/ok.cpp", "bool randomized = operand(x);\n")
        self.assertEqual(self.rules(found), set())


class FloatCostbenRule(LintHarness):
    def test_float_in_costben_fires(self) -> None:
        found = self.lint_file(
            "src/core/costben/bad.hpp",
            "#pragma once\nfloat t_disk = 15.0f;\n")
        self.assertIn("no-float-costben", self.rules(found))

    def test_double_in_costben_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/costben/good.hpp",
            "#pragma once\ndouble t_disk = 15.0;\n")
        self.assertEqual(self.rules(found), set())

    def test_float_outside_costben_is_fine(self) -> None:
        found = self.lint_file("src/sim/ok.cpp", "float ratio = 0.5f;\n")
        self.assertEqual(self.rules(found), set())

    def test_float_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/costben/ok.cpp",
            "// never use float here\ndouble x = 1.0;\n")
        self.assertEqual(self.rules(found), set())


class NodeHeapMemberRule(LintHarness):
    def test_vector_member_in_node_struct_fires(self) -> None:
        found = self.lint_file(
            "src/core/tree/bad.hpp",
            "#pragma once\n"
            "struct HotNode {\n"
            "  std::uint64_t weight = 0;\n"
            "  std::vector<int> children;\n"
            "};\n")
        self.assertIn("node-heap-member", self.rules(found))
        self.assertEqual(
            [v.line for v in found if v.rule == "node-heap-member"], [4])

    def test_small_vector_member_fires(self) -> None:
        found = self.lint_file(
            "src/core/tree/bad2.hpp",
            "#pragma once\n"
            "struct ColdNode {\n"
            "  util::SmallVector<int, 4> kids;\n"
            "};\n")
        self.assertIn("node-heap-member", self.rules(found))

    def test_one_line_node_struct_fires(self) -> None:
        found = self.lint_file(
            "src/core/tree/bad3.cpp",
            "struct TmpNode { std::string label; };\n")
        self.assertIn("node-heap-member", self.rules(found))

    def test_pod_node_struct_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/tree/good.hpp",
            "#pragma once\n"
            "struct HotNode {\n"
            "  std::uint64_t weight = 0;\n"
            "  std::uint32_t child_begin = 0;\n"
            "};\n")
        self.assertEqual(self.rules(found), set())

    def test_vector_outside_node_struct_is_fine(self) -> None:
        # The pool's plane storage is exactly where vectors belong.
        found = self.lint_file(
            "src/core/tree/good2.hpp",
            "#pragma once\n"
            "struct HotNode {\n"
            "  std::uint64_t weight = 0;\n"
            "};\n"
            "class NodePool {\n"
            "  std::vector<HotNode> hot_;\n"
            "  std::vector<int> arena_;\n"
            "};\n")
        self.assertEqual(self.rules(found), set())

    def test_forward_declaration_does_not_open_tracking(self) -> None:
        found = self.lint_file(
            "src/core/tree/good3.hpp",
            "#pragma once\n"
            "struct HotNode;\n"
            "std::vector<int> roots;\n")
        self.assertEqual(self.rules(found), set())

    def test_node_struct_outside_tree_dir_is_fine(self) -> None:
        found = self.lint_file(
            "src/sim/report.cpp",
            "struct RowNode { std::vector<int> cells; };\n")
        self.assertEqual(self.rules(found), set())

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/core/tree/waived.hpp",
            "#pragma once\n"
            "struct ScratchNode {\n"
            "  std::vector<int> tmp;  // lint: allow(node-heap-member)\n"
            "};\n")
        self.assertEqual(self.rules(found), set())


class RawThreadRule(LintHarness):
    def test_std_thread_outside_util_fires(self) -> None:
        found = self.lint_file(
            "src/engine/bad.cpp",
            "#include <thread>\nstd::thread worker_;\n")
        self.assertIn("raw-thread", self.rules(found))
        self.assertEqual(
            [v.line for v in found if v.rule == "raw-thread"], [2])

    def test_jthread_fires_too(self) -> None:
        found = self.lint_file(
            "src/sim/bad.cpp", "std::jthread worker_;\n")
        self.assertIn("raw-thread", self.rules(found))

    def test_pthread_create_fires(self) -> None:
        found = self.lint_file(
            "src/engine/bad.cpp",
            "int r = pthread_create(&tid, nullptr, fn, nullptr);\n")
        self.assertIn("raw-thread", self.rules(found))

    def test_std_thread_inside_util_is_fine(self) -> None:
        found = self.lint_file(
            "src/util/thread_pool_extra.cpp",
            "std::vector<std::thread> workers_;\n")
        self.assertEqual(self.rules(found), set())

    def test_this_thread_yield_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good.cpp",
            "void f() { std::this_thread::yield(); }\n")
        self.assertEqual(self.rules(found), set())

    def test_hardware_concurrency_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good.cpp",
            "// sized to std::thread::hardware_concurrency()\nint n;\n")
        self.assertEqual(self.rules(found), set())

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/engine/waived.cpp",
            "std::thread t;  // lint: allow(raw-thread)\n")
        self.assertEqual(self.rules(found), set())


class IncludeGuardRule(LintHarness):
    def test_header_without_pragma_once_fires(self) -> None:
        found = self.lint_file(
            "src/util/bad.hpp",
            "#ifndef PFP_BAD_HPP\n#define PFP_BAD_HPP\n#endif\n")
        self.assertIn("include-guard", self.rules(found))
        self.assertEqual(found[0].line, 0)

    def test_pragma_once_is_fine(self) -> None:
        found = self.lint_file("src/util/good.hpp", "#pragma once\nint x;\n")
        self.assertEqual(self.rules(found), set())

    def test_cpp_file_needs_no_guard(self) -> None:
        found = self.lint_file("src/util/ok.cpp", "int x;\n")
        self.assertEqual(self.rules(found), set())


class CommentAndLiteralStripping(LintHarness):
    def test_violation_inside_string_literal_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/ok.cpp",
            'const char* msg = "do not call std::rand() or new int";\n')
        self.assertEqual(self.rules(found), set())

    def test_multiline_block_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/ok2.cpp",
            "/* std::map<int,int> banned\n   new int[4] also banned */\n"
            "int x;\n")
        self.assertEqual(self.rules(found), set())

    def test_code_after_block_comment_still_checked(self) -> None:
        found = self.lint_file(
            "src/core/bad.cpp",
            "/* harmless */ int* p = new int[4];\n")
        self.assertIn("hot-alloc", self.rules(found))


class LayeringRule(LintHarness):
    def test_engine_including_sim_fires(self) -> None:
        found = self.lint_file(
            "src/engine/bad.hpp",
            '#pragma once\n#include "sim/simulator.hpp"\n')
        self.assertIn("layering", self.rules(found))
        self.assertEqual(found[0].line, 2)

    def test_engine_including_sim_cpp_fires(self) -> None:
        found = self.lint_file(
            "src/engine/bad.cpp", '#include "sim/simulator.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_engine_including_core_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good.cpp",
            '#include "core/policy/factory.hpp"\n'
            '#include "cache/buffer_cache.hpp"\n'
            '#include "util/assert.hpp"\n')
        self.assertEqual(self.rules(found), set())

    def test_sim_including_engine_is_fine(self) -> None:
        # Downward includes are the point of the layering.
        found = self.lint_file(
            "src/sim/good.cpp", '#include "engine/prefetch_engine.hpp"\n')
        self.assertEqual(self.rules(found), set())

    def test_sim_like_name_elsewhere_is_fine(self) -> None:
        # Only the sim/ prefix is banned, not paths merely containing it.
        found = self.lint_file(
            "src/engine/good2.cpp", '#include "core/simplex/sim.hpp"\n')
        self.assertEqual(self.rules(found), set())

    def test_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good3.cpp",
            '// do NOT #include "sim/simulator.hpp" here\n')
        self.assertEqual(self.rules(found), set())

    def test_file_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/engine/waived.cpp",
            '// lint: allow-file(layering)\n'
            '#include "sim/simulator.hpp"\n')
        self.assertEqual(self.rules(found), set())


class PredictorLayeringRule(LintHarness):
    def test_costben_including_tree_fires(self) -> None:
        found = self.lint_file(
            "src/core/costben/bad.hpp",
            '#pragma once\n#include "core/tree/prefetch_tree.hpp"\n')
        self.assertIn("layering", self.rules(found))
        self.assertEqual(found[0].line, 2)

    def test_costben_including_markov_or_assoc_fires(self) -> None:
        found = self.lint_file(
            "src/core/costben/bad2.cpp",
            '#include "core/markov/markov_model.hpp"\n'
            '#include "core/assoc/association_miner.hpp"\n')
        self.assertEqual(
            [v.line for v in found if v.rule == "layering"], [1, 2])

    def test_costben_including_policy_fires(self) -> None:
        found = self.lint_file(
            "src/core/costben/bad3.cpp",
            '#include "core/policy/prefetcher.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_costben_including_util_and_itself_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/costben/good.cpp",
            '#include "core/costben/equations.hpp"\n'
            '#include "core/costben/candidate.hpp"\n'
            '#include "util/ewma.hpp"\n')
        self.assertEqual(self.rules(found), set())

    def test_markov_including_policy_fires(self) -> None:
        found = self.lint_file(
            "src/core/markov/bad.cpp",
            '#include "core/policy/cost_benefit.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_markov_including_sibling_predictor_fires(self) -> None:
        found = self.lint_file(
            "src/core/markov/bad2.cpp",
            '#include "core/tree/node_pool.hpp"\n'
            '#include "core/assoc/association_miner.hpp"\n')
        self.assertEqual(
            [v.line for v in found if v.rule == "layering"], [1, 2])

    def test_assoc_including_tree_or_markov_fires(self) -> None:
        found = self.lint_file(
            "src/core/assoc/bad.cpp",
            '#include "core/markov/markov_model.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_tree_including_policy_fires(self) -> None:
        found = self.lint_file(
            "src/core/tree/bad_layer.cpp",
            '#include "core/policy/prefetcher.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_predictor_including_costben_and_util_is_fine(self) -> None:
        # Downward includes are the point: predictors speak the generic
        # candidate vocabulary and use util primitives.
        for rel in ("src/core/markov/good.cpp", "src/core/assoc/good.cpp"):
            found = self.lint_file(
                rel,
                '#include "core/costben/candidate.hpp"\n'
                '#include "trace/record.hpp"\n'
                '#include "util/flat_map.hpp"\n'
                '#include "util/lru_list.hpp"\n')
            self.assertEqual(self.rules(found), set())

    def test_policy_including_predictors_is_fine(self) -> None:
        # policy/ sits above all three predictor families.
        found = self.lint_file(
            "src/core/policy/good.cpp",
            '#include "core/tree/prefetch_tree.hpp"\n'
            '#include "core/markov/markov_model.hpp"\n'
            '#include "core/assoc/association_miner.hpp"\n'
            '#include "core/costben/equations.hpp"\n')
        self.assertEqual(self.rules(found), set())


class ObsLayeringRule(LintHarness):
    def test_obs_including_engine_fires(self) -> None:
        found = self.lint_file(
            "src/obs/bad.hpp",
            '#pragma once\n#include "engine/metrics.hpp"\n')
        self.assertIn("layering", self.rules(found))
        self.assertEqual(found[0].line, 2)

    def test_obs_including_core_fires(self) -> None:
        found = self.lint_file(
            "src/obs/bad.cpp", '#include "core/policy/context.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_obs_including_trace_or_cache_fires(self) -> None:
        found = self.lint_file(
            "src/obs/bad2.cpp",
            '#include "trace/trace.hpp"\n#include "cache/lru_cache.hpp"\n')
        self.assertEqual(
            [v.line for v in found if v.rule == "layering"], [1, 2])

    def test_obs_including_util_and_obs_is_fine(self) -> None:
        found = self.lint_file(
            "src/obs/good.cpp",
            '#include "obs/counters.hpp"\n'
            '#include "util/histogram.hpp"\n'
            '#include <atomic>\n')
        self.assertEqual(self.rules(found), set())

    def test_engine_including_obs_is_fine(self) -> None:
        # Downward: engine sits above obs.
        found = self.lint_file(
            "src/engine/good_obs.cpp", '#include "obs/engine_obs.hpp"\n')
        self.assertEqual(self.rules(found), set())


class ServerLayeringRule(LintHarness):
    def test_server_including_core_fires(self) -> None:
        found = self.lint_file(
            "src/server/bad.cpp",
            '#include "core/policy/factory.hpp"\n')
        self.assertIn("layering", self.rules(found))

    def test_server_including_trace_cache_sim_fires(self) -> None:
        found = self.lint_file(
            "src/server/bad2.cpp",
            '#include "trace/trace.hpp"\n'
            '#include "cache/lru_cache.hpp"\n'
            '#include "sim/simulator.hpp"\n')
        self.assertEqual(
            [v.line for v in found if v.rule == "layering"], [1, 2, 3])

    def test_server_including_engine_obs_util_is_fine(self) -> None:
        found = self.lint_file(
            "src/server/good.cpp",
            '#include "engine/tenant_registry.hpp"\n'
            '#include "obs/prometheus.hpp"\n'
            '#include "util/net.hpp"\n'
            '#include "server/wire.hpp"\n')
        self.assertEqual(self.rules(found), set())

    def test_nothing_outside_server_includes_server(self) -> None:
        for rel in ("src/engine/bad_up.cpp", "src/sim/bad_up.cpp",
                    "src/util/bad_up.cpp"):
            found = self.lint_file(
                rel, '#include "server/session.hpp"\n')
            self.assertIn("layering", self.rules(found), rel)

    def test_server_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good_comment.cpp",
            '// the server/ layer drives this registry\nint x;\n')
        self.assertEqual(self.rules(found), set())


class RawSocketRule(LintHarness):
    def test_socket_call_outside_net_dirs_fires(self) -> None:
        found = self.lint_file(
            "src/engine/bad_net.cpp",
            "int fd = socket(AF_INET, SOCK_STREAM, 0);\n")
        self.assertIn("raw-socket", self.rules(found))

    def test_poll_and_epoll_fire(self) -> None:
        found = self.lint_file(
            "src/sim/bad_net.cpp",
            "int n = poll(fds, 2, -1);\n"
            "int ep = epoll_create1(0);\n")
        self.assertEqual(
            [v.line for v in found if v.rule == "raw-socket"], [1, 2])

    def test_send_recv_fire(self) -> None:
        found = self.lint_file(
            "src/core/bad_net.cpp",
            "ssize_t n = send(fd, buf, len, 0);\n"
            "ssize_t m = recvmsg(fd, &msg, 0);\n")
        self.assertEqual(
            [v.line for v in found if v.rule == "raw-socket"], [1, 2])

    def test_syscalls_inside_util_and_server_are_fine(self) -> None:
        for rel in ("src/util/net_extra.cpp", "src/server/loop_extra.cpp"):
            found = self.lint_file(
                rel, "int fd = socket(AF_INET, SOCK_STREAM, 0);\n")
            self.assertNotIn("raw-socket", self.rules(found), rel)

    def test_member_and_qualified_calls_are_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good_net.cpp",
            "ring.send(item);\n"
            "queue->send(item);\n"
            "auto s = util::net::connect_tcp(port);\n"
            "std::bind(&F::run, this);\n")
        self.assertEqual(self.rules(found), set())

    def test_similar_identifiers_are_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good_net2.cpp",
            "resend(frame);\n"
            "disconnect(session);\n"
            "bool accepted = accept_batch(items);\n")
        self.assertEqual(self.rules(found), set())

    def test_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/good_net3.cpp",
            "// never call socket() or poll() here\nint x;\n")
        self.assertEqual(self.rules(found), set())

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/engine/waived_net.cpp",
            "int n = poll(fds, 1, 0);  // lint: allow(raw-socket)\n")
        self.assertEqual(self.rules(found), set())


class ObsHotPathRules(LintHarness):
    def test_hot_container_in_obs_fires(self) -> None:
        found = self.lint_file(
            "src/obs/bad_map.cpp", "std::map<int, int> samples;\n")
        self.assertIn("hot-container", self.rules(found))

    def test_hot_alloc_in_obs_fires(self) -> None:
        found = self.lint_file(
            "src/obs/bad_alloc.cpp", "auto c = std::make_unique<Cell>();\n")
        self.assertIn("hot-alloc", self.rules(found))

    def test_plain_obs_code_is_fine(self) -> None:
        found = self.lint_file(
            "src/obs/good2.cpp",
            "std::vector<int> slots(32);\nslots.resize(64);\n")
        self.assertEqual(self.rules(found), set())


class SingleAdmissionRule(LintHarness):
    ISSUE_PREFETCH = (
        "void issue_prefetch(Context& ctx, BlockId block, double p,\n"
        "                    std::uint32_t depth, std::uint32_t x, bool obl) {\n"
        "  cache::PrefetchEntry entry;\n"
        "  if (obl) {\n"
        "    entry.obl = true;\n"
        "  }\n"
        "  entry.completion_ms = ctx.disks.submit(block, ctx.now_ms);\n"
        "  ctx.cache.admit_prefetch(entry);\n"
        "}\n")

    def test_admit_outside_issue_prefetch_fires(self) -> None:
        found = self.lint_file(
            "src/core/policy/bad.cpp",
            "void Policy::on_access(Context& ctx) {\n"
            "  ctx.cache.admit_prefetch(entry);\n"
            "}\n")
        self.assertIn("single-admission", self.rules(found))
        self.assertEqual(found[0].line, 2)

    def test_disk_submit_outside_issue_prefetch_fires(self) -> None:
        found = self.lint_file(
            "src/core/policy/bad.cpp",
            "double t = ctx.disks . submit(block, ctx.now_ms);\n")
        self.assertIn("single-admission", self.rules(found))

    def test_inside_issue_prefetch_is_fine(self) -> None:
        found = self.lint_file("src/core/policy/eviction.cpp",
                               self.ISSUE_PREFETCH)
        self.assertEqual(self.rules(found), set())

    def test_exemption_ends_with_the_body(self) -> None:
        found = self.lint_file(
            "src/core/policy/eviction.cpp",
            self.ISSUE_PREFETCH +
            "void other(Context& ctx) { ctx.cache.admit_prefetch(e); }\n")
        self.assertEqual([v.line for v in found], [10])

    def test_declaration_and_calls_grant_no_exemption(self) -> None:
        found = self.lint_file(
            "src/core/policy/bad.cpp",
            "void issue_prefetch(Context& ctx, BlockId block);\n"
            "void f(Context& ctx) {\n"
            "  return issue_prefetch(ctx, ctx.disks.submit(1, 0.0));\n"
            "}\n"
            "ctx.cache.admit_prefetch(entry);\n")
        self.assertEqual([v.line for v in found], [3, 5])

    def test_outside_core_is_fine(self) -> None:
        found = self.lint_file(
            "src/engine/restore.cpp", "cache_.admit_prefetch(entry);\n")
        self.assertEqual(self.rules(found), set())

    def test_mention_in_comment_is_fine(self) -> None:
        found = self.lint_file(
            "src/core/policy/good.cpp",
            "// only issue_prefetch calls ctx.cache.admit_prefetch(entry)\n")
        self.assertEqual(self.rules(found), set())

    def test_line_waiver_silences(self) -> None:
        found = self.lint_file(
            "src/core/policy/waived.cpp",
            "ctx.cache.admit_prefetch(e);  // lint: allow(single-admission)\n")
        self.assertEqual(self.rules(found), set())


class Driver(LintHarness):
    def test_run_reports_all_violations_and_exits_one(self) -> None:
        self.write("src/core/bad.cpp", "int* p = new int[4];\n")
        self.write("src/cache/bad.cpp", "std::map<int, int> m;\n")
        self.write("src/util/good.hpp", "#pragma once\nint x;\n")
        self.assertEqual(lint.run(self.root), 1)

    def test_run_clean_tree_exits_zero(self) -> None:
        self.write("src/core/good.cpp", "int x = 1;\n")
        self.assertEqual(lint.run(self.root), 0)

    def test_run_without_src_exits_two(self) -> None:
        self.assertEqual(lint.run(self.root), 2)


if __name__ == "__main__":
    unittest.main()
