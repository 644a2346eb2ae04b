#!/usr/bin/env python3
"""Self-tests for tools/check_invariants.py.

Proves the linter actually catches each class of seeded violation (and
stays quiet on clean code), so a silent regression in the lint rules
cannot masquerade as a clean tree. Uses only the standard library; runs
as a ctest (label: unit) via tests/CMakeLists.txt.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import check_invariants  # noqa: E402

CLEAN_STATUS_H = """\
namespace kgsearch {
class [[nodiscard]] Status {};
template <typename T>
class [[nodiscard]] Result {};
}  // namespace kgsearch
"""


class CheckInvariantsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.write("src/util/status.h", CLEAN_STATUS_H)
        self.write("src/util/rng.h",
                   "namespace kgsearch { class FastRng {}; }\n")
        self.write("src/util/mutex.h",
                   "#include <mutex>\n"
                   "namespace kgsearch { class Mutex { std::mutex mu_; }; }\n")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def violations(self):
        return check_invariants.check(self.root)

    def rules(self):
        return [v.split("[", 1)[1].split("]", 1)[0] for v in self.violations()]

    # ---- baseline ----------------------------------------------------------

    def test_clean_tree_passes(self):
        self.write("src/core/engine.cc",
                   "#include \"util/mutex.h\"\n"
                   "int Run() { return 0; }\n")
        self.assertEqual(self.violations(), [])

    # ---- R1 rng-hygiene ----------------------------------------------------

    def test_catches_std_distribution_outside_rng_header(self):
        self.write("src/gen/sampler.cc",
                   "#include <random>\n"
                   "double Draw(std::mt19937& g) {\n"
                   "  std::uniform_int_distribution<int> d(0, 9);\n"
                   "  return d(g);\n"
                   "}\n")
        rules = self.rules()
        self.assertIn("rng-hygiene", rules)
        # Both the engine and the distribution are flagged.
        self.assertGreaterEqual(rules.count("rng-hygiene"), 2)

    def test_catches_rand_and_random_device(self):
        self.write("bench/bench_x.cc",
                   "int Noise() { return rand(); }\n"
                   "unsigned Seed() { std::random_device rd; return rd(); }\n")
        self.assertEqual(self.rules().count("rng-hygiene"), 2)

    def test_allows_rng_primitives_inside_rng_header(self):
        self.write("src/util/rng.h",
                   "#include <random>\n"
                   "namespace kgsearch {\n"
                   "inline double Portable(std::mt19937_64& g) {\n"
                   "  std::uniform_real_distribution<double> d;\n"
                   "  return d(g);\n"
                   "}\n"
                   "}  // namespace kgsearch\n")
        self.assertEqual(self.violations(), [])

    def test_ignores_rng_names_in_comments(self):
        self.write("src/gen/doc.h",
                   "// Unlike std::uniform_int_distribution, FastRng is\n"
                   "// reproducible. Never call rand() here.\n"
                   "/* std::random_device is also banned. */\n"
                   "int x();\n")
        self.assertEqual(self.violations(), [])

    def test_does_not_flag_operand_suffix_rand(self):
        self.write("src/gen/ops.cc",
                   "int g_operand_count = 0;\n"
                   "int operand() { return g_operand_count; }\n"
                   "int use() { return operand(); }\n")
        self.assertEqual(self.violations(), [])

    # ---- R2 nodiscard-status -----------------------------------------------

    def test_catches_missing_class_level_nodiscard(self):
        self.write("src/util/status.h",
                   "namespace kgsearch {\n"
                   "class Status {};\n"
                   "template <typename T> class Result {};\n"
                   "}  // namespace kgsearch\n")
        self.assertEqual(self.rules().count("nodiscard-status"), 2)

    def test_catches_void_cast_dropping_status(self):
        self.write("src/api/session.cc",
                   "#include \"util/status.h\"\n"
                   "Status Register();\n"
                   "void Use() { (void)Register();  }\n")
        # The call site mentions neither 'status' nor 'result' on its line,
        # so seed the unambiguous form too.
        self.write("src/api/other.cc",
                   "void Drop(Status s) { (void)s.status(); }\n"
                   "void Drop2() { (void)LoadStatus(); }\n")
        self.assertGreaterEqual(self.rules().count("nodiscard-status"), 2)

    def test_allows_void_cast_of_non_status(self):
        self.write("src/util/misc.cc",
                   "void Touch(int fd) { (void)fd; }\n"
                   "void Poke() { (void)printf(\"x\"); }\n")
        self.assertEqual(self.violations(), [])

    # ---- R3 naked-mutex ----------------------------------------------------

    def test_catches_naked_std_mutex(self):
        self.write("src/service/cache.h",
                   "#include <mutex>\n"
                   "class Cache {\n"
                   "  std::mutex mu_;\n"
                   "  void Get() { std::lock_guard<std::mutex> l(mu_); }\n"
                   "};\n")
        self.assertGreaterEqual(self.rules().count("naked-mutex"), 2)

    def test_catches_naked_condition_variable_and_unique_lock(self):
        self.write("src/server/queue.h",
                   "std::condition_variable cv_;\n"
                   "void W() { std::unique_lock<std::mutex> l(m_); }\n")
        self.assertGreaterEqual(self.rules().count("naked-mutex"), 2)

    def test_allows_std_mutex_inside_wrapper_header(self):
        # setUp's src/util/mutex.h already uses std::mutex.
        self.assertEqual(self.violations(), [])

    def test_does_not_apply_mutex_rule_to_bench(self):
        # bench/ is scanned for R1/R2 but R3 is src/-only by design.
        self.write("bench/harness.cc", "#include <mutex>\nstd::mutex m;\n")
        self.assertEqual(self.violations(), [])

    # ---- R4 tsa-escape-hatch -----------------------------------------------

    def test_catches_escape_hatch_outside_util(self):
        self.write("src/service/query_service.cc",
                   "void Hot() NO_THREAD_SAFETY_ANALYSIS {}\n")
        self.assertEqual(self.rules().count("tsa-escape-hatch"), 1)

    def test_allows_escape_hatch_under_util(self):
        self.write("src/util/thread_annotations.h",
                   "#define NO_THREAD_SAFETY_ANALYSIS \\\n"
                   "  KGSEARCH_THREAD_ANNOTATION__(no_thread_safety_analysis)\n")
        self.assertEqual(self.violations(), [])

    # ---- R5 simd-confinement -----------------------------------------------

    def test_catches_intrinsics_in_src(self):
        self.write("src/match/fast_scan.cc",
                   "#include <immintrin.h>\n"
                   "float Sum(const float* p) {\n"
                   "  __m256 v = _mm256_loadu_ps(p);\n"
                   "  return _mm256_cvtss_f32(v);\n"
                   "}\n")
        self.assertGreaterEqual(self.rules().count("simd-confinement"), 3)

    def test_catches_neon_intrinsics_and_bench_scope(self):
        self.write("bench/bench_raw.cc",
                   "#include <arm_neon.h>\n"
                   "float32x4_t Z() { return vdupq_n_f32(0.0f); }\n")
        self.assertGreaterEqual(self.rules().count("simd-confinement"), 3)

    def test_catches_intrinsics_in_embedding_module(self):
        # No file is exempt, simd_kernels.* included.
        self.write("src/embedding/simd_kernels.cc",
                   "#include <immintrin.h>\n"
                   "float Dot1(const float* p) {\n"
                   "  __m256 v = _mm256_loadu_ps(p);\n"
                   "  return _mm256_cvtss_f32(v);\n"
                   "}\n")
        self.write("src/embedding/vector_math.h",
                   "#include <arm_neon.h>\n"
                   "float32x4_t Zero() { return vdupq_n_f32(0.0f); }\n")
        flagged = {v.split(":", 1)[0] for v in self.violations()
                   if "[simd-confinement]" in v}
        self.assertEqual(len(flagged), 2)

    def test_ignores_intrinsic_names_in_comments(self):
        self.write("src/embedding/predicate_space.cc",
                   "// The kernels wrap _mm256_mul_ps( and __m256 — see\n"
                   "/* #include <immintrin.h> lives in simd_kernels.cc */\n"
                   "int x();\n")
        self.assertEqual(self.violations(), [])

    # ---- R6 delta-confinement ----------------------------------------------

    def test_catches_mutable_snapshot_ref_outside_overlay_module(self):
        self.write("src/api/session.cc",
                   "void Patch(DeltaSnapshot& s) { s.epoch++; }\n")
        self.assertEqual(self.rules().count("delta-confinement"), 1)

    def test_catches_snapshot_construction_outside_overlay_module(self):
        self.write("src/service/hot_swap.cc",
                   "auto s = std::make_shared<DeltaSnapshot>();\n"
                   "auto* raw = new DeltaSnapshot();\n"
                   "std::shared_ptr<DeltaSnapshot> leak;\n")
        self.assertEqual(self.rules().count("delta-confinement"), 3)

    def test_allows_const_snapshot_handles_everywhere(self):
        self.write("src/api/session.cc",
                   "std::shared_ptr<const DeltaSnapshot> pinned;\n"
                   "void Read(const DeltaSnapshot& s);\n"
                   "void Fold(const DeltaSnapshot* delta);\n"
                   "struct DeltaSnapshot;\n")
        self.assertEqual(self.violations(), [])

    def test_allows_mutation_inside_overlay_module(self):
        self.write("src/kg/delta_overlay.cc",
                   "Status Apply(DeltaSnapshot& s);\n"
                   "auto next = std::make_shared<DeltaSnapshot>();\n")
        self.assertEqual(self.violations(), [])

    def test_ignores_snapshot_mutation_in_comments(self):
        self.write("src/kg/graph_view.h",
                   "// Only Commit holds a DeltaSnapshot& while applying.\n"
                   "/* never make_shared<DeltaSnapshot> elsewhere */\n"
                   "struct DeltaSnapshot { int epoch; };\n")
        self.assertEqual(self.violations(), [])

    # ---- R7 kgpack-confinement ---------------------------------------------

    def test_catches_kgpack_internals_outside_snapshot_module(self):
        self.write("src/api/session.cc",
                   "bool Sniff(std::string_view b) {\n"
                   "  return b.substr(0, 4) == kKgPackMagic;\n"
                   "}\n"
                   "size_t n = snapshot_internal::kHeaderBytes;\n")
        self.write("bench/bench_pack.cc",
                   "uint32_t v = kgsearch::kKgPackVersion;\n")
        self.assertEqual(self.rules().count("kgpack-confinement"), 3)

    def test_catches_kgpack_internals_in_other_kg_files(self):
        # Only snapshot*.{h,cc} under src/kg/ are exempt, not all of kg/.
        self.write("src/kg/triple_io.cc",
                   "bool IsPack(uint32_t v) { return v == kKgPackVersion; }\n")
        self.write("src/gen/snapshot_gen.cc",
                   "auto id = snapshot_internal::kSectionGraph;\n")
        self.assertEqual(self.rules().count("kgpack-confinement"), 2)

    def test_allows_kgpack_internals_inside_snapshot_module(self):
        self.write("src/kg/snapshot.h",
                   "inline constexpr uint32_t kKgPackVersion = 1;\n"
                   "inline constexpr std::string_view kKgPackMagic = "
                   "\"KGPK\";\n")
        self.write("src/kg/snapshot_stream.cc",
                   "using snapshot_internal::kHeaderBytes;\n"
                   "uint32_t v = kKgPackVersion;\n")
        self.assertEqual(self.violations(), [])

    def test_ignores_kgpack_names_in_comments(self):
        self.write("src/api/session.cc",
                   "// LooksLikeKgPack compares against kKgPackMagic.\n"
                   "/* snapshot_internal::CheckHeader: kKgPackVersion */\n"
                   "int x();\n")
        self.assertEqual(self.violations(), [])

    # ---- reporting ---------------------------------------------------------

    def test_reports_path_line_and_rule(self):
        self.write("src/core/bad.cc", "int x;\nstd::mutex m;\n")
        vs = self.violations()
        self.assertEqual(len(vs), 1)
        self.assertTrue(vs[0].startswith("src/core/bad.cc:2: [naked-mutex]"),
                        vs[0])


if __name__ == "__main__":
    unittest.main()
