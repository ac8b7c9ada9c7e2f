// Tests of the declarative workload-file front end.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/workload_file.hpp"

namespace entk::core {
namespace {

constexpr const char* kSalWorkload = R"(
# comment line
backend     = sim
machine     = localhost
cores       = 8
pattern     = sal
iterations  = 2
simulations = 4
analyses    = 1

[simulation]
kernel   = misc.sleep
duration = 2.0

[analysis]
kernel   = misc.sleep
duration = 1.0
)";

TEST(WorkloadParse, SalRoundTrip) {
  auto spec = parse_workload(kSalWorkload);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec.value().backend, "sim");
  EXPECT_EQ(spec.value().machine, "localhost");
  EXPECT_EQ(spec.value().cores, 8);
  EXPECT_EQ(spec.value().pattern, "sal");
  EXPECT_EQ(spec.value().iterations, 2);
  EXPECT_EQ(spec.value().simulations, 4);
  ASSERT_EQ(spec.value().sections.size(), 2u);
  EXPECT_EQ(spec.value()
                .sections.at("simulation")
                .get_string("kernel")
                .value(),
            "misc.sleep");
  EXPECT_DOUBLE_EQ(spec.value()
                       .sections.at("analysis")
                       .get_double("duration")
                       .value(),
                   1.0);
}

TEST(WorkloadParse, Errors) {
  EXPECT_EQ(parse_workload("nonsense").status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(parse_workload("pattern = tree\nsimulations = 2\n")
                .status()
                .code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(parse_workload("pattern = bag\nsimulations = 2\n")
                .status()
                .code(),
            Errc::kInvalidArgument);  // missing [task] section
  EXPECT_EQ(
      parse_workload("pattern = bag\nsimulations = 2\n[task]\nfoo = 1\n")
          .status()
          .code(),
      Errc::kInvalidArgument);  // section without kernel
  EXPECT_EQ(parse_workload("[oops\n").status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(parse_workload("backend = teleport\npattern = bag\n"
                           "simulations = 1\n[task]\nkernel = misc.sleep\n")
                .status()
                .code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(load_workload("/nonexistent.entk").status().code(),
            Errc::kIoError);
}

TEST(WorkloadParse, AliasKeys) {
  auto spec = parse_workload(
      "pattern = ee\nreplicas = 6\ncycles = 3\n"
      "[simulation]\nkernel = misc.sleep\n[exchange]\nkernel = "
      "misc.sleep\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().simulations, 6);
  EXPECT_EQ(spec.value().iterations, 3);
}

TEST(Placeholders, Substitution) {
  StageContext context;
  context.iteration = 3;
  context.stage = 2;
  context.instance = 7;
  context.instances = 16;
  EXPECT_EQ(substitute_placeholders("traj_{instance}_i{iteration}.dat",
                                    context),
            "traj_7_i3.dat");
  EXPECT_EQ(substitute_placeholders("{instance}{instance}", context), "77");
  EXPECT_EQ(substitute_placeholders("{instances} of stage {stage}",
                                    context),
            "16 of stage 2");
  EXPECT_EQ(substitute_placeholders("no placeholders", context),
            "no placeholders");
}

TEST(TaskFromSection, BuildsSpecWithSubstitution) {
  Config section;
  section.set("kernel", "md.simulate");
  section.set("out", "traj_{instance}.dat");
  section.set("steps", 300);
  section.set("max_retries", 2);
  StageContext context;
  context.instance = 5;
  auto task = task_from_section(section, context);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task.value().kernel, "md.simulate");
  EXPECT_EQ(task.value().args.get_string("out").value(), "traj_5.dat");
  EXPECT_EQ(task.value().retry.max_retries, 2);
  EXPECT_FALSE(task.value().args.contains("kernel"));
  EXPECT_FALSE(task.value().args.contains("max_retries"));
}

TEST(TaskFromSection, FaultToleranceKeys) {
  Config section;
  section.set("kernel", "misc.sleep");
  section.set("duration", 5.0);
  section.set("max_retries", 3);
  section.set("retry_backoff", 4.0);
  section.set("retry_backoff_multiplier", 3.0);
  section.set("retry_backoff_max", 60.0);
  section.set("retry_jitter", 0.25);
  section.set("execution_timeout", 120.0);
  section.set("inject_failure", true);
  section.set("inject_hang", false);
  auto task = task_from_section(section, StageContext{});
  ASSERT_TRUE(task.ok()) << task.status().to_string();
  EXPECT_EQ(task.value().retry.max_retries, 3);
  EXPECT_DOUBLE_EQ(task.value().retry.backoff_base, 4.0);
  EXPECT_DOUBLE_EQ(task.value().retry.backoff_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(task.value().retry.backoff_max, 60.0);
  EXPECT_DOUBLE_EQ(task.value().retry.jitter, 0.25);
  EXPECT_DOUBLE_EQ(task.value().retry.execution_timeout, 120.0);
  EXPECT_TRUE(task.value().inject_failure);
  EXPECT_FALSE(task.value().inject_hang);
  // Policy keys configure the task, not the kernel.
  EXPECT_FALSE(task.value().args.contains("max_retries"));
  EXPECT_FALSE(task.value().args.contains("retry_backoff"));
  EXPECT_FALSE(task.value().args.contains("inject_failure"));
  EXPECT_TRUE(task.value().args.contains("duration"));

  // An invalid retry policy is rejected when the task is built.
  section.set("retry_jitter", 1.0);
  EXPECT_EQ(task_from_section(section, StageContext{}).status().code(),
            Errc::kInvalidArgument);
}

TEST(WorkloadParse, FailurePolicyKeys) {
  auto spec = parse_workload(
      "pattern = bag\ntasks = 4\nfailure_policy = quorum\nquorum = 0.75\n"
      "[task]\nkernel = misc.sleep\nmax_retries = 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec.value().failure.policy, FailurePolicy::kQuorum);
  EXPECT_DOUBLE_EQ(spec.value().failure.quorum, 0.75);

  EXPECT_EQ(parse_workload("pattern = bag\ntasks = 1\n"
                           "failure_policy = explode\n"
                           "[task]\nkernel = misc.sleep\n")
                .status()
                .code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(parse_workload("pattern = bag\ntasks = 1\n"
                           "failure_policy = quorum\nquorum = 1.5\n"
                           "[task]\nkernel = misc.sleep\n")
                .status()
                .code(),
            Errc::kInvalidArgument);
}

TEST(WorkloadSerialize, RoundTripPreservesEveryField) {
  auto spec = parse_workload(
      "backend = sim\nmachine = localhost\ncores = 16\nruntime = 1800\n"
      "scheduler = backfill\npattern = sal\niterations = 2\n"
      "simulations = 4\nanalyses = 1\n"
      "failure_policy = quorum\nquorum = 0.5\n"
      "[simulation]\nkernel = misc.sleep\nduration = 2.5\n"
      "max_retries = 3\nretry_backoff = 1.5\nretry_jitter = 0.125\n"
      "inject_failure = true\n"
      "[analysis]\nkernel = misc.sleep\nduration = 1.0\n"
      "execution_timeout = 30.5\n");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();

  const std::string text = serialize_workload(spec.value());
  auto reparsed = parse_workload(text);
  ASSERT_TRUE(reparsed.ok())
      << reparsed.status().to_string() << "\nserialized:\n" << text;

  const WorkloadSpec& a = spec.value();
  const WorkloadSpec& b = reparsed.value();
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_DOUBLE_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.analyses, b.analyses);
  EXPECT_EQ(a.failure.policy, b.failure.policy);
  EXPECT_DOUBLE_EQ(a.failure.quorum, b.failure.quorum);
  ASSERT_EQ(b.sections.size(), a.sections.size());
  for (const auto& [name, section] : a.sections) {
    ASSERT_TRUE(b.sections.count(name)) << name;
    const Config& other = b.sections.at(name);
    for (const auto& key : section.keys()) {
      EXPECT_EQ(other.get_string(key).value(),
                section.get_string(key).value())
          << name << "." << key;
    }
  }
  // Serializing the reparse yields the identical text (fixed point).
  EXPECT_EQ(serialize_workload(reparsed.value()), text);
}

TEST(BuildPattern, EveryPatternKind) {
  for (const char* text : {
           "pattern = bag\ntasks = 3\n[task]\nkernel = misc.sleep\n",
           "pattern = eop\npipelines = 2\nstages = 2\n"
           "[stage1]\nkernel = misc.sleep\n[stage2]\nkernel = "
           "misc.sleep\n",
           kSalWorkload,
           "pattern = ee\nreplicas = 4\n[simulation]\nkernel = "
           "misc.sleep\n[exchange]\nkernel = misc.sleep\n",
       }) {
    auto spec = parse_workload(text);
    ASSERT_TRUE(spec.ok()) << spec.status().to_string();
    auto pattern = build_pattern(spec.value());
    ASSERT_TRUE(pattern.ok()) << pattern.status().to_string();
    EXPECT_TRUE(pattern.value()->validate().is_ok());
  }
}

TEST(RunWorkload, SalOnSimBackendEndToEnd) {
  auto spec = parse_workload(kSalWorkload);
  ASSERT_TRUE(spec.ok());
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto report = run_workload(spec.value(), registry);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok());
  // 2 iterations x (4 simulations + 1 analysis).
  EXPECT_EQ(report.value().units.size(), 10u);
}

TEST(RunWorkload, RejectsUnknownMachine) {
  auto spec = parse_workload(
      "machine = xsede.atlantis\npattern = bag\ntasks = 1\n"
      "[task]\nkernel = misc.sleep\n");
  ASSERT_TRUE(spec.ok());
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  EXPECT_EQ(run_workload(spec.value(), registry).status().code(),
            Errc::kNotFound);
}

TEST(RunWorkload, LoadFromDiskAndRunLocally) {
  const auto path =
      (std::filesystem::temp_directory_path() / "entk_workload_test.entk")
          .string();
  {
    std::ofstream file(path);
    file << "backend = local\ncores = 2\npattern = bag\ntasks = 3\n"
            "[task]\nkernel = misc.mkfile\n"
            "filename = made_{instance}.txt\nsize_kb = 1\n";
  }
  auto spec = load_workload(path);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto report = run_workload(spec.value(), registry);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units.size(), 3u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Corruption sweep. entk-serve hands untrusted SUBMIT text to the same
// parse_workload / build_pattern path entk-run uses, so every prefix and
// every single-bit flip of the shipped examples must either parse or
// fail with a Status: never throw, never crash (the asan-ubsan lane runs
// this too).
// ---------------------------------------------------------------------

std::string read_example(const std::string& name) {
  std::ifstream in(std::string(ENTK_EXAMPLES_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// What SUBMIT and the serve drive thread do with workload text short
/// of running it; true when the variant parsed.
bool parse_and_build(const std::string& text) {
  auto spec = parse_workload(text);
  if (!spec.ok()) {
    EXPECT_FALSE(spec.status().message().empty());
    return false;
  }
  auto pattern = build_pattern(spec.value());
  if (pattern.ok()) (void)pattern.value()->validate();
  return true;
}

class WorkloadCorruption : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadCorruption, EveryTruncationParsesOrFails) {
  const std::string text = read_example(GetParam());
  ASSERT_FALSE(text.empty());
  std::size_t parsed = 0;
  for (std::size_t keep = 0; keep <= text.size(); ++keep) {
    EXPECT_NO_THROW(parsed += parse_and_build(text.substr(0, keep)))
        << "prefix of " << keep << " bytes";
  }
  EXPECT_GT(parsed, 0u);  // at least the whole file reaches build_pattern
}

TEST_P(WorkloadCorruption, EveryBitFlipParsesOrFails) {
  const std::string original = read_example(GetParam());
  ASSERT_FALSE(original.empty());
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string text = original;
      text[i] = static_cast<char>(text[i] ^ (1 << bit));
      EXPECT_NO_THROW(parsed += parse_and_build(text))
          << "byte " << i << " bit " << bit;
    }
  }
  EXPECT_GT(parsed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, WorkloadCorruption, ::testing::Values("bag.entk", "sal.entk"),
    [](const ::testing::TestParamInfo<const char*>& example) {
      const std::string file = example.param;
      return file.substr(0, file.find('.'));
    });

}  // namespace
}  // namespace entk::core
