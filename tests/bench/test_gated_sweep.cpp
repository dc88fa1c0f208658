// GatedSweep: the harness behind the determinism-gated benches. Synthetic
// trial functions pin its digest gate, named gates, axis merge and flag
// handling (death tests for the exit-2 paths).
#include "bench/gated_sweep.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace qnetp::bench {
namespace {

using Axis = GatedSweep::Axis;

/// argv for a sweep: the binary name, --out=<unique temp file>, `cli`.
struct Cli {
  std::vector<std::string> storage;
  std::vector<char*> argv;

  explicit Cli(std::initializer_list<std::string> cli) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    storage.push_back("bench");
    storage.push_back("--out=" + out_path(info->name()));
    storage.insert(storage.end(), cli);
    for (auto& s : storage) argv.push_back(s.data());
  }
  static std::string out_path(const std::string& test) {
    return ::testing::TempDir() + "gated_sweep_" + test + ".json";
  }
  int argc() { return static_cast<int>(argv.size()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A trial that depends only on its seed.
exp::TrialResult pure_trial(std::uint64_t seed, std::size_t) {
  exp::TrialResult r;
  r.set("ok", 1.0);
  r.set("x", static_cast<double>(seed % 1000));
  r.add_sample("s", static_cast<double>(seed % 7));
  return r;
}

TEST(GatedSweep, IdenticalResultsAcrossAxesPass) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.jobs_axis({1, 2, 4});
  sweep.shards_axis({1, 2, 4}, 4);
  sweep.config("by_jobs", Axis::jobs, pure_trial);
  sweep.config("by_shards", Axis::shards, pure_trial);
  sweep.config("single", Axis::none, pure_trial);
  sweep.gate("clean", {{"ok", 1.0}});
  sweep.column("x_mean", 2, mean_of("x"));
  EXPECT_EQ(sweep.run(5, 11, "synthetic"), 0);

  const std::string json =
      read_file(Cli::out_path("IdenticalResultsAcrossAxesPass"));
  EXPECT_NE(json.find("\"benchmark\": \"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_per_point\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"hw_concurrency\": "), std::string::npos);
  EXPECT_NE(json.find("\"digests_bit_identical\": true"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
  EXPECT_EQ(json.find("\"digests_match\": false"), std::string::npos);
  EXPECT_NE(json.find("{\"config\": \"by_shards\", \"jobs\": 1, \"shards\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("{\"config\": \"single\", \"jobs\": 1, \"shards\": 1"),
            std::string::npos);
}

TEST(GatedSweep, ShardDependentResultIsFlaggedAndFails) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.shards_axis({1, 2, 4}, 4);
  sweep.config("leaky", Axis::shards,
               [](std::uint64_t seed, std::size_t shards) {
                 exp::TrialResult r = pure_trial(seed, shards);
                 r.set("shards_seen", static_cast<double>(shards));
                 return r;
               });
  EXPECT_EQ(sweep.run(3, 11, "synthetic"), 1);

  const std::string json =
      read_file(Cli::out_path("ShardDependentResultIsFlaggedAndFails"));
  EXPECT_NE(json.find("\"digests_bit_identical\": false"), std::string::npos);
  // The reference point (shards=1) matches itself; the others do not.
  std::size_t mismatches = 0;
  for (auto at = json.find("\"digests_match\": false"); at != std::string::npos;
       at = json.find("\"digests_match\": false", at + 1)) {
    ++mismatches;
  }
  EXPECT_EQ(mismatches, 2u);
}

TEST(GatedSweep, FailingGateFails) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.jobs_axis({1, 2});
  sweep.config("bad", Axis::jobs, [](std::uint64_t seed, std::size_t) {
    exp::TrialResult r = pure_trial(seed, 1);
    r.set("ok", seed % 2 == 0 ? 1.0 : 0.0);
    return r;
  });
  sweep.gate("clean", {{"ok", 1.0}});
  EXPECT_EQ(sweep.run(8, 11, "synthetic"), 1);
  EXPECT_NE(read_file(Cli::out_path("FailingGateFails"))
                .find("\"clean\": false"),
            std::string::npos);
}

TEST(GatedSweep, MissingGateScalarFails) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.config("single", Axis::none, pure_trial);
  sweep.gate("quiet", {{"mismatches", 0.0}});
  EXPECT_EQ(sweep.run(2, 11, "synthetic"), 1);
}

TEST(GatedSweep, UngatedConfigReportsWithoutFailing) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.config("good", Axis::none, pure_trial);
  sweep.config("informational", Axis::none,
               [](std::uint64_t seed, std::size_t shards) {
                 exp::TrialResult r = pure_trial(seed, shards);
                 r.set("ok", 0.0);
                 return r;
               },
               /*gated=*/false);
  sweep.gate("clean", {{"ok", 1.0}});
  EXPECT_EQ(sweep.run(2, 11, "synthetic"), 0);
}

TEST(GatedSweep, FailingCheckFails) {
  Cli cli({});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.config("single", Axis::none, pure_trial);
  sweep.check("never", "always fails",
              [](const GatedSweep::Points&) { return false; });
  EXPECT_EQ(sweep.run(1, 11, "synthetic"), 1);
}

TEST(GatedSweep, MergeAxisSortsAndDedupes) {
  EXPECT_EQ(merge_axis({1, 2, 4, 8}, 3),
            (std::vector<std::size_t>{1, 2, 3, 4, 8}));
  EXPECT_EQ(merge_axis({1, 2, 4}, 2), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(merge_axis({4, 1, 1}, 9), (std::vector<std::size_t>{1, 4, 9}));
}

TEST(GatedSweep, ExtraJobsValueRunsInSortedOrder) {
  Cli cli({"--jobs=3"});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  sweep.jobs_axis({1, 2, 4, 8});
  sweep.config("fig", Axis::jobs, pure_trial);
  std::vector<std::size_t> order;
  sweep.field("unused", 0, [&order](const GatedSweep::Points& points) {
    for (const auto& p : points) order.push_back(p.jobs);
    return 0.0;
  });
  EXPECT_EQ(sweep.run(2, 11, "synthetic"), 0);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 4, 8}));
}

TEST(GatedSweepDeathTest, EmptyOutExitsTwo) {
  std::vector<std::string> storage{"bench", "--out="};
  std::vector<char*> argv{storage[0].data(), storage[1].data()};
  EXPECT_EXIT(GatedSweep("synthetic", "unused.json", 2, argv.data()),
              ::testing::ExitedWithCode(2), "bad value for --out");
}

TEST(GatedSweepDeathTest, ShardsBeyondRegionsExitsTwo) {
  Cli cli({"--shards=5"});
  GatedSweep sweep("synthetic", "unused.json", cli.argc(), cli.argv.data());
  EXPECT_EXIT(sweep.shards_axis({1, 2, 4}, 4), ::testing::ExitedWithCode(2),
              "bad value for --shards: 5");
}

}  // namespace
}  // namespace qnetp::bench
