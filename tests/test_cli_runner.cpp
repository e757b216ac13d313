#include "cli/runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "sim/fault_plan.h"

namespace poolnet::cli {
namespace {

CliConfig small_config() {
  CliConfig config;
  config.systems = {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim};
  config.nodes = 150;
  config.queries = 10;
  config.seed = 5;
  return config;
}

TEST(CliRunner, RunsPoolAndDimWithZeroMismatches) {
  std::ostringstream out;
  const auto results = run_experiment(small_config(), out);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.mean_messages, 0.0);
    EXPECT_GT(r.insert_messages_per_event, 0.0);
  }
  const auto text = out.str();
  EXPECT_NE(text.find("pool"), std::string::npos);
  EXPECT_NE(text.find("dim"), std::string::npos);
  EXPECT_NE(text.find("150 nodes"), std::string::npos);
}

TEST(CliRunner, GhtSystemRunsToo) {
  auto config = small_config();
  config.systems = {benchsup::SystemKind::Ght};
  config.flavor = QueryFlavor::Point;
  std::ostringstream out;
  const auto results = run_experiment(config, out);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].mismatches, 0u);
}

// Only the selected stacks are deployed, and a system's row does not
// depend on which others run beside it — with or without a mid-run kill
// (the injector, not any one stack, decides who is alive, so the sinks
// are drawn the same way whatever is selected).
TEST(CliRunner, SubsetRowEqualsItsRowInAll) {
  for (const bool faults : {false, true}) {
    auto all = small_config();
    all.systems.assign(benchsup::kAllSystems.begin(),
                       benchsup::kAllSystems.end());
    all.queries = 20;
    if (faults) {
      std::string error;
      ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@10", &all.faults, &error))
          << error;
    }
    std::ostringstream out;
    const auto full = run_experiment(all, out);
    ASSERT_EQ(full.size(), 4u);
    for (const auto kind : {benchsup::SystemKind::Ght,
                            benchsup::SystemKind::Central}) {
      auto one = all;
      one.systems = {kind};
      const auto rows = run_experiment(one, out);
      ASSERT_EQ(rows.size(), 1u);
      const CliResult& a = rows[0];
      const CliResult& b = full[kind == benchsup::SystemKind::Ght ? 2 : 3];
      const std::string where = std::string(benchsup::to_string(kind)) +
                                (faults ? " with faults" : " fault-free");
      ASSERT_EQ(b.system, kind);
      EXPECT_EQ(a.mean_messages, b.mean_messages) << where;
      EXPECT_EQ(a.mean_query_messages, b.mean_query_messages) << where;
      EXPECT_EQ(a.mean_reply_messages, b.mean_reply_messages) << where;
      EXPECT_EQ(a.mean_results, b.mean_results) << where;
      EXPECT_EQ(a.mean_nodes_visited, b.mean_nodes_visited) << where;
      EXPECT_EQ(a.insert_messages_per_event, b.insert_messages_per_event)
          << where;
      EXPECT_EQ(a.mismatches, b.mismatches) << where;
      EXPECT_EQ(a.recall, b.recall) << where;
      EXPECT_EQ(a.retries, b.retries) << where;
      EXPECT_EQ(a.failovers, b.failovers) << where;
      EXPECT_EQ(a.events_lost, b.events_lost) << where;
    }
    if (faults) {
      EXPECT_LT(full[2].recall, 1.0) << "the kill never bit GHT";
    }
  }
}

TEST(CliRunner, PartialFlavorsWork) {
  for (const auto flavor : {QueryFlavor::OnePartial, QueryFlavor::TwoPartial}) {
    auto config = small_config();
    config.flavor = flavor;
    std::ostringstream out;
    const auto results = run_experiment(config, out);
    for (const auto& r : results) EXPECT_EQ(r.mismatches, 0u);
  }
}

TEST(CliRunner, MultipleDeploymentsAggregate) {
  auto config = small_config();
  config.deployments = 2;
  config.queries = 5;
  std::ostringstream out;
  const auto results = run_experiment(config, out);
  EXPECT_EQ(results[0].mismatches, 0u);
}

TEST(CliRunner, CsvExportWritesHeaderOnceAndAppends) {
  const std::string path = ::testing::TempDir() + "/poolnet_cli_test.csv";
  std::filesystem::remove(path);

  auto config = small_config();
  config.csv_path = path;
  std::ostringstream out;
  run_experiment(config, out);
  run_experiment(config, out);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0, headers = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.rfind("system,", 0) == 0) ++headers;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_EQ(lines, 1u + 2u * 2u);  // header + 2 systems x 2 runs
  std::filesystem::remove(path);
}

TEST(CliRunner, RejectsEmptySystemList) {
  auto config = small_config();
  config.systems.clear();
  std::ostringstream out;
  EXPECT_THROW(run_experiment(config, out), poolnet::ConfigError);
}

TEST(CliRunner, RejectsPartialQueriesOnOneDimension) {
  auto config = small_config();
  config.dims = 1;
  config.flavor = QueryFlavor::OnePartial;
  std::ostringstream out;
  EXPECT_THROW(run_experiment(config, out), poolnet::ConfigError);
}

TEST(CliRunner, NamesAreStable) {
  EXPECT_STREQ(benchsup::to_string(benchsup::SystemKind::Pool), "pool");
  EXPECT_STREQ(benchsup::to_string(benchsup::SystemKind::Ght), "ght");
  EXPECT_STREQ(to_string(QueryFlavor::TwoPartial), "2-partial");
}

}  // namespace
}  // namespace poolnet::cli
