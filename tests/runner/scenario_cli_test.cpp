// End-to-end tests for the scenario engine: run a real scenario through the
// registry, round-trip the JSON record, and verify thread-count invariance.
#include "sim/runner/emit.hpp"

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "scenarios/scenarios.hpp"
#include "sim/runner/scenario_cli.hpp"
#include "sim/runner/scenario_registry.hpp"

namespace dyngossip {
namespace {

ScenarioResult run_with_threads(const Scenario& scenario, std::size_t threads,
                                std::size_t trials) {
  ThreadPool pool(threads);
  const ScenarioContext ctx(pool, trials, /*quick=*/true);
  return scenario.run(ctx);
}

TEST(ScenarioRun, JsonRecordRoundTrips) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  const Scenario* scenario = registry.find("static_baseline");
  ASSERT_NE(scenario, nullptr);
  const ScenarioResult result = run_with_threads(*scenario, 2, 0);
  ASSERT_FALSE(result.tables.empty());
  EXPECT_FALSE(result.tables[0].rows.empty());

  RunInfo info;
  info.trials = 0;
  info.threads = 2;
  info.quick = true;
  info.elapsed_seconds = 0.125;
  const std::string text = scenario_result_to_json(result, info).dump(2);
  const JsonValue parsed = JsonValue::parse(text);
  const ScenarioResult back = scenario_result_from_json(parsed);
  EXPECT_TRUE(result == back);

  // The volatile metadata survives in the "run" sub-object.
  const JsonValue* run = parsed.find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->find("threads")->as_number(), 2.0);
  EXPECT_EQ(run->find("elapsed_seconds")->as_number(), 0.125);
}

TEST(ScenarioRun, PayloadIsThreadCountInvariant) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  // fig1_free_edges is pure analysis (no engine rounds), so it is fast even
  // at a statistically meaningful trial count.
  const Scenario* scenario = registry.find("fig1_free_edges");
  ASSERT_NE(scenario, nullptr);
  const ScenarioResult serial = run_with_threads(*scenario, 1, 8);
  const ScenarioResult parallel2 = run_with_threads(*scenario, 2, 8);
  const ScenarioResult parallel8 = run_with_threads(*scenario, 8, 8);
  EXPECT_TRUE(serial == parallel2);
  EXPECT_TRUE(serial == parallel8);
}

TEST(ScenarioCli, FaultFragileAlgorithmIsAFlagError) {
  // spanning_tree asserts exactly-once delivery and a node up from round 1:
  // under dup or crash faults it would abort (exit 134).  The run is refused
  // as a flag error instead.
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  for (const char* fault : {"--fault=fault:dup=0.05", "--fault=crash=0.01,recover=0.2"}) {
    const std::vector<const char*> argv = {
        "dyngossip", "run", "single_source", "--quick", "--algo=spanning_tree",
        "--adversary=static", fault, "--json=/dev/null"};
    EXPECT_EQ(dyngossip_main(registry, static_cast<int>(argv.size()), argv.data()), 2)
        << fault;
  }
}

TEST(ScenarioRun, FromJsonRejectsMalformedRecords) {
  // Missing keys and mistyped fields must both throw (never abort).
  for (const char* bad :
       {"{}", "{\"scenario\":\"x\"}", "{\"scenario\":\"x\",\"tables\":3}",
        "{\"scenario\":7,\"tables\":[]}",
        "{\"scenario\":\"x\",\"tables\":[{\"title\":\"t\",\"columns\":[1],"
        "\"rows\":[],\"note\":\"\"}]}"}) {
    EXPECT_THROW((void)scenario_result_from_json(JsonValue::parse(bad)),
                 std::runtime_error)
        << bad;
  }
}

TEST(ScenarioScaleAxis, ParsesAllThreeValuesAndRejectsJunk) {
  ScenarioScale scale = ScenarioScale::kDefault;
  EXPECT_TRUE(parse_scenario_scale("quick", &scale));
  EXPECT_EQ(scale, ScenarioScale::kQuick);
  EXPECT_TRUE(parse_scenario_scale("default", &scale));
  EXPECT_EQ(scale, ScenarioScale::kDefault);
  EXPECT_TRUE(parse_scenario_scale("large", &scale));
  EXPECT_EQ(scale, ScenarioScale::kLarge);
  EXPECT_FALSE(parse_scenario_scale("huge", &scale));
  EXPECT_FALSE(parse_scenario_scale("", &scale));
  EXPECT_EQ(scale, ScenarioScale::kLarge);  // failed parses leave *out alone
}

TEST(ScenarioScaleAxis, ContextExposesScaleAndBackCompatQuickFlag) {
  ThreadPool pool(1);
  const ScenarioContext quick(pool, 0, /*quick=*/true);
  EXPECT_TRUE(quick.quick());
  EXPECT_FALSE(quick.large());
  EXPECT_EQ(quick.scale(), ScenarioScale::kQuick);

  const ScenarioContext deflt(pool, 0, /*quick=*/false);
  EXPECT_EQ(deflt.scale(), ScenarioScale::kDefault);

  const ScenarioContext large(pool, 0, ScenarioScale::kLarge);
  EXPECT_FALSE(large.quick());
  EXPECT_TRUE(large.large());
}

TEST(ScenarioScaleAxis, RunRecordCarriesScaleString) {
  const ScenarioResult result{"toy", {}};
  RunInfo info;
  info.scale = ScenarioScale::kLarge;
  const JsonValue doc = scenario_result_to_json(result, info);
  const JsonValue* run = doc.find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->find("scale")->as_string(), "large");
}

TEST(ScenarioRun, CsvAndTableRenderingsContainEveryCell) {
  ScenarioTable table;
  table.title = "toy";
  table.columns = {"a", "b"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  table.note = "note line";
  const ScenarioResult result{"toy_scenario", {table}};

  std::ostringstream tables_out;
  print_scenario_tables(result, tables_out);
  for (const char* needle : {"toy", "a", "b", "1", "2", "3", "4", "note line"}) {
    EXPECT_NE(tables_out.str().find(needle), std::string::npos) << needle;
  }
  std::ostringstream csv_out;
  print_scenario_csv(result, csv_out);
  EXPECT_NE(csv_out.str().find("a,b"), std::string::npos);
  EXPECT_NE(csv_out.str().find("3,4"), std::string::npos);
}

}  // namespace
}  // namespace dyngossip
