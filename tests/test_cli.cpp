// Tests for the dmx_sweep command-line front end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/cli.hpp"

namespace dmx::harness {
namespace {

CliOptions parse(std::initializer_list<std::string> args) {
  return parse_cli(std::vector<std::string>(args));
}

TEST(Cli, Defaults) {
  const auto o = parse({});
  EXPECT_EQ(o.algorithm, "arbiter-tp");
  EXPECT_EQ(o.n_nodes, 10u);
  EXPECT_EQ(o.lambdas, std::vector<double>{0.5});
  EXPECT_EQ(o.requests, 100'000u);
  EXPECT_EQ(o.seeds, 3u);
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.list);
}

TEST(Cli, ParsesEverything) {
  const auto o = parse({"--algo", "raymond", "--n", "16", "--lambda",
                        "0.1,0.2,1.5", "--requests", "5000", "--seeds", "7",
                        "--t-msg", "0.05", "--t-exec", "0.2", "--param",
                        "t_req=0.3", "--param", "order=priority", "--delay",
                        "uniform", "--jitter", "0.02", "--loss",
                        "PRIVILEGE=0.01", "--csv"});
  EXPECT_EQ(o.algorithm, "raymond");
  EXPECT_EQ(o.n_nodes, 16u);
  EXPECT_EQ(o.lambdas, (std::vector<double>{0.1, 0.2, 1.5}));
  EXPECT_EQ(o.requests, 5000u);
  EXPECT_EQ(o.seeds, 7u);
  EXPECT_DOUBLE_EQ(o.t_msg, 0.05);
  EXPECT_DOUBLE_EQ(o.t_exec, 0.2);
  EXPECT_DOUBLE_EQ(o.params.get_num("t_req", 0.0), 0.3);
  EXPECT_EQ(o.params.get_str("order", ""), "priority");
  EXPECT_EQ(o.delay_kind, DelayKind::kUniform);
  EXPECT_DOUBLE_EQ(o.jitter, 0.02);
  EXPECT_DOUBLE_EQ(o.loss_by_type.at("PRIVILEGE"), 0.01);
  EXPECT_TRUE(o.csv);
}

TEST(Cli, ParsesTransportKind) {
  EXPECT_EQ(parse({}).transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "raw"}).transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "reliable"}).transport,
            TransportKind::kReliable);
  EXPECT_THROW(parse({"--transport", "tcp"}), std::invalid_argument);
  EXPECT_THROW(parse({"--transport"}), std::invalid_argument);
}

TEST(Cli, ParsesJobs) {
  EXPECT_EQ(parse({}).jobs, 1u);  // serial by default
  EXPECT_EQ(parse({"--jobs", "8"}).jobs, 8u);
  EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0u);  // 0 = hardware concurrency
  EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "two"}), std::invalid_argument);
}

TEST(Cli, HelpAndList) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
  EXPECT_TRUE(parse({"--list"}).list);
}

TEST(Cli, Rejections) {
  EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--n"}), std::invalid_argument);          // missing value
  EXPECT_THROW(parse({"--n", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--n", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--lambda", "0.5,-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--lambda", ""}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--param", "noequals"}), std::invalid_argument);
  EXPECT_THROW(parse({"--param", "=x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--delay", "warp"}), std::invalid_argument);
  EXPECT_THROW(parse({"--loss", "PRIVILEGE"}), std::invalid_argument);
  EXPECT_THROW(parse({"--t-msg", "1.5x"}), std::invalid_argument);
}

TEST(Cli, RunHelpPrintsUsage) {
  CliOptions o;
  o.help = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("usage:"), std::string::npos);
}

TEST(Cli, RunListPrintsAlgorithms) {
  CliOptions o;
  o.list = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("arbiter-tp"), std::string::npos);
  EXPECT_NE(os.str().find("suzuki-kasami"), std::string::npos);
}

TEST(Cli, RunUnknownAlgorithmFails) {
  CliOptions o;
  o.algorithm = "nope";
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 2);
}

TEST(Cli, RunSmallSweepProducesTable) {
  CliOptions o;
  o.lambdas = {0.2, 1.0};
  o.requests = 1'000;
  o.seeds = 1;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("msgs/cs"), std::string::npos);
  EXPECT_NE(out.find("0.200"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  EXPECT_EQ(out.find("VIOLATED"), std::string::npos);
}

TEST(Cli, ParsesLockServiceFlags) {
  // Single-resource defaults keep the classic sweep path.
  const auto d = parse({});
  EXPECT_EQ(d.n_resources, 1u);
  EXPECT_DOUBLE_EQ(d.zipf_s, 0.9);
  EXPECT_EQ(d.shard_algo_hot, "arbiter-tp");
  EXPECT_EQ(d.shard_algo_cold, "path-reversal");
  EXPECT_EQ(d.batch, 16u);

  const auto o = parse({"--resources", "64", "--zipf-s", "1.2",
                        "--shard-algo", "hot=suzuki-kasami,cold=centralized",
                        "--batch", "32"});
  EXPECT_EQ(o.n_resources, 64u);
  EXPECT_DOUBLE_EQ(o.zipf_s, 1.2);
  EXPECT_EQ(o.shard_algo_hot, "suzuki-kasami");
  EXPECT_EQ(o.shard_algo_cold, "centralized");
  EXPECT_EQ(o.batch, 32u);
  // Partial assignment leaves the other role at its default.
  EXPECT_EQ(parse({"--shard-algo", "cold=centralized"}).shard_algo_hot,
            "arbiter-tp");
}

TEST(Cli, LockServiceFlagRejections) {
  EXPECT_THROW(parse({"--resources"}), std::invalid_argument);
  EXPECT_THROW(parse({"--resources", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--zipf-s", "-0.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"--zipf-s", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard-algo", "warm=raymond"}),
               std::invalid_argument);  // unknown role key
  EXPECT_THROW(parse({"--shard-algo", "hot"}), std::invalid_argument);
  EXPECT_THROW(parse({"--batch", "x"}), std::invalid_argument);
}

TEST(Cli, RunLockServiceProducesShardTable) {
  CliOptions o;
  o.n_resources = 8;
  o.zipf_s = 0.9;
  o.requests = 800;
  o.n_nodes = 4;
  o.lambdas = {2.0};
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("grant p99"), std::string::npos);
  EXPECT_NE(out.find("fairness"), std::string::npos);
  EXPECT_NE(out.find("arbiter-tp"), std::string::npos);
  EXPECT_NE(out.find("path-reversal"), std::string::npos);
  EXPECT_EQ(out.find("VIOLATED"), std::string::npos);
}

TEST(Cli, ParsesTraceFormat) {
  EXPECT_EQ(parse({}).trace_format, obs::TraceFormat::kJsonl);
  EXPECT_EQ(parse({"--trace-format", "chrome"}).trace_format,
            obs::TraceFormat::kChrome);
  EXPECT_EQ(parse({"--trace-format", "text"}).trace_format,
            obs::TraceFormat::kText);
  EXPECT_THROW(parse({"--trace-format", "xml"}), std::invalid_argument);
}

TEST(Cli, ManifestKeepsStringParams) {
  // dmx_sweep --n 4 --requests 200 --seeds 1 --param order=priority
  //   --param t_req=0.2 --emit-json FILE: the string entry is recorded too.
  const std::filesystem::path manifest =
      std::filesystem::temp_directory_path() /
      ("dmx_cli_params_" + std::to_string(::getpid()) + ".json");
  const CliOptions o = parse({"--n", "4", "--requests", "200", "--seeds", "1",
                              "--param", "order=priority", "--param",
                              "t_req=0.2", "--emit-json", manifest.string()});
  std::ostringstream os;
  ASSERT_EQ(run_cli(o, os), 0) << os.str();
  std::ifstream in(manifest);
  std::ostringstream text;
  text << in.rdbuf();
  in.close();
  std::filesystem::remove(manifest);
  EXPECT_NE(text.str().find(R"("params":{"t_req":0.2,"order":"priority"})"),
            std::string::npos)
      << text.str();
}

TEST(Cli, RunCsvMode) {
  CliOptions o;
  o.lambdas = {0.5};
  o.requests = 500;
  o.seeds = 1;
  o.csv = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("lambda,msgs/cs"), std::string::npos);
}

}  // namespace
}  // namespace dmx::harness
