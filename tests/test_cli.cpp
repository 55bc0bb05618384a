// Tests for the dmx_sweep command-line front end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"

namespace dmx::harness {
namespace {

CliOptions parse(std::initializer_list<std::string> args) {
  return parse_cli(std::vector<std::string>(args));
}

TEST(Cli, Defaults) {
  const auto o = parse({});
  EXPECT_EQ(o.cfg.algorithm, "arbiter-tp");
  EXPECT_EQ(o.cfg.n_nodes, 10u);
  EXPECT_EQ(o.lambdas, std::vector<double>{0.5});
  EXPECT_EQ(o.cfg.total_requests, 100'000u);
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
  EXPECT_EQ(o.cfg.algorithm, "raymond");
  EXPECT_EQ(o.cfg.n_nodes, 16u);
  EXPECT_EQ(o.lambdas, (std::vector<double>{0.1, 0.2, 1.5}));
  EXPECT_EQ(o.cfg.total_requests, 5000u);
  EXPECT_EQ(o.seeds, 7u);
  EXPECT_DOUBLE_EQ(o.cfg.t_msg, 0.05);
  EXPECT_DOUBLE_EQ(o.cfg.t_exec, 0.2);
  EXPECT_DOUBLE_EQ(o.cfg.params.get_num("t_req", 0.0), 0.3);
  EXPECT_EQ(o.cfg.params.get_str("order", ""), "priority");
  EXPECT_EQ(o.cfg.delay_kind, DelayKind::kUniform);
  EXPECT_DOUBLE_EQ(o.cfg.delay_jitter, 0.02);
  EXPECT_DOUBLE_EQ(o.cfg.loss_by_type.at("PRIVILEGE"), 0.01);
  EXPECT_TRUE(o.csv);
}

TEST(Cli, ParsesTransportKind) {
  EXPECT_EQ(parse({}).cfg.transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "raw"}).cfg.transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "reliable"}).cfg.transport,
            TransportKind::kReliable);
  EXPECT_THROW(parse({"--transport", "tcp"}), std::invalid_argument);
  EXPECT_THROW(parse({"--transport"}), std::invalid_argument);
}

TEST(Cli, ParsesJobs) {
  EXPECT_EQ(parse({}).cfg.jobs, 1u);  // serial by default
  EXPECT_EQ(parse({"--jobs", "8"}).cfg.jobs, 8u);
  EXPECT_EQ(parse({"--jobs", "0"}).cfg.jobs, 0u);  // 0 = hardware concurrency
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
  o.cfg.algorithm = "nope";
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 2);
}

TEST(Cli, RunSmallSweepProducesTable) {
  CliOptions o;
  o.lambdas = {0.2, 1.0};
  o.cfg.total_requests = 1'000;
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
  EXPECT_EQ(d.service.n_resources, 1u);
  EXPECT_DOUBLE_EQ(d.service.zipf_s, 0.9);
  EXPECT_EQ(d.service.hot_algorithm, "arbiter-tp");
  EXPECT_EQ(d.service.cold_algorithm, "path-reversal");
  EXPECT_EQ(d.service.batch_size, 16u);

  const auto o = parse({"--resources", "64", "--zipf-s", "1.2",
                        "--shard-algo", "hot=suzuki-kasami,cold=centralized",
                        "--batch", "32"});
  EXPECT_EQ(o.service.n_resources, 64u);
  EXPECT_DOUBLE_EQ(o.service.zipf_s, 1.2);
  EXPECT_EQ(o.service.hot_algorithm, "suzuki-kasami");
  EXPECT_EQ(o.service.cold_algorithm, "centralized");
  EXPECT_EQ(o.service.batch_size, 32u);
  // Partial assignment leaves the other role at its default.
  EXPECT_EQ(parse({"--shard-algo", "cold=centralized"}).service.hot_algorithm,
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
  o.service.n_resources = 8;
  o.service.zipf_s = 0.9;
  o.cfg.total_requests = 800;
  o.cfg.n_nodes = 4;
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

TEST(Cli, UnwritableManifestFailsBeforeTheSweep) {
  // dmx_sweep --emit-json MISSING_DIR/run.json, on the lambda-sweep path
  // and on the lock-service path (--resources 8): exit 2 with no table.
  const std::filesystem::path manifest =
      std::filesystem::temp_directory_path() /
      ("dmx_cli_missing_" + std::to_string(::getpid())) / "run.json";
  for (const std::string resources : {"1", "8"}) {
    std::vector<std::string> args = {"--n", "4", "--requests", "200",
                                     "--resources", resources, "--emit-json",
                                     manifest.string()};
    // The lock-service run reads no --seeds.
    if (resources == "1") args.insert(args.end(), {"--seeds", "1"});
    const CliOptions o = parse_cli(args);
    std::ostringstream os;
    EXPECT_EQ(run_cli(o, os), 2) << "--resources " << resources;
    EXPECT_EQ(os.str(),
              "cannot open --emit-json file '" + manifest.string() + "'\n");
  }
  EXPECT_FALSE(std::filesystem::exists(manifest.parent_path()));
}

TEST(Cli, InvalidConfigurationLeavesEarlierOutputIntact) {
  // A configuration rejected with exit 2 must not truncate the files its
  // --emit-json and --trace-out name: on the lambda-sweep path (unknown
  // algorithm) and on the lock-service path (unknown hot-shard algorithm).
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dmx_cli_keep_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string manifest = (dir / "run.json").string();
  const std::string trace = (dir / "run.jsonl").string();
  const auto contents = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  for (const std::string algo_flag : {"--algo", "--shard-algo"}) {
    const std::string algo = algo_flag == "--algo" ? "nope" : "hot=nope";
    const std::string resources = algo_flag == "--algo" ? "1" : "8";
    std::ofstream(manifest) << "earlier manifest\n";
    std::ofstream(trace) << "earlier trace\n";
    const CliOptions o = parse({algo_flag, algo, "--resources", resources,
                                "--emit-json", manifest, "--trace-out",
                                trace});
    std::ostringstream os;
    EXPECT_EQ(run_cli(o, os), 2) << algo_flag;
    EXPECT_EQ(os.str().rfind("invalid configuration:\n", 0), 0u) << os.str();
    EXPECT_EQ(contents(manifest), "earlier manifest\n") << algo_flag;
    EXPECT_EQ(contents(trace), "earlier trace\n") << algo_flag;
  }
  std::filesystem::remove_all(dir);
}

// Runs `args` with an --emit-json file that already holds "earlier\n" and
// returns the report; the run must exit 2 and leave that file untouched.
std::string rejected_run(std::vector<std::string> args) {
  const std::filesystem::path manifest =
      std::filesystem::temp_directory_path() /
      ("dmx_cli_unread_" + std::to_string(::getpid()) + ".json");
  std::ofstream(manifest) << "earlier\n";
  args.insert(args.end(), {"--emit-json", manifest.string()});
  std::ostringstream os;
  EXPECT_EQ(run_cli(parse_cli(args), os), 2) << os.str();
  std::ifstream in(manifest);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "earlier\n");
  in.close();
  std::filesystem::remove(manifest);
  EXPECT_EQ(os.str().rfind("invalid configuration:\n", 0), 0u) << os.str();
  return os.str();
}

TEST(Cli, LockServiceRejectsFlagsItNeverReads) {
  // dmx_sweep --algo raymond --resources 4 ...: the hot shards would run
  // arbiter-tp, so the flag is an error, not a silent no-op.
  EXPECT_NE(rejected_run({"--algo", "raymond", "--resources", "4", "--n", "4",
                          "--lambda", "2.0", "--requests", "200"})
                .find("  - --algo is not read by the lock-service run"),
            std::string::npos);
  const std::string out = rejected_run(
      {"--resources", "4", "--n", "4", "--lambda", "1,2,3", "--requests",
       "200", "--transport", "reliable", "--fault", "t=1 crash 1", "--loss",
       "PRIVILEGE=0.5", "--seeds", "5", "--delay", "uniform", "--jitter",
       "0.1", "--stall", "5", "--max-events", "1000"});
  for (const char* flag :
       {"--transport", "--fault", "--loss", "--seeds",
        "--lambda beyond its first rate", "--delay", "--jitter", "--stall",
        "--max-events"}) {
    EXPECT_NE(out.find(std::string("  - ") + flag + " is not read by"),
              std::string::npos)
        << flag << "\n"
        << out;
  }
}

TEST(Cli, SweepRejectsLockServiceFlags) {
  const std::string out = rejected_run(
      {"--n", "4", "--lambda", "1", "--requests", "200", "--seeds", "1",
       "--zipf-s", "3", "--batch", "2", "--shard-algo", "hot=raymond"});
  for (const char* flag : {"--zipf-s", "--shard-algo", "--batch"}) {
    EXPECT_NE(out.find(std::string("  - ") + flag +
                       " is read only by the lock-service run"),
              std::string::npos)
        << flag << "\n"
        << out;
  }
}

TEST(Cli, LockServiceRejectsNonPositiveTimes) {
  // The sweep demands positive message and CS times; so does the service.
  for (const auto& [flag, field] : {std::pair{"--t-msg", "t_msg"},
                                     std::pair{"--t-exec", "t_exec"}}) {
    EXPECT_NE(rejected_run({"--resources", "4", flag, "0"})
                  .find(std::string(field) + " must be > 0"),
              std::string::npos)
        << flag;
  }
}

TEST(Cli, RunCsvMode) {
  CliOptions o;
  o.lambdas = {0.5};
  o.cfg.total_requests = 500;
  o.seeds = 1;
  o.csv = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("lambda,msgs/cs"), std::string::npos);
}

}  // namespace
}  // namespace dmx::harness
