// dmx_sweep: command-line sweep driver for the mutual exclusion simulator.
//
// Examples:
//   dmx_sweep --list
//   dmx_sweep --algo arbiter-tp --lambda 0.01,0.1,0.5,2 --requests 200000
//   dmx_sweep --algo arbiter-tp --param t_req=0.2 --param recovery=1
//             --loss PRIVILEGE=0.01 --csv
#include <iostream>
#include <stdexcept>
#include <vector>

#include "harness/cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  dmx::harness::CliOptions opts;
  try {
    opts = dmx::harness::parse_cli(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "dmx_sweep: " << e.what() << "\n\n"
              << dmx::harness::cli_usage();
    return 2;
  }
  try {
    return dmx::harness::run_cli(opts, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "dmx_sweep: " << e.what() << "\n";
    return 2;
  }
}
