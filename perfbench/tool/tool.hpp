// perfbench_tool: the benchmark's compiled half (see ../README.md).
//
//   gen     seed → platform.json + events.jsonl for one workload, through
//           scenario::generate_trace (the daemon only ever sees these).
//   drive   replays a request plan against mfallocd over one keep-alive
//           connection, on a schedule (open loop) or back to back
//           (closed loop), and records due/sent/received times and every
//           response body.
//   replay  the traced run: the same events in-process through the
//           public calls the daemon composes, with spans kept in memory
//           and written out at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// `--key value` command-line pairs.
class Args {
 public:
  Args(int argc, char** argv);
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const;
  /// Required string; exits with a usage error when absent.
  [[nodiscard]] std::string need(const std::string& key) const;
  [[nodiscard]] std::int64_t num(const std::string& key,
                                 std::int64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

int run_gen(const Args& args);
int run_drive(const Args& args);
int run_replay(const Args& args);

}  // namespace perfbench
