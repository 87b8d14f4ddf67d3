#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tool.hpp"

namespace perfbench {

Args::Args(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_tool: expected --key value, got '%s'\n",
                   argv[i]);
      std::exit(2);
    }
    values_[argv[i] + 2] = argv[i + 1];
    ++i;
  }
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Args::need(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench_tool: --%s is required\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::int64_t Args::num(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "perfbench_tool: --%s wants an integer\n",
                 key.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_tool gen|drive|replay --key value ...\n",
               stderr);
    return 2;
  }
  const std::string command = argv[1];
  const perfbench::Args args(argc - 2, argv + 2);
  if (command == "gen") return perfbench::run_gen(args);
  if (command == "drive") return perfbench::run_drive(args);
  if (command == "replay") return perfbench::run_replay(args);
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n",
               command.c_str());
  return 2;
}
