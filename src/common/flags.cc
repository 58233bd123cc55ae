#include "common/flags.h"

#include <cstdlib>

#include "common/thread_pool.h"

namespace sketchml::common {

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parser.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a flag");
    }
    const size_t eq = body.find('=');
    if (eq == std::string::npos) {
      // A bare `--name` is boolean true; it never takes the next token,
      // which stays positional.
      parser.values_[body] = "true";
      continue;
    }
    const std::string name = body.substr(0, eq);
    if (name.empty()) {
      return Status::InvalidArgument("flag with empty name: " + arg);
    }
    parser.values_[name] = body.substr(eq + 1);
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  read_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& name,
                                   int64_t default_value) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not an integer: " + it->second);
  }
  return static_cast<int64_t>(v);
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double default_value) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not a number: " + it->second);
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  read_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Result<int> GetThreadsFlag(const FlagParser& flags) {
  SKETCHML_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0 (0 = auto)");
  }
  if (threads == 0) return ThreadPool::DefaultThreadCount();
  return static_cast<int>(threads);
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : values_) {
    if (!read_.count(name)) unused.push_back(name);
  }
  return unused;
}

}  // namespace sketchml::common
