#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>

namespace nbx {

CliArgs::CliArgs(int argc, const char* const* argv)
    : CliArgs(argc, argv, {}) {}

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& boolean_flags) {
  if (argc > 0) {
    program_ = argv[0];
  }
  const auto is_boolean = [&](const std::string& name) {
    for (const std::string& b : boolean_flags) {
      if (b == name) {
        return true;
      }
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; bare
    // boolean otherwise. Declared boolean flags never take a value.
    if (!is_boolean(body) && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::optional<std::int64_t> CliArgs::get_int(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  // Out-of-range text is unparsable, not silently clamped to INT64_MAX.
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  return get_int(name).value_or(fallback);
}

std::optional<double> CliArgs::get_double(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return std::nullopt;
  }
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  return get_double(name).value_or(fallback);
}

std::vector<std::string> CliArgs::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      out.push_back(name);
    }
  }
  return out;
}

std::string CliArgs::unknown_flag_message(
    const std::vector<std::string>& known) const {
  std::string out;
  for (const std::string& f : unknown_flags(known)) {
    if (!out.empty()) {
      out += "; ";
    }
    out += "unknown flag '--" + f + "'";
  }
  return out;
}

std::string CliArgs::invalid_number_message(const std::string& name,
                                            bool as_double) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return {};
  }
  const bool ok =
      as_double ? get_double(name).has_value() : get_int(name).has_value();
  if (ok) {
    return {};
  }
  return "invalid value for --" + name + ": '" + it->second + "'";
}

}  // namespace nbx
