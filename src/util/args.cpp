#include "src/util/args.hpp"

#include <algorithm>
#include <stdexcept>

namespace ooctree::util {

Args Args::parse(int argc, const char* const* argv, const std::vector<std::string>& accepted) {
  Args out;
  if (argc > 0) out.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      out.positional_.push_back(tok);
      continue;
    }
    const auto eq = tok.find('=');
    const std::string name = tok.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      std::string names;
      for (const std::string& a : accepted) names += (names.empty() ? "--" : ", --") + a;
      throw std::runtime_error("unknown option --" + name + " (accepted: " + names + ")");
    }
    if (eq != std::string::npos) {
      out.options_[name] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      out.options_[name] = argv[++i];
    } else {
      out.options_[name] = "";  // boolean flag
    }
  }
  return out;
}

std::string Args::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + " expects an integer, got '" + it->second + "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + " expects a number, got '" + it->second + "'");
  }
}

}  // namespace ooctree::util
