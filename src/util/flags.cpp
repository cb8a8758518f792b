#include "util/flags.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/strings.hpp"

namespace sdf {

void Flags::define(std::string name, std::string default_value,
                   std::string help) {
  defs_[name] = Definition{std::move(default_value), std::move(help)};
}

void Flags::define_bool(std::string name, bool default_value,
                        std::string help) {
  defs_[name] = Definition{default_value ? "true" : "false", std::move(help),
                           Kind::kBool};
}

void Flags::define_int(std::string name, std::string default_value,
                       std::string help) {
  defs_[name] =
      Definition{std::move(default_value), std::move(help), Kind::kInt};
}

void Flags::define_count(std::string name, std::string default_value,
                         std::string help) {
  defs_[name] =
      Definition{std::move(default_value), std::move(help), Kind::kCount};
}

void Flags::define_double(std::string name, std::string default_value,
                          std::string help) {
  defs_[name] =
      Definition{std::move(default_value), std::move(help), Kind::kDouble};
}

bool Flags::valid(Kind kind, const std::string& value) {
  if (kind == Kind::kString || kind == Kind::kBool) return true;
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  if (kind == Kind::kDouble) {
    (void)std::strtod(begin, &end);
  } else {
    const long n = std::strtol(begin, &end, 10);
    if (kind == Kind::kCount && n < 0) return false;
  }
  return end != begin && *end == '\0' && errno == 0;
}

Status Flags::parse(const std::vector<std::string>& args) {
  values_.clear();
  positional_.clear();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }

    // --no-foo for booleans.
    if (!have_value && starts_with(name, "no-")) {
      const std::string positive = name.substr(3);
      const auto it = defs_.find(positive);
      if (it != defs_.end() && it->second.kind == Kind::kBool) {
        values_[positive] = "false";
        continue;
      }
    }

    const auto it = defs_.find(name);
    if (it == defs_.end()) return Error{"unknown flag --" + name};
    if (it->second.kind == Kind::kBool) {
      values_[name] = have_value ? value : "true";
      continue;
    }
    if (!have_value) {
      if (i + 1 >= args.size())
        return Error{"flag --" + name + " expects a value"};
      value = args[++i];
    }
    if (const Kind kind = it->second.kind; !valid(kind, value)) {
      const char* expects = kind == Kind::kInt     ? "an integer"
                            : kind == Kind::kCount ? "a non-negative integer"
                                                   : "a number";
      return Error{"flag --" + name + " expects " + expects + ", got '" +
                   value + "'"};
    }
    values_[name] = value;
  }
  return Status::Ok();
}

const std::string& Flags::get(const std::string& name) const {
  const auto v = values_.find(name);
  if (v != values_.end()) return v->second;
  const auto d = defs_.find(name);
  SDF_CHECK(d != defs_.end(), "undefined flag queried");
  return d->second.default_value;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string& v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

double Flags::get_double(const std::string& name) const {
  return std::strtod(get(name).c_str(), nullptr);
}

long Flags::get_int(const std::string& name) const {
  return std::strtol(get(name).c_str(), nullptr, 10);
}

std::string Flags::usage() const {
  std::string out;
  for (const auto& [name, def] : defs_) {
    out += "  --" + name + " (default: " + def.default_value + ")";
    if (!def.help.empty()) out += "  " + def.help;
    out += '\n';
  }
  return out;
}

}  // namespace sdf
