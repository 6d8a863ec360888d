#include "wsq/common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace wsq {

namespace {

Status BadValue(const std::string& name, const std::string& value,
                const std::string& expected) {
  return Status::InvalidArgument("--" + name + "=" + value + ": expected " +
                                 expected);
}

Status ParseInt(const std::string& name, const std::string& text,
                int64_t lo, int64_t hi, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') return BadValue(name, text, "an integer");
  if (errno == ERANGE || value < lo || value > hi) {
    return BadValue(name, text,
                    "an integer in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
  }
  *out = value;
  return Status::Ok();
}

/// Parses a flag's text into the variable it binds.
struct Assign {
  const std::string& name;
  const std::string& value;

  Status operator()(int* out) const {
    int64_t parsed = 0;
    WSQ_RETURN_IF_ERROR(ParseInt(name, value, std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max(), &parsed));
    *out = static_cast<int>(parsed);
    return Status::Ok();
  }
  Status operator()(int64_t* out) const {
    return ParseInt(name, value, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), out);
  }
  Status operator()(double* out) const {
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0') return BadValue(name, value, "a number");
    if (errno == ERANGE) return BadValue(name, value, "a number in range");
    *out = parsed;
    return Status::Ok();
  }
  Status operator()(std::string* out) const {
    *out = value;
    return Status::Ok();
  }
  Status operator()(bool* out) const {
    if (value != "true" && value != "1" && value != "false" && value != "0") {
      return BadValue(name, value, "true or false");
    }
    *out = value == "true" || value == "1";
    return Status::Ok();
  }
};

/// A bound variable's value as the usage text shows it ("" = omit).
struct FormatValue {
  std::string operator()(const int* v) const { return std::to_string(*v); }
  std::string operator()(const int64_t* v) const {
    return std::to_string(*v);
  }
  std::string operator()(const double* v) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *v);
    return buf;
  }
  std::string operator()(const std::string* v) const { return *v; }
  std::string operator()(const bool* v) const { return *v ? "true" : ""; }
};

/// The `--name=KIND` column of the usage text.
std::string Form(const std::string& name, size_t kind) {
  static constexpr const char* kKinds[] = {"=N", "=N", "=F", "=S", ""};
  return "--" + name + kKinds[kind];
}

}  // namespace

FlagTable& FlagTable::Add(std::string name, Target target, std::string help) {
  std::string default_text = std::visit(FormatValue{}, target);
  flags_.push_back(
      {std::move(name), target, std::move(help), std::move(default_text)});
  return *this;
}

Status FlagTable::Parse(int argc, char** argv) {
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);  // npos: to the end
    if (name == "help" && eq == std::string::npos) {
      help_requested_ = true;
      continue;
    }
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&name](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (std::holds_alternative<bool*>(flag->target)) {
      value = "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument("flag --" + name + " needs a value");
    }
    WSQ_RETURN_IF_ERROR(std::visit(Assign{name, value}, flag->target));
  }
  return Status::Ok();
}

std::string FlagTable::Usage(const std::string& program) const {
  size_t width = std::string("--help").size();
  for (const Flag& flag : flags_) {
    width = std::max(width, Form(flag.name, flag.target.index()).size());
  }
  const auto row = [width](std::string form, const std::string& text) {
    form.resize(width + 2, ' ');
    return "  " + form + text + "\n";
  };
  std::string out = "usage: " + program + " [flags]\n";
  for (const Flag& flag : flags_) {
    std::string text = flag.help;
    if (!flag.default_text.empty()) {
      text += " (default " + flag.default_text + ")";
    }
    out += row(Form(flag.name, flag.target.index()), text);
  }
  return out + row("--help", "print this text");
}

void ParseFlagsOrExit(FlagTable& flags, int argc, char** argv) {
  const std::string program = argc > 0 ? argv[0] : "wsq";
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", program.c_str(),
                 status.message().c_str(), flags.Usage(program).c_str());
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage(program).c_str(), stdout);
    std::exit(0);
  }
}

}  // namespace wsq
