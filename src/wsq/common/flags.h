#ifndef WSQ_COMMON_FLAGS_H_
#define WSQ_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// A table of typed command-line flags (int, int64, double, string,
/// bool) with help text: the one flag parser of every wsq binary. Each
/// flag binds a variable that already holds its default; Parse
/// overwrites only the flags that appear.
///
/// Accepted forms: `--name=value`, and `--name value` for every flag but
/// a bool; a bool is `--name` (true) or `--name=true|false|1|0`. A
/// malformed or out-of-range number, a missing value, an unknown flag
/// and a positional argument are kInvalidArgument naming the argument.
/// `--help` is always understood.
///
///   int runs = 3;
///   FlagTable flags;
///   flags.Add("runs", &runs, "queries per lane");
///   ParseFlagsOrExit(flags, argc, argv);
class FlagTable {
 public:
  /// What a flag binds; the pointee's type is the flag's type.
  using Target = std::variant<int*, int64_t*, double*, std::string*, bool*>;

  /// Registers `--name`, bound to `target`, whose current value is shown
  /// as the default in the usage text.
  FlagTable& Add(std::string name, Target target, std::string help);

  Status Parse(int argc, char** argv);

  /// True when the last Parse saw --help.
  bool help_requested() const { return help_requested_; }

  /// One line per flag: its form, its help text and its default.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string name;
    Target target;
    std::string help;
    std::string default_text;
  };

  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

/// Parses `argv` for a command-line program. On --help prints the usage
/// to stdout and exits 0; on a bad command line prints the error and the
/// usage to stderr and exits 2.
void ParseFlagsOrExit(FlagTable& flags, int argc, char** argv);

}  // namespace wsq

#endif  // WSQ_COMMON_FLAGS_H_
