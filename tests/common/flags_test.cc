#include "wsq/common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wsq {
namespace {

/// argv for Parse: a program name followed by `args`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

struct Values {
  int runs = 3;
  int64_t seed = 7;
  double scale = 0.02;
  std::string controller = "hybrid";
  bool skip = false;
};

FlagTable TableFor(Values* v) {
  FlagTable table;
  table.Add("runs", &v->runs, "queries per lane")
      .Add("seed", &v->seed, "data seed")
      .Add("scale", &v->scale, "TPC-H scale")
      .Add("controller", &v->controller, "controller name")
      .Add("skip-live", &v->skip, "sim phase only");
  return table;
}

Status ParseInto(Values* v, std::vector<std::string> args) {
  FlagTable table = TableFor(v);
  Argv argv(std::move(args));
  return table.Parse(argv.argc(), argv.argv());
}

TEST(FlagTableTest, AcceptsBothFlagForms) {
  Values v;
  ASSERT_TRUE(ParseInto(&v, {"--runs=5", "--scale", "0.5", "--controller",
                             "fixed:100", "--seed=-9"})
                  .ok());
  EXPECT_EQ(v.runs, 5);
  EXPECT_EQ(v.scale, 0.5);
  EXPECT_EQ(v.controller, "fixed:100");
  EXPECT_EQ(v.seed, -9);
}

TEST(FlagTableTest, BooleansTakeNoSeparateValue) {
  Values v;
  ASSERT_TRUE(ParseInto(&v, {"--skip-live", "--runs=2"}).ok());
  EXPECT_TRUE(v.skip);
  EXPECT_EQ(v.runs, 2);
  ASSERT_TRUE(ParseInto(&v, {"--skip-live=false"}).ok());
  EXPECT_FALSE(v.skip);
  ASSERT_TRUE(ParseInto(&v, {"--skip-live=1"}).ok());
  EXPECT_TRUE(v.skip);
  EXPECT_FALSE(ParseInto(&v, {"--skip-live=maybe"}).ok());
}

TEST(FlagTableTest, MalformedNumbersAreErrorsNamingTheFlag) {
  for (const char* arg : {"--runs=abc", "--runs=3x", "--runs=", "--runs=1.5",
                          "--runs=99999999999", "--scale=fast",
                          "--scale=1e999"}) {
    Values v;
    const Status status = ParseInto(&v, {arg});
    ASSERT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    const std::string text = arg;
    const std::string name = text.substr(0, text.find('='));
    EXPECT_NE(status.message().find(name), std::string::npos)
        << status.message();
    EXPECT_EQ(v.runs, 3) << arg;
    EXPECT_EQ(v.scale, 0.02) << arg;
  }
}

TEST(FlagTableTest, UnknownFlagsAndStrayArgumentsAreErrors) {
  Values v;
  Status unknown = ParseInto(&v, {"--rusn=5"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("--rusn"), std::string::npos);
  EXPECT_FALSE(ParseInto(&v, {"positional"}).ok());
  EXPECT_FALSE(ParseInto(&v, {"--runs"}).ok());  // value missing
}

TEST(FlagTableTest, AbsentFlagsKeepTheirDefaults) {
  Values v;
  ASSERT_TRUE(ParseInto(&v, {}).ok());
  EXPECT_EQ(v.runs, 3);
  EXPECT_EQ(v.seed, 7);
  EXPECT_EQ(v.scale, 0.02);
  EXPECT_EQ(v.controller, "hybrid");
  EXPECT_FALSE(v.skip);
}

TEST(FlagTableTest, HelpIsUnderstoodAndTheUsageListsEveryFlag) {
  Values v;
  FlagTable table = TableFor(&v);
  Argv argv({"--help"});
  ASSERT_TRUE(table.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_TRUE(table.help_requested());
  const std::string usage = table.Usage("prog");
  for (const char* expected :
       {"--runs=N", "--seed=N", "--scale=F", "--controller=S", "--skip-live",
        "--help", "queries per lane", "(default 3)", "(default hybrid)"}) {
    EXPECT_NE(usage.find(expected), std::string::npos) << expected;
  }
}

}  // namespace
}  // namespace wsq
