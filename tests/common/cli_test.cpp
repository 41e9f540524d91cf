#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace nbx {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, ProgramName) {
  const CliArgs args = parse({"nbxsim"});
  EXPECT_EQ(args.program(), "nbxsim");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, KeyValuePairs) {
  const CliArgs args = parse({"p", "--alu", "aluss", "--percent", "3.5"});
  EXPECT_TRUE(args.has("alu"));
  EXPECT_EQ(args.get("alu"), "aluss");
  EXPECT_DOUBLE_EQ(args.get_double("percent", 0.0), 3.5);
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(Cli, EqualsSyntax) {
  const CliArgs args = parse({"p", "--trials=7", "--name=x"});
  EXPECT_EQ(args.get_int("trials", 0), 7);
  EXPECT_EQ(args.get("name"), "x");
}

TEST(Cli, BareBooleanFlags) {
  const CliArgs args = parse({"p", "--sweep", "--alu", "aluns"});
  EXPECT_TRUE(args.has("sweep"));
  EXPECT_EQ(args.get("sweep"), "");
  EXPECT_EQ(args.get("alu"), "aluns");
}

TEST(Cli, TrailingBareFlag) {
  const CliArgs args = parse({"p", "--alu", "aluns", "--list"});
  EXPECT_TRUE(args.has("list"));
}

TEST(Cli, PositionalArguments) {
  const CliArgs args = parse({"p", "one", "--k", "v", "two"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, IntParsing) {
  const CliArgs args = parse({"p", "--n", "42", "--bad", "4x2", "--neg",
                              "-7", "--huge", "99999999999999999999"});
  EXPECT_EQ(args.get_int("n"), 42);
  EXPECT_FALSE(args.get_int("bad").has_value());
  EXPECT_FALSE(args.get_int("huge").has_value());  // no INT64_MAX clamp
  EXPECT_EQ(args.get_int("neg", 0), -7);
  EXPECT_FALSE(args.get_int("absent").has_value());
  EXPECT_EQ(args.get_int("absent", 9), 9);
}

TEST(Cli, DoubleParsing) {
  const CliArgs args = parse({"p", "--x", "0.05", "--bad", "z"});
  EXPECT_DOUBLE_EQ(args.get_double("x").value(), 0.05);
  EXPECT_FALSE(args.get_double("bad").has_value());
  EXPECT_DOUBLE_EQ(args.get_double("bad", 1.5), 1.5);
}

TEST(Cli, UnknownFlagDetection) {
  const CliArgs args = parse({"p", "--alu", "x", "--oops", "--sweep"});
  const auto unknown = args.unknown_flags({"alu", "sweep"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
  EXPECT_TRUE(args.unknown_flags({"alu", "sweep", "oops"}).empty());
}

TEST(Cli, UnknownFlagMessageNamesEveryOffender) {
  const CliArgs args = parse({"p", "--alu", "x", "--oops", "--worse", "y"});
  const std::string msg = args.unknown_flag_message({"alu"});
  EXPECT_NE(msg.find("unknown flag '--oops'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown flag '--worse'"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("--alu"), std::string::npos) << msg;
  EXPECT_TRUE(
      args.unknown_flag_message({"alu", "oops", "worse"}).empty());
}

TEST(Cli, InvalidNumberMessageNamesFlagAndValue) {
  const CliArgs args =
      parse({"p", "--n", "4x2", "--x", "zz", "--ok", "7"});
  const std::string int_msg = args.invalid_number_message("n");
  EXPECT_NE(int_msg.find("--n"), std::string::npos) << int_msg;
  EXPECT_NE(int_msg.find("4x2"), std::string::npos) << int_msg;
  const std::string dbl_msg = args.invalid_number_message("x", true);
  EXPECT_NE(dbl_msg.find("--x"), std::string::npos) << dbl_msg;
  EXPECT_NE(dbl_msg.find("zz"), std::string::npos) << dbl_msg;
  // Valid values and absent flags produce no message — absence is the
  // caller's fallback case, not an error.
  EXPECT_TRUE(args.invalid_number_message("ok").empty());
  EXPECT_TRUE(args.invalid_number_message("absent").empty());
}

}  // namespace
}  // namespace nbx
