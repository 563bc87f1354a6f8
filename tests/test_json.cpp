#include "json/json.hpp"

#include <gtest/gtest.h>

namespace gptc::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(42).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());
  EXPECT_TRUE(Json(42).is_number());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(42).as_double(), 42.0);
  EXPECT_EQ(Json(4.0).as_int(), 4);  // integral double converts
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(Json("x").as_int(), JsonError);
  EXPECT_THROW(Json(1).as_string(), JsonError);
  EXPECT_THROW(Json(1.5).as_int(), JsonError);  // non-integral double
  EXPECT_THROW(Json("x").as_array(), JsonError);
  EXPECT_THROW(Json(1).as_object(), JsonError);
  EXPECT_THROW(Json(1).as_bool(), JsonError);
}

TEST(JsonValue, ObjectAccess) {
  Json j;
  j["a"] = 1;  // null auto-converts to object
  j["b"]["c"] = "deep";
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").at("c").as_string(), "deep");
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zz"));
  EXPECT_THROW(j.at("zz"), JsonError);
  EXPECT_EQ(j.get_or("zz", Json(7)).as_int(), 7);
  EXPECT_EQ(j.get_or("a", Json(7)).as_int(), 1);
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonValue, ArrayAccess) {
  Json j;
  j.push_back(1);  // null auto-converts to array
  j.push_back("two");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(std::size_t{1}).as_string(), "two");
  EXPECT_THROW(j.at(std::size_t{5}), JsonError);
}

TEST(JsonValue, NumericCrossTypeEquality) {
  EXPECT_TRUE(Json(1) == Json(1.0));
  EXPECT_FALSE(Json(1) == Json(1.5));
  EXPECT_TRUE(Json(2) == Json(2));
  EXPECT_FALSE(Json(1) == Json("1"));
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_TRUE(Json::parse("-17").is_int());
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_TRUE(Json::parse("2.5e3").is_double());
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, NestedStructure) {
  const Json j = Json::parse(R"({
    "name": "pdgeqrf",
    "tasks": [{"m": 10000, "n": 10000}],
    "ok": true,
    "ratio": 0.25
  })");
  EXPECT_EQ(j.at("name").as_string(), "pdgeqrf");
  EXPECT_EQ(j.at("tasks").at(std::size_t{0}).at("m").as_int(), 10000);
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(j.at("ratio").as_double(), 0.25);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  // Surrogate pair: U+1F600 (emoji) -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  // 2- and 3-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xE2\x82\xAC");
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);       // trailing junk
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("troo"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("\"\\uD800x\""), JsonError);  // unpaired surrogate
  EXPECT_THROW(Json::parse("1."), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
}

TEST(JsonParse, ErrorMessagesCarryPosition) {
  try {
    Json::parse("{\n  \"a\": troo\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3},"empty_arr":[],"empty_obj":{}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
  EXPECT_EQ(j.dump(), text);  // keys already sorted in input
}

TEST(JsonDump, PrettyPrintRoundTrip) {
  const Json j = Json::parse(R"({"a": [1, {"b": 2}], "c": "d"})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), j);
}

TEST(JsonDump, DoublesStayDoubles) {
  const Json j = Json::parse("[1.0, 2, 0.5]");
  const Json round = Json::parse(j.dump());
  EXPECT_TRUE(round.at(std::size_t{0}).is_double());
  EXPECT_TRUE(round.at(std::size_t{1}).is_int());
  EXPECT_TRUE(round.at(std::size_t{2}).is_double());
}

TEST(JsonDump, ControlCharactersEscaped) {
  Json j(std::string("a\x01" "b"));
  EXPECT_EQ(j.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonParse, LargeIntegersPreserved) {
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  // Beyond int64: falls back to double instead of failing.
  EXPECT_TRUE(Json::parse("99999999999999999999999").is_double());
}

TEST(JsonParse, DeeplyNested) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 100; ++i) text += "]";
  Json j = Json::parse(text);
  for (int i = 0; i < 100; ++i) j = j.at(std::size_t{0});
  EXPECT_EQ(j.as_int(), 1);
}

TEST(JsonParse, NestingPastTheCapThrowsInsteadOfOverflowingTheStack) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + "1" + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(arrays(Json::kMaxDepth + 1)), JsonError);
  // Objects count toward the same limit.
  std::string objects;
  for (std::size_t i = 0; i <= Json::kMaxDepth; ++i) objects += R"({"a":)";
  objects += "1" + std::string(Json::kMaxDepth + 1, '}');
  EXPECT_THROW(Json::parse(objects), JsonError);
  // Hostile input: one stack frame per '[' would overflow long before the
  // parser ever reached the missing closers.
  EXPECT_THROW(Json::parse(std::string(200000, '[')), JsonError);
  // A caller that trusts its text may lift the limit.
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth + 1), Json::kMaxDepth + 1));
}

TEST(JsonParse, WhitespaceTolerance) {
  const Json j = Json::parse("  \t\r\n { \"a\" : [ 1 , 2 ] } \n ");
  EXPECT_EQ(j.at("a").size(), 2u);
}

}  // namespace
}  // namespace gptc::json
