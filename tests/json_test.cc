#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace owlqr {
namespace {

TEST(JsonWriterTest, NestedContainersAndSeparators) {
  JsonWriter w;
  w.BeginObject();
  w.KV("a", 1);
  w.Key("b");
  w.BeginArray();
  w.Int(1);
  w.String("two");
  w.Bool(false);
  w.Null();
  w.EndArray();
  w.Key("c");
  w.BeginObject();
  w.KV("d", true);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[1,\"two\",false,null],\"c\":{\"d\":true}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.KV("quote\"back\\slash", "line\nbreak\ttab\rret");
  w.KV("ctl", std::string("\x01", 1));
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\\rret\","
            "\"ctl\":\"\\u0001\"}");

  // The run-at-once encoder must match the per-character one it replaced,
  // byte for byte: every control byte, quote, backslash, DEL and UTF-8.
  auto per_character = [](std::string_view in) {
    std::string out = "\"";
    for (char c : in) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out + "\"";
  };
  std::vector<std::string> inputs = {"", "plain", "\"", "\\", "\x7f",
                                     "caf\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac",
                                     "\xf0\x9f\x98\x80 smile",
                                     "ab\"cd\\ef\x01gh\xc3\xa9\"\""};
  std::string all_controls;
  for (int b = 0; b < 0x20; ++b) {
    inputs.push_back(std::string(1, static_cast<char>(b)));
    inputs.push_back("x" + std::string(1, static_cast<char>(b)) + "y");
    all_controls.push_back(static_cast<char>(b));
  }
  inputs.push_back(all_controls);
  for (const std::string& in : inputs) {
    std::string out;
    AppendJsonString(&out, in);
    EXPECT_EQ(out, per_character(in)) << "input bytes: " << in.size();
  }
  std::string nul;
  AppendJsonString(&nul, std::string("a\0b\x1f", 4));
  EXPECT_EQ(nul, "\"a\\u0000b\\u001f\"");
}

TEST(JsonWriterTest, NonFiniteDoublesClampToZero) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.5);
  w.Double(0.0 / 0.0);  // NaN: JSON has no spelling for it.
  w.EndArray();
  EXPECT_EQ(w.str(), "[1.5,0]");
}

TEST(JsonWriterTest, RawSplicesAValue) {
  JsonWriter inner;
  inner.BeginObject();
  inner.KV("x", 1);
  inner.EndObject();
  JsonWriter w;
  w.BeginObject();
  w.KV("a", 0);
  w.Key("nested");
  w.Raw(inner.str());
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":0,\"nested\":{\"x\":1}}");
}

TEST(JsonWriterTest, OutputRoundTripsThroughTheParser) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "weird \"name\"\n");
  w.KV("count", 42);
  w.KV("ratio", 0.25);
  w.EndObject();
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &value, &error)) << error;
  EXPECT_EQ(value.Find("name")->AsString(), "weird \"name\"\n");
  EXPECT_EQ(value.Find("count")->AsLong(), 42);
  EXPECT_DOUBLE_EQ(value.Find("ratio")->AsDouble(), 0.25);
}

TEST(JsonParserTest, ParsesScalars) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("null", &v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(JsonValue::Parse("true", &v));
  EXPECT_TRUE(v.AsBool());
  ASSERT_TRUE(JsonValue::Parse("-12.5e2", &v));
  EXPECT_DOUBLE_EQ(v.AsDouble(), -1250.0);
  ASSERT_TRUE(JsonValue::Parse("\"hi\"", &v));
  EXPECT_EQ(v.AsString(), "hi");
}

TEST(JsonParserTest, ParsesEscapesIncludingSurrogatePairs) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(R"("a\"b\\c\/d\n\t\u0041")", &v));
  EXPECT_EQ(v.AsString(), "a\"b\\c/d\n\tA");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  ASSERT_TRUE(JsonValue::Parse(R"("\uD83D\uDE00")", &v));
  EXPECT_EQ(v.AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, ObjectAndArrayStructure) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(
      R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}})", &v, &error))
      << error;
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[1].AsLong(), 2);
  EXPECT_TRUE(a->items()[2].Find("b")->is_null());
  EXPECT_EQ(v.Find("c")->Find("d")->AsString(), "e");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInputs) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2",
      "{\"a\": }",
      "{\"a\" 1}",
      "{a: 1}",
      "[1,]x",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"\\uD83D\"",       // unpaired high surrogate
      "01x",
      "truex",
      "{} trailing",
      "nul",
      "\"raw \x01 control\"",
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParserTest, AcceptsTrailingWhitespaceOnly) {
  JsonValue v;
  EXPECT_TRUE(JsonValue::Parse("  { }  \n\t", &v));
  EXPECT_FALSE(JsonValue::Parse("{} {}", &v));
}

TEST(JsonParserTest, DepthCapStopsRunawayNesting) {
  std::string deep_ok, deep_bad;
  for (int i = 0; i < JsonValue::kMaxDepth; ++i) deep_ok += "[";
  deep_ok += "1";
  for (int i = 0; i < JsonValue::kMaxDepth; ++i) deep_ok += "]";
  for (int i = 0; i < JsonValue::kMaxDepth + 8; ++i) deep_bad += "[";
  deep_bad += "1";
  for (int i = 0; i < JsonValue::kMaxDepth + 8; ++i) deep_bad += "]";
  JsonValue v;
  EXPECT_TRUE(JsonValue::Parse(deep_ok, &v));
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep_bad, &v, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos);
}

TEST(JsonParserTest, DuplicateKeysKeepTheLastOccurrence) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(R"({"k": 1, "k": 2})", &v));
  EXPECT_EQ(v.Find("k")->AsLong(), 2);
  EXPECT_EQ(v.size(), 1u);
}

// AsLong/ToLong accept only numbers that are exactly a long: a cast of
// 1e30 would be undefined, and 2.5 or 2^63 would silently change value.
TEST(JsonParserTest, NumbersThatAreNotExactLongsFallBack) {
  JsonValue v;
  long out = 0;
  for (const char* text : {"1e30", "-1e30", "2.5", "9223372036854775807"}) {
    ASSERT_TRUE(JsonValue::Parse(text, &v)) << text;
    EXPECT_FALSE(v.ToLong(&out)) << text;
    EXPECT_EQ(v.AsLong(7), 7) << text;
  }
  ASSERT_TRUE(JsonValue::Parse("-9223372036854775808", &v));
  ASSERT_TRUE(v.ToLong(&out));
  EXPECT_EQ(out, std::numeric_limits<long>::min());
  ASSERT_TRUE(JsonValue::Parse("4294967297", &v));
  EXPECT_EQ(v.AsLong(), 4294967297L);
}

TEST(JsonParserTest, TypedAccessorsFallBackOnWrongType) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("\"not a number\"", &v));
  EXPECT_EQ(v.AsLong(7), 7);
  EXPECT_FALSE(v.AsBool(false));
  ASSERT_TRUE(JsonValue::Parse("3", &v));
  EXPECT_EQ(v.AsString(), "");
}

}  // namespace
}  // namespace owlqr
