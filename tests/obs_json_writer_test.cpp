// The shared JSON writer: escaping, number policy, comma placement — and
// round-trip agreement with jsonlite, the parser next door.
#include "obs/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "obs/jsonlite.hpp"

namespace {

using namespace cirrus::obs;

TEST(JsonEscape, Rfc8259) {
  EXPECT_EQ(jsonw::escape("plain"), "plain");
  EXPECT_EQ(jsonw::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonw::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonw::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(jsonw::escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(jsonw::quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  // The clean prefix is copied whole, then the walk starts at the first
  // special character, wherever it sits.
  EXPECT_EQ(jsonw::escape(""), "");
  EXPECT_EQ(jsonw::escape("\"start"), "\\\"start");
  EXPECT_EQ(jsonw::escape("mid\\dle"), "mid\\\\dle");
  EXPECT_EQ(jsonw::escape("end\n"), "end\\n");
  EXPECT_EQ(jsonw::escape(std::string("\x1f" "a\x00" "b\x7f", 5)), "\\u001fa\\u0000b\x7f");
  EXPECT_EQ(jsonw::escape("a\tb=c d\r"), "a\\tb=c d\\r");
  std::string appended = "kept:";
  jsonw::append_escaped(appended, "x\"y");
  EXPECT_EQ(appended, "kept:x\\\"y");
}

TEST(JsonNumber, ShortestRoundTrip) {
  EXPECT_EQ(jsonw::number(0), "0");
  EXPECT_EQ(jsonw::number(2.5), "2.5");
  EXPECT_EQ(jsonw::number(-3), "-3");
  EXPECT_EQ(jsonw::number(1e21), "1e+21");
  // The value must survive a strtod round trip even when 17 digits are
  // needed.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(jsonw::number(v).c_str(), nullptr), v);
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(jsonw::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(jsonw::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonw::number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, ObjectsArraysAndCommas) {
  jsonw::Writer w;
  w.begin_object();
  w.key("s").value("x");
  w.key("n").value(4);
  w.key("f").value(true);
  w.key("list").begin_array().value(1).value(2.5).null().end_array();
  w.key("nested").begin_object().key("deep").value("y").end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"s":"x","n":4,"f":true,"list":[1,2.5,null],"nested":{"deep":"y"}})");
}

TEST(JsonWriter, RawSplicesPreSerialisedJson) {
  jsonw::Writer w;
  w.begin_object().key("blob").raw(R"({"inner":1})").key("after").value(2).end_object();
  EXPECT_EQ(w.str(), R"({"blob":{"inner":1},"after":2})");
}

TEST(JsonWriter, RoundTripsThroughJsonlite) {
  jsonw::Writer w;
  w.begin_object();
  w.key("escaped").value("tab\there \"quoted\"");
  w.key("pi").value(3.141592653589793);
  w.key("rows").begin_array();
  for (int i = 0; i < 3; ++i) {
    w.begin_object().key("i").value(i).key("half").value(i / 2.0).end_object();
  }
  w.end_array();
  w.end_object();

  jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(jsonlite::parse(w.str(), doc, &error)) << error << "\n" << w.str();
  EXPECT_EQ(doc.find("escaped")->str, "tab\there \"quoted\"");
  EXPECT_EQ(doc.find("pi")->number, 3.141592653589793);
  EXPECT_EQ(doc.find("rows")->array.size(), 3U);
  EXPECT_EQ(doc.find("rows")->array[2].find("half")->number, 1.0);
}

}  // namespace
