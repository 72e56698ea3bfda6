/** @file Tests for the strict JSON reader (src/obs/json_reader). */

#include <gtest/gtest.h>

#include <string>

#include "obs/json_reader.hh"
#include "sim/logging.hh"

using namespace proteus;

TEST(JsonReader, AcceptsWellFormedDocuments)
{
    for (const char *text :
         {"{}", "[]", "0", "-1.5e+3", "\"a\\u00e9\\n\"", "null",
          " {\"a\": [1, 2, {\"b\": true}], \"c\": false} \n"}) {
        EXPECT_NO_THROW(obs::parseJson(text)) << text;
    }
    const obs::JsonValue v = obs::parseJson("{\"k\": [3, \"x\"]}");
    EXPECT_EQ(v.at("k").array[0].asU64(), 3u);
    EXPECT_EQ(v.at("k").array[1].asString(), "x");
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    for (const char *text : {
             "[1, 2,]",             // trailing comma in an array
             "{\"a\": 1,}",         // trailing comma in an object
             "NaN",                 // bare non-finite literals
             "Infinity",
             "-Infinity",
             "[1, NaN]",
             "\"unterminated",      // unterminated string
             "{\"a\": \"b}",
             "\"bad \\q escape\"",  // unknown escape
             "\"\\u12g4\"",         // bad hex digit
             "\"\\u12\"",           // truncated \u escape
             "\"raw\ttab\"",        // raw control character
             "{} x",                // trailing garbage
             "[1] [2]",
             "",                    // empty document
             "tru",                 // bad literal
             "1.",                  // dangling decimal point
         }) {
        EXPECT_THROW(obs::parseJson(text), FatalError) << text;
    }
}
