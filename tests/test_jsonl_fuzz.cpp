// Hardening fuzz for the JSONL codec behind --serve (PR 8): truncated
// objects, duplicate keys, huge and non-finite numerics, embedded NULs,
// trailing garbage, random byte soup — every malformed line must yield a
// one-line error (never a crash, never a misparse), every valid line must
// round-trip, and parse_pair_list (the weight-delta wire encoding) must
// reject every malformed pair without appending anything.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "service/jsonl.hpp"
#include "util/prng.hpp"

namespace mmd::jsonl {
namespace {

bool parses(const std::string& line) {
  Object o;
  std::string error;
  return parse_object(line, o, error);
}

TEST(JsonlFuzz, EveryTruncationOfAValidLineFailsCleanly) {
  const std::string line =
      R"({"op":"repartition","graph":"g0","k":8,"deltas":"0:2.5 17:0.75",)"
      R"("warm":true,"x":-1.25e3,"nil":null})";
  ASSERT_TRUE(parses(line));
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    Object o;
    std::string error;
    EXPECT_FALSE(parse_object(line.substr(0, cut), o, error))
        << "prefix of length " << cut << " parsed";
    EXPECT_FALSE(error.empty()) << "prefix of length " << cut;
  }
}

TEST(JsonlFuzz, DuplicateKeysLaterWins) {
  Object o;
  std::string error;
  ASSERT_TRUE(parse_object(R"({"k":2,"k":8,"k":16})", o, error)) << error;
  ASSERT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o["k"].number, 16.0);

  ASSERT_TRUE(parse_object(R"({"m":"fast","m":"repartition"})", o, error));
  EXPECT_EQ(o["m"].string, "repartition");
}

TEST(JsonlFuzz, HugeAndNonFiniteNumericsAreRejected) {
  // from_chars happily produces inf for 1e999 and accepts inf/nan
  // spellings; none of them are JSON, and letting one through would put a
  // non-finite weight on the wire.
  for (const char* bad :
       {R"({"x":1e999})", R"({"x":-1e999})", R"({"x":1e99999})",
        R"({"x":inf})", R"({"x":-inf})", R"({"x":nan})",
        R"({"x":infinity})", R"({"x":nan(ind)})"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
  // The extremes of the representable range stay legal.
  Object o;
  std::string error;
  ASSERT_TRUE(parse_object(R"({"x":1.7976931348623157e308,"y":5e-324})", o,
                           error))
      << error;
  EXPECT_TRUE(std::isfinite(o["x"].number));
  EXPECT_GT(o["y"].number, 0.0);
}

TEST(JsonlFuzz, IntegerAccessorRejectsFractionsAndOutOfRange) {
  // Integer fields are never truncated or cast out of range: 3.7 used to
  // serve as k = 3, and 1e20 is an undefined float-to-int conversion.
  Object o;
  std::string error;
  ASSERT_TRUE(parse_object(
      R"({"a":3,"b":3.0,"c":-2,"d":3.7,"e":1e20,"f":"3","g":-1e20})", o,
      error))
      << error;
  auto get = [&](const char* key) {
    error.clear();
    return get_integer(o, key, 7, -100, 100, error);
  };
  EXPECT_EQ(get("a"), 3);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(get("b"), 3);  // integral spelled as a double
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(get("c"), -2);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(get("absent"), 7);
  EXPECT_TRUE(error.empty());
  for (const char* bad : {"d", "e", "f", "g"}) {
    EXPECT_EQ(get(bad), 7) << bad;
    EXPECT_NE(error.find(bad), std::string::npos) << bad << ": " << error;
  }
}

TEST(JsonlFuzz, EmbeddedNulBytes) {
  // A raw NUL byte is a control character: rejected, not truncated-at.
  std::string raw = R"({"a":"x)";
  raw.push_back('\0');
  raw += R"(y"})";
  EXPECT_FALSE(parses(raw));

  // The escaped form decodes to a real NUL inside the value...
  Object o;
  std::string error;
  ASSERT_TRUE(parse_object(R"({"a":"x\u0000y"})", o, error)) << error;
  ASSERT_EQ(o["a"].string.size(), 3u);
  EXPECT_EQ(o["a"].string[1], '\0');

  // ...and the writer escapes it right back.
  Writer w;
  w.add("a", o["a"].string);
  Object back;
  ASSERT_TRUE(parse_object(w.str(), back, error)) << error;
  EXPECT_EQ(back["a"].string, o["a"].string);
}

TEST(JsonlFuzz, TrailingGarbageAndNestingAreRejected) {
  for (const char* bad :
       {R"({"a":1} extra)", R"({"a":1}{"b":2})", R"({"a":1},)",
        R"({"a":{"b":1}})", R"({"a":[1,2]})", R"([1,2,3])", R"("bare")",
        "42", "true", "", "   ", "{", R"({"a")", R"({"a":})",
        R"({"a":1,)", R"({"a" 1})", R"({'a':1})", R"({"a":tru})",
        R"({"a":nul})", R"({"a":+})", R"({"a":"\q"})", R"({"a":"\u12"})",
        R"({"a":"\u12zq"})"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(JsonlFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(0x1e57);
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = static_cast<int>(rng.next_below(64));
    std::string line;
    for (int i = 0; i < len; ++i) {
      // Bias toward structural characters so some lines get deep into
      // the parser instead of failing at byte 0.
      static const char structural[] = "{}\":,.0123456789e+-\\ \tu"
                                       "truefalsnl";
      if (rng.next_below(4) == 0)
        line.push_back(static_cast<char>(rng.next_below(256)));
      else
        line.push_back(
            structural[rng.next_below(sizeof(structural) - 1)]);
    }
    Object o;
    std::string error;
    (void)parse_object(line, o, error);  // must not crash or hang
  }
}

TEST(JsonlFuzz, MutatedValidLinesNeverCrash) {
  const std::string base =
      R"({"op":"repartition","graph":"g","k":8,"deltas":"0:2.5 7:1","t":true})";
  Rng rng(0xa17a);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string line = base;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = rng.next_below(line.size());
      line[pos] = static_cast<char>(rng.next_below(256));
    }
    Object o;
    std::string error;
    if (parse_object(line, o, error)) {
      // A mutation that still parses must have produced sane values
      // (finite numbers only — the non-finite gate above).
      for (const auto& [key, value] : o) {
        if (value.kind == Value::Kind::Number) {
          EXPECT_TRUE(std::isfinite(value.number)) << line;
        }
      }
    } else {
      EXPECT_FALSE(error.empty()) << line;
    }
  }
}

// ---- parse_pair_list: the weight-delta wire encoding -----------------------

TEST(JsonlFuzz, PairListParsesValidLists) {
  std::vector<std::pair<long, double>> out;
  std::string error;

  ASSERT_TRUE(parse_pair_list("0:2.5 17:0.75", out, error)) << error;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 0);
  EXPECT_DOUBLE_EQ(out[0].second, 2.5);
  EXPECT_EQ(out[1].first, 17);
  EXPECT_DOUBLE_EQ(out[1].second, 0.75);

  // Appending semantics, whitespace tolerance, duplicate indices kept in
  // order (later-wins is the applier's contract, the list preserves it).
  ASSERT_TRUE(parse_pair_list("  3:1e2\t3:0  \n", out, error)) << error;
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[2].first, 3);
  EXPECT_DOUBLE_EQ(out[2].second, 100.0);
  EXPECT_DOUBLE_EQ(out[3].second, 0.0);

  // Empty and whitespace-only are valid empty lists.
  out.clear();
  EXPECT_TRUE(parse_pair_list("", out, error));
  EXPECT_TRUE(parse_pair_list("   \t\n", out, error));
  EXPECT_TRUE(out.empty());
}

TEST(JsonlFuzz, PairListRejectsMalformedPairsAppendingNothing) {
  for (const char* bad :
       {"x", "1", "1:", ":5", "-1:2", "1:-2", "1:inf", "1:nan", "1:1e999",
        "1:2x", "1:2:3", "1.5:2", "0:1 zz", "0:1 2:", "0:1 -3:4",
        "99999999999999999999:1", "2147483648:1", "4294967296:1"}) {
    std::vector<std::pair<long, double>> out{{7, 7.0}};
    std::string error;
    EXPECT_FALSE(parse_pair_list(bad, out, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    // Failure appends nothing — the sentinel is untouched.
    ASSERT_EQ(out.size(), 1u) << bad;
    EXPECT_EQ(out[0].first, 7);
  }
}

TEST(JsonlFuzz, PairListRandomSoupNeverCrashes) {
  Rng rng(0xde17a5);
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = static_cast<int>(rng.next_below(32));
    std::string s;
    for (int i = 0; i < len; ++i) {
      static const char chars[] = "0123456789:. e+-\t\n";
      if (rng.next_below(8) == 0)
        s.push_back(static_cast<char>(rng.next_below(256)));
      else
        s.push_back(chars[rng.next_below(sizeof(chars) - 1)]);
    }
    std::vector<std::pair<long, double>> out;
    std::string error;
    if (parse_pair_list(s, out, error)) {
      for (const auto& [idx, val] : out) {
        EXPECT_GE(idx, 0) << s;
        EXPECT_LE(idx, 2147483647L) << s;
        EXPECT_TRUE(std::isfinite(val) && val >= 0.0) << s;
      }
    } else {
      EXPECT_TRUE(out.empty()) << s;
      EXPECT_FALSE(error.empty()) << s;
    }
  }
}

TEST(JsonlFuzz, WriterRoundTripsHostileStrings) {
  Rng rng(0x77a11);
  for (int iter = 0; iter < 500; ++iter) {
    std::string hostile;
    const int len = static_cast<int>(rng.next_below(24));
    for (int i = 0; i < len; ++i)
      hostile.push_back(static_cast<char>(rng.next_below(128)));
    Writer w;
    w.add("s", hostile).add("n", 1.5).add("b", true);
    Object o;
    std::string error;
    ASSERT_TRUE(parse_object(w.str(), o, error))
        << error << " for: " << w.str();
    EXPECT_EQ(o["s"].string, hostile);
  }
}

}  // namespace
}  // namespace mmd::jsonl
