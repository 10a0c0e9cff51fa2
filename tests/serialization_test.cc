#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/random.h"
#include "pc/bound_solver.h"
#include "pc/serialization.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"

namespace pcx {
namespace {

PredicateConstraintSet SampleSet() {
  PredicateConstraintSet pcs;
  {
    Predicate pred(2);
    pred.AddInterval(0, Interval{0.0, 24.0, false, true});
    Box values(2);
    values.Constrain(1, Interval::Closed(0.99, 129.99));
    pcs.Add(PredicateConstraint(pred, values, {50, 100}));
  }
  {
    Predicate pred(2);  // TRUE
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 149.99));
    pcs.Add(PredicateConstraint(pred, values, {0, 1200}));
  }
  return pcs;
}

TEST(IntervalSerializationTest, RoundTrip) {
  for (const Interval& iv :
       {Interval::Closed(0.0, 5.0), Interval{0.0, 5.0, true, true},
        Interval{-3.5, 7.25, false, true}, Interval::AtLeast(2.0),
        Interval::LessThan(-1.0), Interval::Point(42.0)}) {
    const auto parsed = ParseInterval(SerializeInterval(iv));
    ASSERT_TRUE(parsed.ok()) << SerializeInterval(iv);
    EXPECT_TRUE(*parsed == iv) << SerializeInterval(iv);
  }
}

TEST(IntervalSerializationTest, ParsesInfinity) {
  auto iv = ParseInterval("[-inf, 3)");
  ASSERT_TRUE(iv.ok());
  EXPECT_EQ(iv->lo, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(iv->hi, 3.0);
  EXPECT_TRUE(iv->hi_strict);
}

TEST(IntervalSerializationTest, RejectsMalformed) {
  EXPECT_FALSE(ParseInterval("0, 5").ok());
  EXPECT_FALSE(ParseInterval("[5, 0]").ok());     // inverted
  EXPECT_FALSE(ParseInterval("[a, b]").ok());
  EXPECT_FALSE(ParseInterval("[1]").ok());
}

TEST(IntervalSerializationTest, RejectsNaN) {
  for (const char* nan : {"nan", "NaN", "-nan"}) {
    const StatusOr<double> v = ParseNumber(nan);
    ASSERT_FALSE(v.ok()) << nan;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << nan;
    EXPECT_FALSE(ParseInterval(std::string("[") + nan + ",5]").ok()) << nan;
    EXPECT_FALSE(ParseInterval(std::string("[0,") + nan + "]").ok()) << nan;
  }
  const auto pc =
      ParsePcBody("pred={0:[0,5]} values={1:[0,1]} freq=[0,nan]", 2);
  ASSERT_FALSE(pc.ok());
  EXPECT_EQ(pc.status().code(), StatusCode::kInvalidArgument);
}

// ParseNumber takes a from_chars fast path; on every edge token it must
// accept exactly what strtod accepts whole (NaN aside), with the same
// bits, and reject the rest with the same text.
TEST(NumberParsingTest, MatchesStrtodOnEdgeTokens) {
  const char* const kTokens[] = {
      "0", "-0", "+0", "1.5", "+1.5", "-1.5", ".5", "5.", "1e5", "1E+5",
      "1e-5", "0.1", "10.3", "48.677978003003211", "1.7976931348623157e308",
      "1e308", "1e309", "-1e309", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "4.9e-324", "1e-400", "-1e-400",
      "123456789012345678901234567890", "0x1p3", "0X1.8P1", "-0x10",
      "inf", "+inf", "-inf", "INF", "Infinity", "-infinity", "nan", "-nan",
      "NaN", "nan(123)", "", "-", "+", ".", "e5", "1e", "1e+", "--1",
      "1,5", "1_000", " 5", "5 ", "\t5", "0b101", "1.2.3"};
  for (const char* token : kTokens) {
    const std::string s = token;
    char* end = nullptr;
    const double want = std::strtod(s.c_str(), &end);
    const bool whole = end != s.c_str() && *end == '\0';
    const StatusOr<double> got = ParseNumber(s);
    if (!whole) {
      ASSERT_FALSE(got.ok()) << "'" << s << "'";
      EXPECT_EQ(got.status().message(), "bad number '" + s + "'");
    } else if (std::isnan(want)) {
      ASSERT_FALSE(got.ok()) << "'" << s << "'";
      EXPECT_EQ(got.status().message(),
                "NaN is not a valid number '" + s + "'");
    } else {
      ASSERT_TRUE(got.ok()) << "'" << s << "': " << got.status();
      EXPECT_EQ(std::memcmp(&*got, &want, sizeof(double)), 0)
          << "'" << s << "' parsed " << *got << ", strtod " << want;
    }
  }
}

TEST(PcSetSerializationTest, RoundTripPreservesSemantics) {
  const PredicateConstraintSet original = SampleSet();
  const std::string text = SerializePcSet(original);
  const auto parsed = ParsePcSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(parsed->at(i).predicate().box() ==
                original.at(i).predicate().box());
    EXPECT_TRUE(parsed->at(i).values() == original.at(i).values());
    EXPECT_EQ(parsed->at(i).frequency().lo, original.at(i).frequency().lo);
    EXPECT_EQ(parsed->at(i).frequency().hi, original.at(i).frequency().hi);
  }
}

TEST(PcSetSerializationTest, RoundTripPreservesBounds) {
  // Ultimate check: the deserialized set produces identical result
  // ranges.
  const PredicateConstraintSet original = SampleSet();
  const auto parsed = ParsePcSet(SerializePcSet(original));
  ASSERT_TRUE(parsed.ok());
  PcBoundSolver a(original), b(*parsed);
  for (const AggQuery& q : {AggQuery::Sum(1), AggQuery::Count()}) {
    const auto ra = a.Bound(q);
    const auto rb = b.Bound(q);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_DOUBLE_EQ(ra->lo, rb->lo);
    EXPECT_DOUBLE_EQ(ra->hi, rb->hi);
  }
}

TEST(PcSetSerializationTest, GeneratedSetsRoundTrip) {
  workload::IntelWirelessOptions opts;
  opts.num_devices = 6;
  opts.num_epochs = 30;
  const Table full = workload::MakeIntelWireless(opts);
  auto split = workload::SplitTopValueCorrelated(full, 2, 0.3);
  const auto pcs = workload::MakeCorrPCs(split.missing, {0, 1}, 2, 9);
  const auto parsed = ParsePcSet(SerializePcSet(pcs));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), pcs.size());
  // Testability survives the round trip.
  EXPECT_TRUE(parsed->SatisfiedBy(split.missing));
}

TEST(PcSetSerializationTest, CommentsAndBlankLines) {
  const std::string text =
      "pcset v1 attrs=2\n"
      "# analyst notes: outage between Nov 10 and 13\n"
      "\n"
      "pc pred={} values={1:[0,10]} freq=[0,5]\n";
  const auto parsed = ParsePcSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_TRUE(parsed->at(0).predicate().IsTrue());
}

TEST(PcSetSerializationTest, ErrorsQuoteTheOffendingLine) {
  // Hand-edited snapshots need more than a line number: the message
  // quotes the text that failed to parse.
  const auto bad = ParsePcSet(
      "pcset v1 attrs=2\n"
      "pc pred=<0:[0,1]> values={} freq=[0,1]\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("pc pred=<0:[0,1]>"),
            std::string::npos)
      << bad.status().ToString();

  const auto bad_header = ParsePcSet("pcsett v1\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.status().message().find("'pcsett v1'"),
            std::string::npos)
      << bad_header.status().ToString();
}

TEST(PcSetSerializationTest, ToleratesCrlfAndTrailingWhitespace) {
  const std::string text =
      "pcset v1 attrs=2  \r\n"
      "pc pred={0:[0,24)} values={1:[0,10]} freq=[1,5]\t \r\n"
      "pc pred={}\tvalues={1:[-2,2]}\tfreq=[0,3]\r\n";
  const auto parsed = ParsePcSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->at(0).frequency().lo, 1.0);
  EXPECT_EQ(parsed->at(1).values().dim(1).hi, 2.0);
  // CRLF round-trips to the same semantics as LF.
  const std::string lf_text =
      "pcset v1 attrs=2\n"
      "pc pred={0:[0,24)} values={1:[0,10]} freq=[1,5]\n"
      "pc pred={} values={1:[-2,2]} freq=[0,3]\n";
  const auto lf = ParsePcSet(lf_text);
  ASSERT_TRUE(lf.ok());
  EXPECT_EQ(SerializePcSet(*parsed), SerializePcSet(*lf));
}

TEST(BoxSerializationTest, PublicBoxRoundTrip) {
  Box box(3);
  box.Constrain(0, Interval{0, 24, false, true});
  box.Constrain(2, Interval::Closed(-1.5, 7));
  const std::string text = SerializeBox(box);
  EXPECT_EQ(text, "{0:[0,24),2:[-1.5,7]}");
  const auto parsed = ParseBox(text, 3);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == box);
  EXPECT_FALSE(ParseBox("{0:[0,24)", 3).ok());       // unterminated
  EXPECT_FALSE(ParseBox("{7:[0,1]}", 3).ok());       // attr out of range
  EXPECT_FALSE(ParseBox("0:[0,1]", 3).ok());         // missing braces
}

TEST(PcSetSerializationTest, ErrorsCarryLineNumbers) {
  const auto missing_header = ParsePcSet("pc pred={} values={} freq=[0,1]\n");
  EXPECT_FALSE(missing_header.ok());
  const auto bad_record = ParsePcSet(
      "pcset v1 attrs=2\n"
      "pc pred={9:[0,1]} values={} freq=[0,1]\n");
  ASSERT_FALSE(bad_record.ok());
  EXPECT_NE(bad_record.status().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParsePcSet("").ok());
  EXPECT_FALSE(ParsePcSet("pcset v1 attrs=2\npc pred={0:[0,1]}\n").ok());
  EXPECT_FALSE(
      ParsePcSet("pcset v1 attrs=2\npc pred={} values={} freq=[-2,1]\n").ok());
}

}  // namespace
}  // namespace pcx
