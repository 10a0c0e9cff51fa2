#include "pc/serialization.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/text.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The parsers below work on views into the caller's text: a pcset
// document parses without copying its lines, fields or numbers.

/// Extracts the value of `key=` from a pc line; the value runs until the
/// next top-level whitespace.
StatusOr<std::string_view> ExtractField(std::string_view line,
                                        std::string_view key) {
  std::string needle(key);
  needle += '=';
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) {
    return Status::InvalidArgument("missing field '" + std::string(key) +
                                   "'");
  }
  size_t start = at + needle.size();
  // Value ends at whitespace that is not inside {} or [] / ().
  int depth = 0;
  size_t end = start;
  while (end < line.size()) {
    const char c = line[end];
    if (c == '{' || c == '[' || c == '(') ++depth;
    if (c == '}' || c == ']' || c == ')') --depth;
    if ((c == ' ' || c == '\t') && depth <= 0) break;
    ++end;
  }
  return line.substr(start, end - start);
}

/// ParseNumber's general path: strtod, which also takes a leading '+',
/// leading whitespace, hex and out-of-range magnitudes.
StatusOr<double> ParseNumberStrtod(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number '" + s + "'");
  }
  // strtod accepts "nan": a NaN endpoint or frequency breaks every
  // ordering a constraint relies on (and the frequency invariant
  // aborts), so no input may carry one.
  if (std::isnan(v)) {
    return Status::InvalidArgument("NaN is not a valid number '" + s + "'");
  }
  return v;
}

StatusOr<double> ParseNumberView(std::string_view s) {
  if (s == "inf" || s == "+inf") return kInf;
  if (s == "-inf") return -kInf;
  // Fast path: from_chars rounds exactly as strtod does. Whatever it
  // does not consume whole, or reads as NaN, takes the strtod path, so
  // accepted values and error text are the same either way.
  double v = 0.0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec == std::errc() && ptr == last && !std::isnan(v)) return v;
  return ParseNumberStrtod(std::string(s));
}

StatusOr<Interval> ParseIntervalView(std::string_view text) {
  const std::string_view s = TrimView(text);
  if (s.size() < 3) return Status::InvalidArgument("interval too short");
  const char open = s.front();
  const char close = s.back();
  if ((open != '[' && open != '(') || (close != ']' && close != ')')) {
    return Status::InvalidArgument("bad interval brackets in '" +
                                   std::string(s) + "'");
  }
  const std::string_view body = s.substr(1, s.size() - 2);
  const size_t comma = body.find(',');
  if (comma == std::string_view::npos) {
    return Status::InvalidArgument("interval needs two endpoints");
  }
  PCX_ASSIGN_OR_RETURN(const double lo,
                       ParseNumberView(TrimView(body.substr(0, comma))));
  PCX_ASSIGN_OR_RETURN(const double hi,
                       ParseNumberView(TrimView(body.substr(comma + 1))));
  if (lo > hi) return Status::InvalidArgument("inverted interval");
  return Interval{lo, hi, open == '(', close == ')'};
}

StatusOr<Box> ParseBoxView(std::string_view text, size_t num_attrs) {
  std::string_view body = TrimView(text);
  if (body.size() < 2 || body.front() != '{' || body.back() != '}') {
    return Status::InvalidArgument("box must be wrapped in {}: " +
                                   std::string(text));
  }
  body = body.substr(1, body.size() - 2);
  Box box(num_attrs);
  size_t pos = 0;
  while (pos < body.size()) {
    // Entries look like "3:[0, 24)"; split on the comma that follows a
    // closing bracket.
    size_t colon = body.find(':', pos);
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("missing ':' in box entry");
    }
    // strtoul needs a terminated string; an index is a few characters.
    const std::string attr_str(TrimView(body.substr(pos, colon - pos)));
    char* end = nullptr;
    const unsigned long attr = std::strtoul(attr_str.c_str(), &end, 10);
    if (end == attr_str.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad attribute index '" + attr_str + "'");
    }
    if (attr >= num_attrs) {
      return Status::InvalidArgument("attribute index out of range");
    }
    size_t close = body.find_first_of(")]", colon);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated interval");
    }
    PCX_ASSIGN_OR_RETURN(
        const Interval iv,
        ParseIntervalView(body.substr(colon + 1, close - colon)));
    box.Constrain(attr, iv);
    pos = close + 1;
    if (pos < body.size() && body[pos] == ',') ++pos;
  }
  return box;
}

StatusOr<PredicateConstraint> ParsePcBodyView(std::string_view body,
                                              size_t num_attrs) {
  PCX_ASSIGN_OR_RETURN(const std::string_view pred_text,
                       ExtractField(body, "pred"));
  PCX_ASSIGN_OR_RETURN(const std::string_view values_text,
                       ExtractField(body, "values"));
  PCX_ASSIGN_OR_RETURN(const std::string_view freq_text,
                       ExtractField(body, "freq"));
  PCX_ASSIGN_OR_RETURN(Box pred_box, ParseBoxView(pred_text, num_attrs));
  PCX_ASSIGN_OR_RETURN(Box values_box, ParseBoxView(values_text, num_attrs));
  PCX_ASSIGN_OR_RETURN(const Interval freq_iv, ParseIntervalView(freq_text));
  if (freq_iv.lo < 0) return Status::InvalidArgument("negative frequency");
  return PredicateConstraint(
      Predicate(std::move(pred_box)), std::move(values_box),
      FrequencyConstraint::Between(freq_iv.lo, freq_iv.hi));
}

}  // namespace

std::string FormatNumber(double v) {
  if (v == kInf) return "inf";
  if (v == -kInf) return "-inf";
  // Round-trippable double formatting.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

StatusOr<double> ParseNumber(const std::string& s) {
  return ParseNumberView(s);
}

std::string SerializeBox(const Box& box) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (size_t d = 0; d < box.num_attrs(); ++d) {
    if (box.dim(d).is_unbounded()) continue;
    if (!first) os << ",";
    first = false;
    os << d << ":" << SerializeInterval(box.dim(d));
  }
  os << "}";
  return os.str();
}

StatusOr<Box> ParseBox(const std::string& text, size_t num_attrs) {
  return ParseBoxView(text, num_attrs);
}

std::string SerializeInterval(const Interval& iv) {
  std::ostringstream os;
  os << (iv.lo_strict ? "(" : "[") << FormatNumber(iv.lo) << ","
     << FormatNumber(iv.hi) << (iv.hi_strict ? ")" : "]");
  return os.str();
}

StatusOr<Interval> ParseInterval(const std::string& text) {
  return ParseIntervalView(text);
}

std::string SerializePcBody(const PredicateConstraint& pc) {
  std::ostringstream os;
  os << "pred=" << SerializeBox(pc.predicate().box())
     << " values=" << SerializeBox(pc.values()) << " freq=["
     << FormatNumber(pc.frequency().lo) << ","
     << FormatNumber(pc.frequency().hi) << "]";
  return os.str();
}

StatusOr<PredicateConstraint> ParsePcBody(const std::string& body,
                                          size_t num_attrs) {
  return ParsePcBodyView(body, num_attrs);
}

std::string SerializePcSet(const PredicateConstraintSet& pcs) {
  std::ostringstream os;
  os << "pcset v1 attrs=" << pcs.num_attrs() << "\n";
  for (const auto& pc : pcs.constraints()) {
    os << "pc " << SerializePcBody(pc) << "\n";
  }
  return os.str();
}

StatusOr<PredicateConstraintSet> ParsePcSet(const std::string& text) {
  const std::string_view doc = text;
  std::string_view line;
  size_t line_no = 0;
  size_t num_attrs = 0;
  bool header_seen = false;
  PredicateConstraintSet out;

  // Errors carry both the line number and the offending text: snapshot
  // files get hand-edited (and re-saved by editors that add CRLF or
  // trailing blanks), and "line 17" alone is useless once the file has
  // been touched.
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                   msg + " in '" + std::string(line) + "'");
  };

  // Lines split on '\n' as std::getline does.
  for (size_t pos = 0; pos < doc.size();) {
    size_t eol = doc.find('\n', pos);
    if (eol == std::string_view::npos) eol = doc.size();
    line = doc.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    // Trim tolerates trailing whitespace and CRLF line endings, so
    // documents edited on other platforms still parse.
    line = TrimView(line);
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      if (line.rfind("pcset v1 attrs=", 0) != 0) {
        return error("expected header 'pcset v1 attrs=N'");
      }
      const std::string header(line);
      char* end = nullptr;
      num_attrs = std::strtoul(header.c_str() + 15, &end, 10);
      if (end == header.c_str() + 15 || *end != '\0') {
        return error("malformed attrs count in header");
      }
      header_seen = true;
      continue;
    }
    if (line.rfind("pc ", 0) != 0) return error("expected 'pc ' record");
    auto pc = ParsePcBodyView(line, num_attrs);
    if (!pc.ok()) return error(pc.status().message());
    out.Add(*std::move(pc));
  }
  if (!header_seen) return Status::InvalidArgument("empty pcset document");
  return out;
}

}  // namespace pcx
