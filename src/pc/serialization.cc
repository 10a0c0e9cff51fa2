#include "pc/serialization.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/text.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Extracts the value of `key=` from a pc line; the value runs until the
/// next top-level whitespace.
StatusOr<std::string> ExtractField(const std::string& line,
                                   const std::string& key) {
  const std::string needle = key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return Status::InvalidArgument("missing field '" + key + "'");
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
  if (s == "inf" || s == "+inf") return kInf;
  if (s == "-inf") return -kInf;
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
  std::string body = TrimWhitespace(text);
  if (body.size() < 2 || body.front() != '{' || body.back() != '}') {
    return Status::InvalidArgument("box must be wrapped in {}: " + text);
  }
  body = body.substr(1, body.size() - 2);
  Box box(num_attrs);
  size_t pos = 0;
  while (pos < body.size()) {
    // Entries look like "3:[0, 24)"; split on the comma that follows a
    // closing bracket.
    size_t colon = body.find(':', pos);
    if (colon == std::string::npos) {
      return Status::InvalidArgument("missing ':' in box entry");
    }
    const std::string attr_str = TrimWhitespace(body.substr(pos, colon - pos));
    char* end = nullptr;
    const unsigned long attr = std::strtoul(attr_str.c_str(), &end, 10);
    if (end == attr_str.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad attribute index '" + attr_str + "'");
    }
    if (attr >= num_attrs) {
      return Status::InvalidArgument("attribute index out of range");
    }
    size_t close = body.find_first_of(")]", colon);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated interval");
    }
    PCX_ASSIGN_OR_RETURN(
        const Interval iv,
        ParseInterval(body.substr(colon + 1, close - colon)));
    box.Constrain(attr, iv);
    pos = close + 1;
    if (pos < body.size() && body[pos] == ',') ++pos;
  }
  return box;
}

std::string SerializeInterval(const Interval& iv) {
  std::ostringstream os;
  os << (iv.lo_strict ? "(" : "[") << FormatNumber(iv.lo) << ","
     << FormatNumber(iv.hi) << (iv.hi_strict ? ")" : "]");
  return os.str();
}

StatusOr<Interval> ParseInterval(const std::string& text) {
  const std::string s = TrimWhitespace(text);
  if (s.size() < 3) return Status::InvalidArgument("interval too short");
  const char open = s.front();
  const char close = s.back();
  if ((open != '[' && open != '(') || (close != ']' && close != ')')) {
    return Status::InvalidArgument("bad interval brackets in '" + s + "'");
  }
  const std::string body = s.substr(1, s.size() - 2);
  const size_t comma = body.find(',');
  if (comma == std::string::npos) {
    return Status::InvalidArgument("interval needs two endpoints");
  }
  PCX_ASSIGN_OR_RETURN(const double lo, ParseNumber(TrimWhitespace(body.substr(0, comma))));
  PCX_ASSIGN_OR_RETURN(const double hi, ParseNumber(TrimWhitespace(body.substr(comma + 1))));
  if (lo > hi) return Status::InvalidArgument("inverted interval");
  return Interval{lo, hi, open == '(', close == ')'};
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
  PCX_ASSIGN_OR_RETURN(const std::string pred_text,
                       ExtractField(body, "pred"));
  PCX_ASSIGN_OR_RETURN(const std::string values_text,
                       ExtractField(body, "values"));
  PCX_ASSIGN_OR_RETURN(const std::string freq_text,
                       ExtractField(body, "freq"));
  PCX_ASSIGN_OR_RETURN(Box pred_box, ParseBox(pred_text, num_attrs));
  PCX_ASSIGN_OR_RETURN(Box values_box, ParseBox(values_text, num_attrs));
  PCX_ASSIGN_OR_RETURN(const Interval freq_iv, ParseInterval(freq_text));
  if (freq_iv.lo < 0) return Status::InvalidArgument("negative frequency");
  return PredicateConstraint(
      Predicate(std::move(pred_box)), std::move(values_box),
      FrequencyConstraint::Between(freq_iv.lo, freq_iv.hi));
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
  std::istringstream is(text);
  std::string line;
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
                                   msg + " in '" + line + "'");
  };

  while (std::getline(is, line)) {
    ++line_no;
    // Trim tolerates trailing whitespace and CRLF line endings, so
    // documents edited on other platforms still parse.
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      if (line.rfind("pcset v1 attrs=", 0) != 0) {
        return error("expected header 'pcset v1 attrs=N'");
      }
      char* end = nullptr;
      num_attrs = std::strtoul(line.c_str() + 15, &end, 10);
      if (end == line.c_str() + 15 || *end != '\0') {
        return error("malformed attrs count in header");
      }
      header_seen = true;
      continue;
    }
    if (line.rfind("pc ", 0) != 0) return error("expected 'pc ' record");
    auto pc = ParsePcBody(line, num_attrs);
    if (!pc.ok()) return error(pc.status().message());
    out.Add(*std::move(pc));
  }
  if (!header_seen) return Status::InvalidArgument("empty pcset document");
  return out;
}

}  // namespace pcx
