// The JSON text primitives shared by every JSON surface: /varz, /budgetz,
// /svtz, /slowz, /tracez, /timeseriesz, /alertz, QueryTrace::ToJson and
// the trace_event export. Callers write the structure and their own
// quotes; these write a string's escaped body and a number.

#ifndef GUPT_OBS_JSON_H_
#define GUPT_OBS_JSON_H_

#include <string>
#include <string_view>

namespace gupt {
namespace obs {

/// The body of a JSON string literal holding `text`, without the quotes.
/// `"` and `\` are backslash-escaped, \n \r \t are written by name, and
/// every other byte below 0x20 as \u00XX. All other bytes, UTF-8
/// included, pass through unchanged.
std::string JsonEscape(std::string_view text);

/// `value` with 17 significant digits (`%.17g`), enough for any double to
/// round-trip bit for bit. NaN and ±inf, which JSON cannot represent, are
/// written as `null`.
std::string JsonNumber(double value);

}  // namespace obs
}  // namespace gupt

#endif  // GUPT_OBS_JSON_H_
