#ifndef FAB_UTIL_STRING_UTIL_H_
#define FAB_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace fab {

/// Splits `s` on `delim`; adjacent delimiters produce empty fields, so the
/// output always has (number of delimiters + 1) entries.
std::vector<std::string> Split(const std::string& s, char delim);

/// True when `s` is a plain decimal number: one or more ASCII digits and
/// nothing else (no sign, space, point or suffix). util::EnvThreads and
/// core::ExperimentConfig::FromEnv read their numeric knobs by this rule.
bool IsDecimalDigits(const std::string& s);

/// Formats a double with `precision` decimal places ("%.*f").
std::string FormatDouble(double value, int precision);

/// `v` as a JSON number: "%.17g", which round-trips every finite double.
/// JSON has no spelling for NaN or infinities, so those render as the
/// strings "nan", "inf" and "-inf" and the document stays parseable.
std::string JsonNumber(double v);

/// `s` as a double-quoted JSON string literal: '"', '\\' and every
/// control character below 0x20 are escaped (RFC 8259 §7).
std::string EscapeJson(const std::string& s);

}  // namespace fab

#endif  // FAB_UTIL_STRING_UTIL_H_
