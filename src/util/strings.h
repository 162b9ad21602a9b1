// Small string utilities shared by parsers, report writers, and tests.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ixp {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// The body of a JSON string literal holding `s`: quote and backslash
/// escaped, newline/CR/tab as \n \r \t, other control bytes as \u00XX.
/// Bytes >= 0x20 pass through unchanged.
std::string json_escape(std::string_view s);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "3.2M" style figure (k/M/G decimal suffixes, one decimal) for summary
/// lines, where raw digit strings at 10^9 are unreadable.
std::string human_count(double v);

/// "1.4 GiB" style byte size (KiB/MiB/GiB binary suffixes, one decimal).
std::string human_bytes(double v);

/// Parses a non-negative integer; returns false on any non-digit content.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Parses a double; returns false if the whole string is not consumed.
bool parse_double(std::string_view s, double& out);

}  // namespace ixp
