#pragma once

/// \file parse.hpp
/// Checked numeric parsing shared by every input boundary (SPICE values,
/// environment variables, CLI flags). The std::sto* family is a trap twice
/// over: it throws on garbage (escaping as an uncaught exception from deep
/// inside a parser) and it silently accepts trailing junk ("12abc" -> 12)
/// and negative unsigned values ("-5" wraps through stoull). These helpers
/// never throw, consume the WHOLE string, and reject wrap-around/overflow;
/// callers turn nullopt into the irf::Error subclass appropriate for their
/// boundary (ParseError for decks, ConfigError for flags/env).

#include <cstdint>
#include <optional>
#include <string_view>

namespace irf {

/// Full-string double parse. nullopt on empty input, trailing junk,
/// overflow, or non-numeric text. Rejects "inf"/"nan"/hex forms — every
/// caller wants a plain finite decimal.
std::optional<double> try_parse_double(std::string_view text);

/// Prefix double parse for SPICE-style values ("4.7k"): parses the leading
/// number and reports how many characters it consumed so the caller can
/// interpret the suffix. nullopt when no finite number leads the string.
std::optional<double> try_parse_double_prefix(std::string_view text,
                                              std::size_t* consumed);

/// Full-string signed integer parse; nullopt on a leading blank,
/// garbage/trailing junk or values outside int64.
std::optional<std::int64_t> try_parse_int64(std::string_view text);

/// Full-string unsigned parse. Unlike std::stoull this REJECTS a leading
/// '-' instead of wrapping it around, and a leading blank.
std::optional<std::uint64_t> try_parse_uint64(std::string_view text);

}  // namespace irf
