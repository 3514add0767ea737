// util::json_escape — the one JSON string escaper behind every
// hand-written JSON artifact (report.json, plan.json, the Chrome trace).
#pragma once

#include <string>
#include <string_view>

namespace cgc::util {

/// Escapes `s` for use inside a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n` and `\t` use their short forms, any other
/// byte below 0x20 becomes `\u00xx`, and every other byte (UTF-8
/// included) passes through unchanged.
std::string json_escape(std::string_view s);

}  // namespace cgc::util
