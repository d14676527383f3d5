/**
 * @file
 * The one JSON string escaper every telemetry writer uses (BenchJson,
 * HealthReportWriter, ChromeTraceWriter), so a name escapes to the same
 * bytes in every artifact.
 */
#pragma once

#include <string>
#include <string_view>

namespace sol::telemetry {

/** Appends `text` to `out` escaped for a JSON string literal: `"`,
 *  `\`, newline, carriage return and tab as two-character escapes,
 *  every other control byte as `\u00XX`. */
void AppendJsonEscaped(std::string& out, std::string_view text);

/** `text` escaped for a JSON string literal (see AppendJsonEscaped). */
std::string JsonEscape(std::string_view text);

}  // namespace sol::telemetry
