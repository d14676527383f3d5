/**
 * @file
 * What every telemetry writer (BenchJson, HealthReportWriter,
 * ChromeTraceWriter) shares: the one JSON string escaper, so a name
 * escapes to the same bytes in every artifact, and the one rule for
 * where an artifact file lands.
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

/**
 * Writes `contents` to `file_name` in $SOL_BENCH_JSON_DIR, or in the
 * working directory when it is unset; "-" disables every artifact.
 * Returns the path written, or an empty string when disabled or when
 * the file could not be written (the latter warns on stderr).
 */
std::string WriteArtifactFile(const std::string& file_name,
                              std::string_view contents);

}  // namespace sol::telemetry
