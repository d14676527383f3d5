#include "telemetry/json_escape.h"

#include <cstdio>

namespace sol::telemetry {

void
AppendJsonEscaped(std::string& out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

std::string
JsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    AppendJsonEscaped(out, text);
    return out;
}

}  // namespace sol::telemetry
