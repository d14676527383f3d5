#include "telemetry/json_escape.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

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

std::string
WriteArtifactFile(const std::string& file_name, std::string_view contents)
{
    std::string path = file_name;
    if (const char* dir = std::getenv("SOL_BENCH_JSON_DIR")) {
        const std::string_view d(dir);
        if (d == "-") {
            return {};
        }
        if (!d.empty()) {
            path = std::string(d) + (d.back() == '/' ? "" : "/") + path;
        }
    }
    std::ofstream out(path, std::ios::trunc);
    out << contents;
    out.close();
    if (!out) {
        std::cerr << "warning: could not write " << path << "\n";
        return {};
    }
    return path;
}

}  // namespace sol::telemetry
