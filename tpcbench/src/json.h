#ifndef TPCBENCH_JSON_H_
#define TPCBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace tpcbench {

/// Minimal writer for one flat JSON object: fields render in insertion
/// order, numbers with every digit (%.17g), nested values via Raw().
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    if (!std::isfinite(value)) return Raw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace tpcbench

#endif  // TPCBENCH_JSON_H_
