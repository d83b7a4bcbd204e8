#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace treeplace {

/// Minimal streaming JSON writer for machine-readable bench/experiment
/// output. Handles nesting, comma placement and string escaping; the caller
/// provides the document structure:
///
///   JsonWriter j(out);
///   j.beginObject();
///   j.key("sizes").beginArray();
///   j.value(200).value(400);
///   j.endArray();
///   j.endObject();
///
/// Numbers are emitted with enough precision to round-trip doubles; NaN and
/// infinities (not valid JSON) are emitted as null.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Key of the next member; only valid directly inside an object.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(bool flag);
  JsonWriter& null();

 private:
  void element();  ///< comma bookkeeping before a value/key
  void escaped(const std::string& text);

  std::ostream& out_;
  // One level per open container: true once the first element was written.
  std::string stack_;
  bool pendingKey_ = false;
};

/// Write a telemetry struct's fields, as its forEachField lists them, as
/// members of the object open in `json`; the caller opens and closes it.
template <class Stats>
void writeFields(JsonWriter& json, const Stats& stats) {
  stats.forEachField(
      [&json](const char* key, auto value) { json.key(key).value(value); });
}

}  // namespace treeplace
