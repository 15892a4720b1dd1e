// Shared JSON writers: the one escaper, the one number formatter, and
// the one object-member builder.
//
// Every JSON document the repo emits (counter sets, metric registries,
// Chrome trace files, run manifests, bench results, telemetry records,
// wire frames) goes through the one escaper here, so a counter named
// `cache "hot" path\n` can never again produce an unparseable file.
// JsonFields builds the `,"key":value` members that telemetry events
// and wire frames share. Reading JSON is server/wire.hpp's job:
// server::parseJson is the tree's one parser.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace fepia::obs {

/// Writes `s` as a JSON string literal (including the surrounding
/// quotes): `"` `\` and control characters are escaped per RFC 8259.
void writeJsonString(std::ostream& os, std::string_view s);

/// JSON number for a possibly non-finite double (JSON has no Infinity or
/// NaN; both map to `null`). 17 significant digits — round-trip exact.
void writeJsonNumber(std::ostream& os, double x);

/// The members of one JSON object, each led by a comma and written
/// with writeJsonString / writeJsonNumber (strings escaped, numbers
/// round-trip exact, non-finite numbers as null), in call order.
class JsonFields {
 public:
  JsonFields& str(std::string_view key, std::string_view value);
  JsonFields& num(std::string_view key, double value);
  /// A decimal integer (exact above 2^53, unlike num).
  JsonFields& count(std::string_view key, std::uint64_t value);
  JsonFields& boolean(std::string_view key, bool value);
  /// A member whose value is already JSON text.
  JsonFields& raw(std::string_view key, std::string_view json);

  /// The members alone, to follow members written elsewhere.
  [[nodiscard]] std::string members() const { return os_.str(); }
  /// The members as one object.
  [[nodiscard]] std::string object() const;

 private:
  std::ostream& key(std::string_view name);
  std::ostringstream os_;
};

}  // namespace fepia::obs
