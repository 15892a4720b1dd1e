// Shared JSON primitives for the observability layer.
//
// Every JSON document the repo emits (counter sets, metric registries,
// Chrome trace files, run manifests, bench results) goes through the one
// escaper here, so a counter named `cache "hot" path\n` can never again
// produce an unparseable file. Reading JSON is server/wire.hpp's job:
// server::parseJson is the tree's one parser.
#pragma once

#include <ostream>
#include <string_view>

namespace fepia::obs {

/// Writes `s` as a JSON string literal (including the surrounding
/// quotes): `"` `\` and control characters are escaped per RFC 8259.
void writeJsonString(std::ostream& os, std::string_view s);

/// JSON number for a possibly non-finite double (JSON has no Infinity or
/// NaN; both map to `null`). 17 significant digits — round-trip exact.
void writeJsonNumber(std::ostream& os, double x);

}  // namespace fepia::obs
