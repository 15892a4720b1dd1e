// The check every experiment program ends main() with: its headline
// paper claims, computed from the values it has just printed.
#pragma once

#include <initializer_list>
#include <iostream>
#include <string_view>
#include <utility>

/// Prints "CLAIM MISSED: <what>" to stderr for each claim that does not
/// hold, and returns main()'s exit status: 0 when every claim holds,
/// 1 otherwise. ctest runs the programs under the `paper` label.
inline int checkClaims(
    std::initializer_list<std::pair<bool, std::string_view>> claims) {
  int status = 0;
  for (const auto& [holds, what] : claims) {
    if (!holds) {
      std::cerr << "CLAIM MISSED: " << what << "\n";
      status = 1;
    }
  }
  return status;
}
